#pragma once
// Small-buffer vector for trivially copyable elements.
//
// Holds its first N elements inline and moves them to one heap block only
// when an (N+1)-th arrives. Per-rep set-up builds short lists by the
// million — a VMA's physical extents, a heap's growth extents, a placement
// result — and nearly all of them stay within N, so they cost no heap
// allocation at all. Moving a list steals its heap block when it has one,
// and leaves the source empty either way.

#include <algorithm>
#include <array>
#include <cstddef>
#include <initializer_list>
#include <memory>
#include <type_traits>

#include "sim/contracts.hpp"

namespace mkos::sim {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>, "elements are copied bytewise");
  static_assert(N > 0);

 public:
  SmallVec() = default;
  SmallVec(std::initializer_list<T> items) {
    for (const T& v : items) push_back(v);
  }
  SmallVec(const SmallVec& other) { assign(other); }
  SmallVec(SmallVec&& other) noexcept { take(other); }
  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      size_ = 0;
      assign(other);
    }
    return *this;
  }
  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      heap_.reset();
      capacity_ = N;
      size_ = 0;
      take(other);
    }
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] T* data() { return heap_ ? heap_.get() : inline_.data(); }
  [[nodiscard]] const T* data() const { return heap_ ? heap_.get() : inline_.data(); }
  [[nodiscard]] T* begin() { return data(); }
  [[nodiscard]] T* end() { return data() + size_; }
  [[nodiscard]] const T* begin() const { return data(); }
  [[nodiscard]] const T* end() const { return data() + size_; }

  [[nodiscard]] T& back() {
    MKOS_EXPECTS(size_ > 0);
    return data()[size_ - 1];
  }

  void push_back(const T& v) {
    if (size_ == capacity_) grow(2 * capacity_);
    data()[size_++] = v;
  }
  void pop_back() {
    MKOS_EXPECTS(size_ > 0);
    --size_;
  }

 private:
  void grow(std::size_t capacity) {
    auto block = std::make_unique_for_overwrite<T[]>(capacity);
    std::copy(begin(), end(), block.get());
    heap_ = std::move(block);
    capacity_ = capacity;
  }
  /// Copy `other`'s elements into this (empty) list.
  void assign(const SmallVec& other) {
    if (other.size_ > capacity_) grow(other.size_);
    std::copy(other.begin(), other.end(), data());
    size_ = other.size_;
  }
  /// Take `other`'s elements into this (empty, inline) list; `other` ends empty.
  void take(SmallVec& other) {
    if (other.heap_) {
      heap_ = std::move(other.heap_);
      capacity_ = other.capacity_;
    } else {
      std::copy(other.begin(), other.end(), inline_.data());
    }
    size_ = other.size_;
    other.capacity_ = N;
    other.size_ = 0;
  }

  std::array<T, N> inline_{};
  std::unique_ptr<T[]> heap_;  ///< set once the list outgrew the inline slots
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace mkos::sim
