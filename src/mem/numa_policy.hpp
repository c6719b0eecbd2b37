#pragma once
// NUMA memory policies, mirroring the Linux set_mempolicy() modes.
//
// The reproduction-critical constraint is encoded here: Linux's PREFERRED
// mode accepts exactly ONE domain ("In SNC-4 mode, four such domains exist,
// but the current Linux implementation allows only one to be listed",
// paper Section III-C). The LWKs' transparent MCDRAM->DDR4 spill is not a
// policy the application sets — it is kernel placement behaviour.

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>

#include "hw/topology.hpp"
#include "sim/contracts.hpp"

namespace mkos::mem {

/// Domain ids a placement record or a policy can name: SNC-4 KNL has 8
/// NUMA domains.
inline constexpr std::size_t kMaxDomains = 8;

/// An ordered list of at most kMaxDomains domain ids, held inline: every
/// VMA, heap and placement request carries a policy, and copying one must
/// not touch the heap. Appending past the capacity violates a contract.
class DomainList {
 public:
  DomainList() = default;
  DomainList(std::initializer_list<hw::DomainId> ids) { append(ids); }
  explicit DomainList(std::span<const hw::DomainId> ids) { append(ids); }

  void push_back(hw::DomainId d) {
    MKOS_EXPECTS(size_ < kMaxDomains);
    ids_[size_++] = d;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] hw::DomainId operator[](std::size_t i) const {
    MKOS_EXPECTS(i < size_);
    return ids_[i];
  }
  [[nodiscard]] const hw::DomainId* begin() const { return ids_.data(); }
  [[nodiscard]] const hw::DomainId* end() const { return ids_.data() + size_; }
  [[nodiscard]] bool contains(hw::DomainId d) const {
    return std::find(begin(), end(), d) != end();
  }
  operator std::span<const hw::DomainId>() const { return {ids_.data(), size_}; }

  friend bool operator==(const DomainList& a, const DomainList& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  template <typename Ids>
  void append(const Ids& ids) {
    for (const hw::DomainId d : ids) push_back(d);
  }

  std::array<hw::DomainId, kMaxDomains> ids_{};
  std::uint8_t size_ = 0;
};

enum class PolicyMode : std::uint8_t {
  kDefault,     ///< local allocation (home quadrant first)
  kBind,        ///< strictly from the listed domains; ENOMEM when exhausted
  kPreferred,   ///< one preferred domain, then the SLIT fallback order
  kInterleave,  ///< round-robin across the listed domains
};

struct MemPolicy {
  PolicyMode mode = PolicyMode::kDefault;
  DomainList domains;

  [[nodiscard]] static MemPolicy standard() { return {}; }
  [[nodiscard]] static MemPolicy bind(std::span<const hw::DomainId> ds) {
    return {PolicyMode::kBind, DomainList{ds}};
  }
  [[nodiscard]] static MemPolicy preferred(hw::DomainId d) {
    return {PolicyMode::kPreferred, {d}};
  }
  [[nodiscard]] static MemPolicy interleave(std::span<const hw::DomainId> ds) {
    return {PolicyMode::kInterleave, DomainList{ds}};
  }

  friend bool operator==(const MemPolicy&, const MemPolicy&) = default;
};

}  // namespace mkos::mem
