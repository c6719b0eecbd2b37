#pragma once
// Simulated processes.
//
// A Process owns an address space, a heap engine supplied by its kernel, a
// file-descriptor table (which, on McKernel, is *not* authoritative — the
// Linux proxy process tracks the real one; we model that split explicitly),
// and its CPU binding.

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "hw/topology.hpp"
#include "mem/address_space.hpp"
#include "mem/heap.hpp"

namespace mkos::kernel {

using Pid = int;

class Process {
 public:
  Process(Pid pid, int home_quadrant);

  [[nodiscard]] Pid pid() const { return pid_; }
  [[nodiscard]] int home_quadrant() const { return home_quadrant_; }

  [[nodiscard]] mem::AddressSpace& address_space() { return as_; }
  [[nodiscard]] const mem::AddressSpace& address_space() const { return as_; }

  [[nodiscard]] mem::HeapEngine* heap() { return heap_.get(); }
  [[nodiscard]] const mem::HeapEngine* heap() const { return heap_.get(); }
  void set_heap(std::unique_ptr<mem::HeapEngine> heap) { heap_ = std::move(heap); }

  [[nodiscard]] const mem::MemPolicy& mempolicy() const { return policy_; }
  void set_mempolicy(mem::MemPolicy p) { policy_ = std::move(p); }

  /// Threads are counted, not recorded: no model reads a thread's id or
  /// core binding, so a process keeps no per-thread state.
  void add_thread() { ++thread_count_; }
  [[nodiscard]] int thread_count() const { return thread_count_; }

  /// File descriptors. `proxy_managed` marks descriptors whose state lives
  /// in the Linux proxy (McKernel: "The actual set of open files ... are
  /// tracked by the Linux kernel").
  int open_fd(std::string path, bool proxy_managed);
  bool close_fd(int fd);
  [[nodiscard]] const std::string* fd_path(int fd) const;
  [[nodiscard]] std::size_t open_fd_count() const { return fds_.size(); }
  [[nodiscard]] bool fd_is_proxy_managed(int fd) const;

  /// mOS launch-time MCDRAM partitioning state.
  [[nodiscard]] sim::Bytes mcdram_quota() const { return mcdram_quota_; }
  [[nodiscard]] sim::Bytes mcdram_used() const { return mcdram_used_; }
  void set_mcdram_quota(sim::Bytes q) { mcdram_quota_ = q; }
  void add_mcdram_used(sim::Bytes b) { mcdram_used_ += b; }

 private:
  struct Fd {
    std::string path;
    bool proxy_managed = false;
  };

  Pid pid_;
  int home_quadrant_;
  mem::AddressSpace as_;
  std::unique_ptr<mem::HeapEngine> heap_;
  mem::MemPolicy policy_;
  int thread_count_ = 0;
  std::map<int, Fd> fds_;
  int next_fd_ = 3;  // 0/1/2 reserved
  sim::Bytes mcdram_quota_ = ~sim::Bytes{0};
  sim::Bytes mcdram_used_ = 0;
};

}  // namespace mkos::kernel
