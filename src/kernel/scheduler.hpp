#pragma once
// Scheduling models.
//
// Both LWKs "employ a round-robin, non-preemptive, co-operative scheduler"
// whose purpose is to stay out of the application's way; Linux runs a
// CFS-class preemptive scheduler with a periodic tick. Two artifacts here:
//
//  * SchedulerModel — the cost/behaviour summary the performance pipeline
//    uses (context-switch price, tick interference, sched_yield price, and
//    whether glibc's sched_yield() is hijacked into a no-op).
//  * CoopScheduler  — a functional cooperative round-robin runqueue;
//    exercised by the unit tests and the scheduler micro-bench so the
//    claimed behaviour is demonstrable, not asserted.

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "sim/time.hpp"

namespace mkos::kernel {

enum class SchedulerKind : std::uint8_t { kLinuxCfs, kLwkCooperative };

struct SchedulerModel {
  SchedulerKind kind = SchedulerKind::kLwkCooperative;
  sim::TimeNs context_switch{1300};   ///< full switch incl. cache disturbance
  sim::TimeNs yield_syscall{700};     ///< user->kernel->user for sched_yield()
  bool yield_hijacked = false;        ///< McKernel --disable-sched-yield
  bool preemptive = false;
  sim::TimeNs tick_period{sim::milliseconds(4)};  ///< CFS tick (250 Hz), if preemptive

  /// Price of one application sched_yield() call.
  [[nodiscard]] sim::TimeNs sched_yield_cost() const {
    // Hijacked: the injected shared library returns immediately in user
    // space ("helps to eliminate user/kernel mode switches").
    return yield_hijacked ? sim::TimeNs{6} : yield_syscall;
  }

  [[nodiscard]] static SchedulerModel linux_cfs() {
    SchedulerModel m;
    m.kind = SchedulerKind::kLinuxCfs;
    m.preemptive = true;
    m.context_switch = sim::TimeNs{2100};
    return m;
  }
  [[nodiscard]] static SchedulerModel lwk_coop(bool yield_hijacked = false) {
    SchedulerModel m;
    m.yield_hijacked = yield_hijacked;
    return m;
  }
};

/// Functional cooperative round-robin scheduler over abstract tasks.
/// Tasks are resumable closures: each invocation runs one "burst" and
/// reports how long it computed and whether it is finished.
class CoopScheduler {
 public:
  struct Burst {
    sim::TimeNs duration{0};
    bool done = false;
  };
  using Task = std::function<Burst()>;

  explicit CoopScheduler(SchedulerModel model);

  /// Add a task to the tail of the run queue; returns its id.
  int add_task(Task task);

  /// Run until all tasks complete; returns total simulated time including
  /// context-switch costs. Round-robin order is strict FIFO.
  sim::TimeNs run_to_completion();

  /// Tasks completed so far (for observers/tests).
  [[nodiscard]] int completed() const { return completed_; }
  [[nodiscard]] std::uint64_t context_switches() const { return switches_; }
  [[nodiscard]] const std::vector<int>& completion_order() const { return completion_order_; }

 private:
  SchedulerModel model_;
  std::deque<std::pair<int, Task>> queue_;
  int next_id_ = 0;
  int completed_ = 0;
  std::uint64_t switches_ = 0;
  std::vector<int> completion_order_;
};

/// Preemptive round-robin with a fixed quantum — McKernel's *optional* time
/// sharing ("it enables it only on specific CPU cores"). Used where a core
/// must multiplex application threads with, e.g., in-situ tasks; the default
/// LWK stance is to not time share at all.
class TimeShareScheduler {
 public:
  TimeShareScheduler(SchedulerModel model, sim::TimeNs quantum);

  /// Add a task with `total_work` of CPU time to deliver; returns its id.
  int add_task(sim::TimeNs total_work);

  /// Run to completion; returns each task's completion time (indexed by id).
  std::vector<sim::TimeNs> run();

  [[nodiscard]] std::uint64_t preemptions() const { return preemptions_; }
  [[nodiscard]] sim::TimeNs quantum() const { return quantum_; }

 private:
  SchedulerModel model_;
  sim::TimeNs quantum_;
  std::vector<sim::TimeNs> remaining_;
  std::uint64_t preemptions_ = 0;
};

}  // namespace mkos::kernel
