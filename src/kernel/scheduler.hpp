#pragma once
// Scheduling model.
//
// Both LWKs "employ a round-robin, non-preemptive, co-operative scheduler"
// whose purpose is to stay out of the application's way; Linux runs a
// CFS-class preemptive scheduler with a periodic tick. SchedulerModel is the
// cost/behaviour summary the performance pipeline uses: context-switch
// price, tick interference, sched_yield price, and whether glibc's
// sched_yield() is hijacked into a no-op.

#include <cstdint>

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

}  // namespace mkos::kernel
