#pragma once
// The fault injector: activates a Plan's events at simulated timestamps.
//
// On every advance(to) the plan's events before `to` are popped in (time,
// generation) order — FIFO among equal timestamps, the order
// Plan::take_until already guarantees — and the batch that fired is handed
// back to the caller. The runtime's recovery layer consumes those batches
// at synchronization boundaries — the points where a bulk-synchronous code
// would actually observe a failure.
//
// advance() is monotone and deterministic: same plan, same sequence of
// horizons, same batches. An empty plan never touches the RNG and returns
// empty batches, which keeps zero-fault runs bit-identical to runs without
// the subsystem compiled in at all.

#include <vector>

#include "fault/fault.hpp"

namespace mkos::fault {

class Injector {
 public:
  explicit Injector(Plan plan);

  /// Advance the fault timeline to progress time `to`; returns the events
  /// with `at` strictly before `to` that had not fired yet, in (time,
  /// generation) order. The returned reference is valid until the next
  /// advance() call.
  [[nodiscard]] const std::vector<FaultEvent>& advance(sim::TimeNs to);

  [[nodiscard]] std::uint64_t activated() const { return activated_; }
  [[nodiscard]] const Plan& plan() const { return plan_; }

 private:
  Plan plan_;
  std::vector<FaultEvent> fired_;
  std::uint64_t activated_ = 0;
};

}  // namespace mkos::fault
