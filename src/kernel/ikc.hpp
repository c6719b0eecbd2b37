#pragma once
// IKC — Inter-Kernel Communication channel (IHK's message layer).
//
// System-call offloading on McKernel rides this: the LWK core posts a
// request message to the proxy process on a Linux core, the proxy executes
// the call, and the response comes back. "IKC ... understands the underlying
// topology to perform efficient message delivery between the two kernels" —
// crossing quadrants costs extra cacheline bounces.

#include <cstdint>

#include "hw/topology.hpp"
#include "sim/time.hpp"
#include "sim/units.hpp"

namespace mkos::kernel {

struct IkcCosts {
  sim::TimeNs post{350};             ///< enqueue + doorbell (IPI) on sender
  sim::TimeNs deliver{450};          ///< receive-side IRQ + dequeue
  sim::TimeNs per_quadrant_hop{90};  ///< mesh distance between the two cores
  sim::TimeNs proxy_wakeup{1100};    ///< schedule the proxy thread on Linux
  double payload_gbps = 8.0;         ///< message body copy bandwidth
};

class IkcChannel {
 public:
  IkcChannel(IkcCosts costs, int lwk_quadrant, int linux_quadrant);

  /// One-way message delivery cost for `payload` bytes.
  [[nodiscard]] sim::TimeNs one_way(sim::Bytes payload) const;

  /// Request/response round trip including waking the proxy. This is the
  /// transport half of a McKernel offloaded system call (the Linux-side
  /// handler cost is added by the kernel model).
  [[nodiscard]] sim::TimeNs offload_round_trip(sim::Bytes request,
                                               sim::Bytes response) const;

  [[nodiscard]] const IkcCosts& costs() const { return costs_; }

 private:
  IkcCosts costs_;
  int hops_;
};

}  // namespace mkos::kernel
