#pragma once
// Interconnect model (Intel Omni-Path class fabric).
//
// An alpha-beta cost model over a folded-Clos (fat-tree) hop estimate. The
// property the paper's LAMMPS result hinges on is captured explicitly:
// `kernel_involved_ops` — the first-generation Omni-Path PSM2 path issues
// system calls on the hfi1 device file for certain send operations, so on a
// multi-kernel those calls are *offloaded* (IKC round trip on McKernel,
// thread migration on mOS), adding latency and reducing effective bandwidth.

#include <string>

#include "sim/time.hpp"
#include "sim/units.hpp"

namespace mkos::hw {

struct NetworkModel {
  std::string name = "omni-path-100";

  sim::TimeNs base_latency{900};        ///< injection-to-delivery, zero hops
  sim::TimeNs per_hop_latency{100};     ///< per switch traversal
  double bandwidth_gbps = 12.5;         ///< 100 Gbit/s link
  sim::Bytes eager_threshold = 16 * sim::KiB;  ///< rendezvous handshake beyond
  sim::TimeNs rendezvous_overhead{1500};

  /// Fraction of message operations that enter the kernel (device-file
  /// syscalls). 0 for a pure user-space fabric (e.g. a hypothetical
  /// kernel-bypass generation), > 0 for first-generation Omni-Path.
  double kernel_involved_ops = 1.0;

  /// Radix used for the hop-count estimate of the folded Clos.
  int switch_radix = 48;

  /// Pure wire time of an N-byte message between two nodes, excluding any
  /// OS involvement (the kernel prices that separately).
  [[nodiscard]] sim::TimeNs wire_time(sim::Bytes bytes, int hops) const;

  /// Hop estimate between two distinct nodes of a `total_nodes` machine.
  [[nodiscard]] int hop_count(int node_a, int node_b, int total_nodes) const;
};

/// The Oakforest-PACS fabric: 100 Gbit Omni-Path, full bisection fat-tree,
/// kernel-involved send path (paper Section IV, LAMMPS discussion).
[[nodiscard]] NetworkModel omni_path_100();

/// A kernel-bypass variant of the same fabric ("most high-performance
/// networks are usually driven entirely from user-space") — used by the
/// ablation bench to show LAMMPS would not regress on such hardware.
[[nodiscard]] NetworkModel omni_path_user_space();

}  // namespace mkos::hw
