#include "hw/network.hpp"

#include <cmath>

#include "sim/contracts.hpp"

namespace mkos::hw {

sim::TimeNs NetworkModel::wire_time(sim::Bytes bytes, int hops) const {
  MKOS_EXPECTS(hops >= 0);
  const double transfer_ns =
      static_cast<double>(bytes) / (bandwidth_gbps * 1e9) * 1e9;  // GB/s -> ns
  sim::TimeNs t = base_latency + per_hop_latency * hops + sim::from_double_ns(transfer_ns);
  if (bytes > eager_threshold) t += rendezvous_overhead;
  return t;
}

int NetworkModel::hop_count(int node_a, int node_b, int total_nodes) const {
  MKOS_EXPECTS(total_nodes >= 1);
  if (node_a == node_b) return 0;
  // Folded Clos with radix-r switches: nodes under the same leaf reach each
  // other in 1 hop; otherwise the tree depth determines the hop count.
  const int per_leaf = switch_radix / 2;
  if (node_a / per_leaf == node_b / per_leaf) return 1;
  int levels = 1;
  double reach = per_leaf;
  while (reach < total_nodes) {
    reach *= switch_radix / 2;
    ++levels;
  }
  return 2 * levels - 1;
}

NetworkModel omni_path_100() { return NetworkModel{}; }

NetworkModel omni_path_user_space() {
  NetworkModel net;
  net.name = "omni-path-bypass";
  net.kernel_involved_ops = 0.0;
  return net;
}

}  // namespace mkos::hw
