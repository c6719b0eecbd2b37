#pragma once
// Job launch: a parallel application instance on a machine.
//
// All nodes of the machine are identical and all ranks with the same
// node-local index behave identically with respect to memory placement, so
// the Job simulates one *representative node* in full (real kernel, real
// physical allocator, one process per local rank) and scales the per-lane
// results across the cluster. Per-rank divergence at scale — OS noise —
// is handled statistically by the MpiWorld executor on top.

#include <memory>
#include <vector>

#include "hw/cluster.hpp"
#include "kernel/node.hpp"

namespace mkos::runtime {

struct JobSpec {
  int nodes = 1;
  int ranks_per_node = 64;
  int threads_per_rank = 1;

  [[nodiscard]] int world_size() const { return nodes * ranks_per_node; }
};

/// A machine is hardware plus the OS deployment choice.
struct Machine {
  hw::Cluster cluster;
  kernel::NodeOsConfig os;
};

class Job {
 public:
  /// Boot the representative node and launch `ranks_per_node` processes on
  /// it, bound round-robin across quadrants (NUMA-aware binding, as both
  /// LWKs and the paper's Linux runs do).
  /// `machine` is referenced and must outlive the job.
  Job(const Machine& machine, JobSpec spec, std::uint64_t seed);
  Job(Machine&& machine, JobSpec spec, std::uint64_t seed) = delete;

  [[nodiscard]] const JobSpec& spec() const { return spec_; }
  [[nodiscard]] const Machine& machine() const { return machine_; }
  [[nodiscard]] int world_size() const { return spec_.world_size(); }

  [[nodiscard]] kernel::Node& node() { return *node_; }
  [[nodiscard]] kernel::Kernel& kernel() { return node_->app_kernel(); }
  [[nodiscard]] const kernel::Kernel& kernel() const { return node_->app_kernel(); }

  /// Node-local rank processes ("lanes"). lane(i) is the process every
  /// cluster rank with node-local index i is modeled by.
  [[nodiscard]] int lane_count() const { return static_cast<int>(lanes_.size()); }
  [[nodiscard]] kernel::Process& lane(int i);

  /// Aggregate per-lane placement: fraction of resident bytes (every VMA
  /// plus the heap engine's own record) in `kind`.
  [[nodiscard]] double lane_fraction_in(int i, hw::MemKind kind) const;

  /// What lane i streams: its resident working set (every VMA but the MPI
  /// shm segment, plus the heap engine's record) and how that splits by
  /// memory kind and page size. O(1): read from running totals.
  struct StreamMix {
    sim::Bytes resident = 0;
    sim::Bytes in_mcdram = 0;
    sim::Bytes in_4k = 0;
    sim::Bytes in_1g = 0;

    friend bool operator==(const StreamMix&, const StreamMix&) = default;
  };
  [[nodiscard]] StreamMix lane_stream_mix(int i) const;

  /// Effective per-rank stream bandwidth (GB/s) of a mix, from its
  /// MCDRAM/DDR4 placement, with node bandwidth shared across ranks and a
  /// TLB/contiguity factor from the page-size mix ("An implication of
  /// contiguous physical memory is better cache performance"). Equal mixes
  /// give bit-equal bandwidths.
  [[nodiscard]] double effective_gbps(const StreamMix& mix) const;
  /// effective_gbps(lane_stream_mix(i)).
  [[nodiscard]] double lane_effective_gbps(int i) const {
    return effective_gbps(lane_stream_mix(i));
  }

 private:
  const Machine& machine_;
  JobSpec spec_;
  std::unique_ptr<kernel::Node> node_;
  std::vector<kernel::Process*> lanes_;
};

}  // namespace mkos::runtime
