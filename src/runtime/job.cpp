#include "runtime/job.hpp"

#include <algorithm>

#include "mem/tlb.hpp"
#include "sim/contracts.hpp"

namespace mkos::runtime {

namespace {

/// The heap engine's placement record, or nullptr when it keeps none.
const mem::Placement* heap_placement(const kernel::Process& p) {
  return p.heap() != nullptr ? p.heap()->placement_or_null() : nullptr;
}

}  // namespace

Job::Job(const Machine& machine, JobSpec spec, std::uint64_t seed)
    : machine_(machine), spec_(spec) {
  MKOS_EXPECTS(spec.nodes >= 1);
  MKOS_EXPECTS(spec.ranks_per_node >= 1);
  MKOS_EXPECTS(spec.threads_per_rank >= 1);
  MKOS_EXPECTS(spec.nodes <= machine.cluster.node_count());

  node_ = std::make_unique<kernel::Node>(machine.cluster.node(), machine.os, seed);

  const int quadrants = node_->topo().quadrant_count();
  lanes_.reserve(static_cast<std::size_t>(spec.ranks_per_node));
  for (int i = 0; i < spec.ranks_per_node; ++i) {
    // Block binding: consecutive ranks fill a quadrant before moving on,
    // matching how MPI_PROC_BIND-style launches lay ranks out on SNC-4.
    const int quadrant = i / std::max(1, spec.ranks_per_node / quadrants) % quadrants;
    kernel::Process& p = node_->launch_rank(quadrant, spec.ranks_per_node);
    for (int t = 0; t < spec.threads_per_rank; ++t) p.add_thread();
    lanes_.push_back(&p);
  }
}

kernel::Process& Job::lane(int i) {
  MKOS_EXPECTS(i >= 0 && i < lane_count());
  return *lanes_[static_cast<std::size_t>(i)];
}

double Job::lane_fraction_in(int i, hw::MemKind kind) const {
  MKOS_EXPECTS(i >= 0 && i < lane_count());
  const kernel::Process& p = *lanes_[static_cast<std::size_t>(i)];
  const auto& topo = node_->topo();
  const mem::Residency& as = p.address_space().residency();
  sim::Bytes res = as.total();
  sim::Bytes in_kind = as.bytes_in_kind(topo, kind);
  // Include the heap engine's own placement (kept outside the VMA map).
  if (const mem::Placement* hp = heap_placement(p)) {
    res += hp->total();
    in_kind += hp->bytes_in_kind(topo, kind);
  }
  if (res == 0) return 0.0;
  return static_cast<double>(in_kind) / static_cast<double>(res);
}

Job::StreamMix Job::lane_stream_mix(int i) const {
  MKOS_EXPECTS(i >= 0 && i < lane_count());
  const kernel::Process& p = *lanes_[static_cast<std::size_t>(i)];
  const auto& topo = node_->topo();

  // Communication buffers (shm) are excluded: the roofline streams the
  // application's working set, not the MPI segment.
  const mem::Residency& app = p.address_space().app_residency();
  StreamMix mix{app.total(), app.bytes_in_kind(topo, hw::MemKind::kMcdram),
                app.bytes_with_page(mem::PageSize::k4K),
                app.bytes_with_page(mem::PageSize::k1G)};
  if (const mem::Placement* hp = heap_placement(p)) {
    mix.resident += hp->total();
    mix.in_mcdram += hp->bytes_in_kind(topo, hw::MemKind::kMcdram);
    mix.in_4k += hp->bytes_with_page(mem::PageSize::k4K);
  }
  return mix;
}

double Job::effective_gbps(const StreamMix& mix) const {
  const auto& topo = node_->topo();
  const sim::Bytes res = mix.resident;
  if (res == 0) {
    // Nothing resident yet: assume the DDR4 rate.
    return topo.total_bandwidth_gbps(hw::MemKind::kDdr4) / spec_.ranks_per_node;
  }

  const double f_mcdram = static_cast<double>(mix.in_mcdram) / static_cast<double>(res);
  const double bw_mcdram = topo.total_bandwidth_gbps(hw::MemKind::kMcdram);
  const double bw_ddr = topo.total_bandwidth_gbps(hw::MemKind::kDdr4);

  // Harmonic blend: time per byte is the placement-weighted sum of the
  // per-kind costs, each kind's node bandwidth shared across all ranks.
  const double ranks = static_cast<double>(spec_.ranks_per_node);
  const double t_per_byte =
      f_mcdram * (ranks / bw_mcdram) + (1.0 - f_mcdram) * (ranks / bw_ddr);
  double gbps = 1.0 / t_per_byte;

  // Page-granularity factor from the TLB-coverage model: 4 KiB-backed data
  // pays a page-table walk per streamed page once the working set exceeds
  // the TLB reach; 2 MiB/1 GiB mappings are covered (mem/tlb.hpp).
  mem::Placement pages;
  pages.add(0, mem::PageSize::k4K, mix.in_4k);
  pages.add(0, mem::PageSize::k1G, mix.in_1g);
  pages.add(0, mem::PageSize::k2M, res - mix.in_4k - mix.in_1g);
  gbps *= mem::tlb_bandwidth_factor(mem::TlbSpec::knl(), pages, gbps);
  return gbps;
}

}  // namespace mkos::runtime
