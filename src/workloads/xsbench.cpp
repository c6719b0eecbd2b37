// XSBench — neutron cross-section lookup proxy (PAPERS.md: Yoshii et al.,
// the canonical NUMA-placement-sensitive kernel of Monte Carlo transport).
//
// The measured loop is random energy/nuclide lookups into a large read-only
// unionized energy grid: almost no flops, almost all memory bandwidth, so
// the figure of merit tracks where the working set landed. Three placement
// variants expose the policy axis of Section III-C:
//
//   first-touch — the untuned baseline: pages bound to DDR4 (what a naive
//                 first-touch run gets once MCDRAM is not explicitly asked
//                 for), every kernel reads at DDR4 speed.
//   interleave  — pages striped across all domains, ~half the reads hit
//                 MCDRAM on every kernel.
//   mcdram      — MCDRAM-preferred: on Linux, PREFERRED takes exactly ONE
//                 domain (the SNC-4 limitation), so 64 ranks x 96 MiB spill
//                 out of that 4 GiB domain down the zonelist; the LWKs'
//                 native MCDRAM-first spill packs all four domains.
//
// Each iteration also performs kernel-object allocation churn (grid node
// scratch, tally blocks) through the allocator model when one is attached —
// on Linux the magazine/depot/zone-lock cascade plus kreclaimd widen the
// placement gap as core counts grow; on the LWKs churn stays near-free.

#include <algorithm>

#include "kernel/kernel.hpp"
#include "sim/contracts.hpp"
#include "workloads/app.hpp"

namespace mkos::workloads {

namespace {

using sim::KiB;
using sim::MiB;

enum class XsPlacement { kFirstTouch, kInterleave, kMcdramPreferred };

class XsBenchApp final : public App {
 public:
  explicit XsBenchApp(XsPlacement placement) : placement_(placement) {}

  [[nodiscard]] std::string_view name() const override {
    switch (placement_) {
      case XsPlacement::kFirstTouch: return "XSBench/first-touch";
      case XsPlacement::kInterleave: return "XSBench/interleave";
      case XsPlacement::kMcdramPreferred: return "XSBench/mcdram";
    }
    return "XSBench";
  }
  [[nodiscard]] std::string_view metric() const override { return "lookups/s"; }

  [[nodiscard]] std::vector<int> node_counts() const override {
    return {1, 2, 4, 8, 16, 32, 64, 128, 256};
  }

  [[nodiscard]] runtime::JobSpec spec(int nodes) const override {
    return runtime::JobSpec{nodes, 64, 1};
  }

  void setup(runtime::Job& job) override {
    kernel::Kernel& k = job.kernel();
    const hw::NodeTopology& topo = job.node().topo();
    const bool linux_kernel = k.kind() == kernel::OsKind::kLinux;

    mem::MemPolicy policy = mem::MemPolicy::standard();
    switch (placement_) {
      case XsPlacement::kFirstTouch:
        // Bind to DDR4: the portable rendering of "first touch landed in
        // DDR4" that behaves identically under every kernel's default spill.
        policy = mem::MemPolicy::bind(topo.domains_of_kind(hw::MemKind::kDdr4));
        break;
      case XsPlacement::kInterleave: {
        mem::DomainList all;
        for (const auto& d : topo.domains()) all.push_back(d.id);
        policy = mem::MemPolicy::interleave(all);
        break;
      }
      case XsPlacement::kMcdramPreferred: {
        if (linux_kernel) {
          // PREFERRED accepts exactly one domain on Linux (Section III-C);
          // overflow walks the zonelist from there.
          const auto& mcdram = topo.domains_of_kind(hw::MemKind::kMcdram);
          MKOS_ASSERT(!mcdram.empty());
          policy = mem::MemPolicy::preferred(mcdram.front());
        }
        // LWKs: the default policy already spills MCDRAM-first across all
        // four domains — exactly what "MCDRAM preferred" means there.
        break;
      }
    }
    if (policy.mode != mem::PolicyMode::kDefault) {
      for (int i = 0; i < job.lane_count(); ++i) {
        const auto r = k.sys_set_mempolicy(job.lane(i), policy);
        MKOS_ASSERT(r.err == kernel::kOk);
      }
    }
    alloc_working_set(job, kGridBytes);
    init_heap(job, 8 * MiB);
  }

  [[nodiscard]] AppResult run(runtime::Job& job, runtime::MpiWorld& world) override {
    (void)job;
    world.mpi_init();
    for (int it = 0; it < kSimIters; ++it) {
      // Each lookup walks ~5 gridpoint neighborhoods of ~192 B: pure
      // bandwidth against wherever setup() placed the grid.
      world.compute_bytes(kLookupsPerIter * kBytesPerLookup);
      // Tally/scratch kernel-object churn (freed within the iteration).
      world.alloc_churn(kChurnPairsPerIter, 4 * KiB);
      world.sched_yields(40);  // OpenMP dynamic-schedule handoffs
      world.allreduce(8);      // running verification hash
    }
    const sim::TimeNs t = world.finish();
    AppResult r;
    r.unit = metric();
    r.elapsed = t;
    r.fom = static_cast<double>(kLookupsPerIter) * world.world_size() *
            kSimIters / t.sec();
    return r;
  }

 private:
  XsPlacement placement_;
  /// Unionized grid slice per rank: 64 ranks x 96 MiB = 6 GiB per node —
  /// deliberately larger than one 4 GiB MCDRAM domain (the Linux PREFERRED
  /// trap) but far below the 16 GiB of all four (the LWK spill succeeds).
  static constexpr sim::Bytes kGridBytes = 96 * MiB;
  static constexpr std::uint64_t kLookupsPerIter = 120000;
  static constexpr sim::Bytes kBytesPerLookup = 960;
  static constexpr std::uint64_t kChurnPairsPerIter = 4000;
  static constexpr int kSimIters = 50;
};

}  // namespace

std::unique_ptr<App> make_xsbench_first_touch() {
  return std::make_unique<XsBenchApp>(XsPlacement::kFirstTouch);
}
std::unique_ptr<App> make_xsbench_interleave() {
  return std::make_unique<XsBenchApp>(XsPlacement::kInterleave);
}
std::unique_ptr<App> make_xsbench_mcdram() {
  return std::make_unique<XsBenchApp>(XsPlacement::kMcdramPreferred);
}

}  // namespace mkos::workloads
