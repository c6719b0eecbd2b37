// CCS-QCD — clover-fermion lattice QCD solver (paper ref [13]).
//
// Weak-scaled, 4 ranks x 32 threads per node, and the one workload sized to
// EXCEED MCDRAM: the per-node working set is ~20 GiB against 16 GiB of
// MCDRAM. This is the showcase for the LWKs' transparent MCDRAM->DDR4
// spill:
//   * Linux (SNC-4): no policy expresses "all MCDRAM then spill", so the
//     run uses DDR4 only (exactly what the paper did);
//   * mOS: MCDRAM divided per rank at launch; uneven lattice blocks strand
//     some quota while bigger ranks spill more (rigid upfront allocation);
//   * McKernel: mappings that don't fit MCDRAM fall back to demand paging,
//     so pages fill the *remaining* MCDRAM at first touch, interleaved
//     fairly across ranks ("ranks inside the node could better utilize
//     MCDRAM as opposed to dividing memory resources upfront").
// Result ordering: McKernel (up to +39%) > mOS (+28%) > Linux — Fig. 5a.

#include "sim/contracts.hpp"
#include "workloads/app.hpp"

namespace mkos::workloads {

namespace {

using sim::GiB;
using sim::MiB;

class CcsQcdApp final : public App {
 public:
  [[nodiscard]] std::string_view name() const override { return "CCS-QCD"; }
  [[nodiscard]] std::string_view metric() const override { return "Mflops/s/node"; }

  [[nodiscard]] runtime::JobSpec spec(int nodes) const override {
    return runtime::JobSpec{nodes, 4, 32};
  }

  void setup(runtime::Job& job) override {
    // In quadrant mode there is a single MCDRAM domain, so Linux *can*
    // express the spill with `numactl -p`: "the numactl -p option can be
    // used by specifying MCDRAM as the preferred NUMA domain". In SNC-4,
    // PREFERRED accepts one of the four domains only, so the tuned runs
    // fell back to DDR4 (Section III-C) — no policy is set.
    kernel::Kernel& k = job.kernel();
    if (k.kind() == kernel::OsKind::kLinux) {
      const auto& hbm = job.node().topo().domains_of_kind(hw::MemKind::kMcdram);
      if (hbm.size() == 1) {
        const auto r = k.sys_set_mempolicy(job.lane(0), mem::MemPolicy::preferred(hbm[0]));
        MKOS_ASSERT(r.err == kernel::kOk);
        for (int i = 1; i < job.lane_count(); ++i) {
          (void)k.sys_set_mempolicy(job.lane(i), mem::MemPolicy::preferred(hbm[0]));
        }
      }
    }
    // Domain decomposition of the clover solver leaves uneven block sizes;
    // this imbalance is what launch-time MCDRAM division (mOS) strands and
    // demand-paging fallback (McKernel) recovers.
    alloc_working_set(job, kWsPerRank, kLaneImbalance());
    init_heap(job, 32 * MiB);
  }

  [[nodiscard]] AppResult run(runtime::Job& job, runtime::MpiWorld& world) override {
    (void)job;
    world.mpi_init();
    for (int it = 0; it < kSimIters; ++it) {
      // BiCGStab iteration on the clover-fermion operator: one pass over
      // the lattice fields plus the flop-heavy clover term inversion. Each
      // rank streams its own (uneven) lattice block.
      world.compute_bytes_scaled(kTrafficPerIter, kLaneImbalance());
      world.compute_flops(kFlopsPerIter);
      world.halo_exchange(640 * sim::KiB, 8);
      world.allreduce(16);
    }
    const sim::TimeNs t = world.finish();
    AppResult r;
    r.unit = metric();
    r.elapsed = t;
    r.fom = kFlopsPerIter * 4.0 * kSimIters / t.sec() / 1e6;  // per node
    return r;
  }

 private:
  [[nodiscard]] static const std::vector<double>& kLaneImbalance() {
    static const std::vector<double> v{1.5, 0.6, 1.2, 0.7};
    return v;
  }

  static constexpr sim::Bytes kWsPerRank = 5 * GiB;        // node WS ~20 GiB
  static constexpr sim::Bytes kTrafficPerIter = 5 * GiB;   // full-lattice pass
  static constexpr double kFlopsPerIter = 1.62e11;          // clover term dominates
  static constexpr int kSimIters = 8;
};

}  // namespace

std::unique_ptr<App> make_ccs_qcd() { return std::make_unique<CcsQcdApp>(); }

}  // namespace mkos::workloads
