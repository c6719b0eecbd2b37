// Figure 6b: "LAMMPS scaling experiments" — timesteps/s, lj weak-scaling
// deck, 64 ranks/node x 2 threads/rank, 16..2048 nodes.
//
// Paper result: the one benchmark where "neither mOS nor McKernel performed
// better than Linux at scale, despite the fact that single node results
// were promising" — the Omni-Path send path issues system calls on device
// files, which the LWKs offload to Linux. The bench also runs the
// kernel-bypass fabric variant to show the regression disappears on
// user-space-driven networks (the paper's outlook).

#include <cstdio>

#include "core/experiment.hpp"
#include "core/obs_glue.hpp"
#include "sim/format.hpp"

int main() {
  using namespace mkos;
  using core::SystemConfig;

  sim::print_banner("Fig. 6b — LAMMPS lj.weak, timesteps/s, 16..2048 nodes",
                    "IPDPS'18, Figure 6b; LWKs fall behind Linux at scale");

  auto app = workloads::make_lammps();
  constexpr int kReps = 5;
  constexpr int kMaxNodes = 1 << 30;

  obs::RunLedger ledger = core::bench_ledger("fig6b_lammps", "IPDPS'18, Figure 6b", 17);
  core::record_config(ledger, SystemConfig::linux_default());
  core::record_config(ledger, SystemConfig::mckernel());
  core::record_config(ledger, SystemConfig::mos());
  const auto lin = core::scaling_sweep(*app, SystemConfig::linux_default(), kReps, 17,
                                       kMaxNodes, &ledger);
  const auto mck =
      core::scaling_sweep(*app, SystemConfig::mckernel(), kReps, 17, kMaxNodes, &ledger);
  const auto mos =
      core::scaling_sweep(*app, SystemConfig::mos(), kReps, 17, kMaxNodes, &ledger);

  sim::Table table{{"nodes", "McKernel steps/s", "mOS steps/s", "Linux steps/s",
                    "McKernel/Linux"}};
  for (std::size_t i = 0; i < lin.size(); ++i) {
    table.add_row({std::to_string(lin[i].nodes), sim::fmt(mck[i].median, 1),
                   sim::fmt(mos[i].median, 1), sim::fmt(lin[i].median, 1),
                   sim::fmt_pct(mck[i].median / lin[i].median)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Outlook: "most high-performance networks are usually driven entirely
  // from user-space" — rerun the top scale on a kernel-bypass fabric.
  SystemConfig mck_bypass = SystemConfig::mckernel();
  mck_bypass.user_space_network = true;
  SystemConfig lin_bypass = SystemConfig::linux_default();
  lin_bypass.user_space_network = true;
  const auto mck_b = core::run_app(*app, mck_bypass, 2048, kReps, 17);
  const auto lin_b = core::run_app(*app, lin_bypass, 2048, kReps, 17);
  std::printf("kernel-bypass fabric @2048 nodes: McKernel/Linux = %s "
              "(regression gone)\n",
              sim::fmt_pct(mck_b.median() / lin_b.median()).c_str());

  core::record_scaling(ledger, "lammps.linux", lin);
  core::record_scaling(ledger, "lammps.mckernel", mck);
  core::record_scaling(ledger, "lammps.mos", mos);
  core::record_config(ledger, mck_bypass, "mckernel_bypass");
  core::record_config(ledger, lin_bypass, "linux_bypass");
  core::record_run_stats(ledger, "lammps.mckernel_bypass.n2048", mck_b);
  core::record_run_stats(ledger, "lammps.linux_bypass.n2048", lin_b);
  ledger.set_gauge("bypass.mckernel_vs_linux", mck_b.median() / lin_b.median());
  core::emit(ledger);
  return 0;
}
