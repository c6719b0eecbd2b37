// Figure 6a: "Lulesh 2.0 scaling experiments" — zones/s, -s 50,
// 64 ranks/node x 2 threads/rank, cubic node counts 1..1728.
//
// Paper result: the LWKs lead throughout (the HPC brk() + large pages
// margin, Table I's ~121%), and the Linux median drops at 1,728 nodes — "A
// similar drop-off at a high node count occurred with Lulesh 2.0. Note that
// this is not a single outlier. The 1,728-node Linux result ... is the
// median of five experiments."

#include <cstdio>

#include "core/experiment.hpp"
#include "core/obs_glue.hpp"
#include "sim/format.hpp"

int main() {
  using namespace mkos;
  using core::SystemConfig;

  sim::print_banner("Fig. 6a — Lulesh 2.0 (-s 50), zones/s, cubic node counts",
                    "IPDPS'18, Figure 6a; Linux drop at 1,728 nodes");

  auto app = workloads::make_lulesh(50);
  constexpr int kReps = 5;
  constexpr int kMaxNodes = 1 << 30;

  obs::RunLedger ledger = core::bench_ledger("fig6a_lulesh", "IPDPS'18, Figure 6a", 13);
  core::record_config(ledger, SystemConfig::linux_default());
  core::record_config(ledger, SystemConfig::mckernel());
  core::record_config(ledger, SystemConfig::mos());
  const auto lin = core::scaling_sweep(*app, SystemConfig::linux_default(), kReps, 13,
                                       kMaxNodes, &ledger);
  const auto mck =
      core::scaling_sweep(*app, SystemConfig::mckernel(), kReps, 13, kMaxNodes, &ledger);
  const auto mos =
      core::scaling_sweep(*app, SystemConfig::mos(), kReps, 13, kMaxNodes, &ledger);

  sim::Table table{{"nodes", "McKernel zones/s", "mOS zones/s", "Linux zones/s",
                    "mOS/Linux"}};
  for (std::size_t i = 0; i < lin.size(); ++i) {
    table.add_row({std::to_string(lin[i].nodes), sim::fmt_sci(mck[i].median),
                   sim::fmt_sci(mos[i].median), sim::fmt_sci(lin[i].median),
                   sim::fmt(mos[i].median / lin[i].median, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Scaling-efficiency view: does Linux keep gaining from 1,331 -> 1,728?
  const auto& l_13 = lin[lin.size() - 2];
  const auto& l_17 = lin[lin.size() - 1];
  const auto& m_13 = mos[mos.size() - 2];
  const auto& m_17 = mos[mos.size() - 1];
  std::printf("1331 -> 1728 speedup   Linux %.2fx   mOS %.2fx (ideal 1.30x)\n",
              l_17.median / l_13.median, m_17.median / m_13.median);

  core::record_scaling(ledger, "lulesh.linux", lin);
  core::record_scaling(ledger, "lulesh.mckernel", mck);
  core::record_scaling(ledger, "lulesh.mos", mos);
  ledger.set_gauge("top_step_speedup.linux", l_17.median / l_13.median);
  ledger.set_gauge("top_step_speedup.mos", m_17.median / m_13.median);
  core::emit(ledger);
  return 0;
}
