// Figure 5a: "CCS-QCD scaling as a percentage compared to Linux".
//
// Clover fermion, 4 ranks/node x 32 threads/rank, working set larger than
// MCDRAM. Paper result: McKernel up to 139% of Linux, mOS up to 128%; Linux
// runs from DDR4 only (SNC-4 policy limitation). The McKernel > mOS gap is
// the demand-paging-fallback MCDRAM packing (Section IV).

#include <cstdio>

#include "core/experiment.hpp"
#include "core/obs_glue.hpp"
#include "sim/format.hpp"

int main() {
  using namespace mkos;
  using core::SystemConfig;

  sim::print_banner("Fig. 5a — CCS-QCD, % of Linux median (4 ranks/node, 32 thr)",
                    "IPDPS'18, Figure 5a; paper peaks: McKernel 139%, mOS 128%");

  auto app = workloads::make_ccs_qcd();
  constexpr int kReps = 5;
  constexpr int kMaxNodes = 1 << 30;

  obs::RunLedger ledger = core::bench_ledger("fig5a_ccs_qcd", "IPDPS'18, Figure 5a", 7);
  core::record_config(ledger, SystemConfig::linux_default());
  core::record_config(ledger, SystemConfig::mckernel());
  core::record_config(ledger, SystemConfig::mos());
  const auto lin = core::scaling_sweep(*app, SystemConfig::linux_default(), kReps, 7,
                                       kMaxNodes, &ledger);
  const auto mck =
      core::scaling_sweep(*app, SystemConfig::mckernel(), kReps, 7, kMaxNodes, &ledger);
  const auto mos =
      core::scaling_sweep(*app, SystemConfig::mos(), kReps, 7, kMaxNodes, &ledger);
  const auto mck_rel = core::relative_to(mck, lin);
  const auto mos_rel = core::relative_to(mos, lin);

  sim::Table table{{"nodes", "Linux Mflops/s/node", "McKernel %", "mOS %"}};
  for (std::size_t i = 0; i < lin.size(); ++i) {
    table.add_row({std::to_string(lin[i].nodes), sim::fmt_sci(lin[i].median),
                   sim::fmt_pct(mck_rel[i].ratio), sim::fmt_pct(mos_rel[i].ratio)});
  }
  std::printf("%s\n", table.to_string().c_str());

  double mck_peak = 0;
  double mos_peak = 0;
  for (const auto& p : mck_rel) mck_peak = std::max(mck_peak, p.ratio);
  for (const auto& p : mos_rel) mos_peak = std::max(mos_peak, p.ratio);
  std::printf("peaks     McKernel %s (paper 139%%)   mOS %s (paper 128%%)\n",
              sim::fmt_pct(mck_peak).c_str(), sim::fmt_pct(mos_peak).c_str());

  core::record_scaling(ledger, "ccs_qcd.linux", lin);
  core::record_scaling(ledger, "ccs_qcd.mckernel", mck);
  core::record_scaling(ledger, "ccs_qcd.mos", mos);
  ledger.set_gauge("peak.mckernel_vs_linux", mck_peak);
  ledger.set_gauge("peak.mos_vs_linux", mos_peak);
  core::emit(ledger);
  return 0;
}
