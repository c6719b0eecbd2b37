// Ablation D1/D3/D6 (DESIGN.md): memory-management design choices.
//
//  * upfront physical mapping + large pages vs demand paging (D1)
//  * transparent MCDRAM spill vs Linux SNC-4 policies, and quadrant mode (D3)
//  * McKernel demand-paging fallback vs mOS launch partitioning (D6)

#include <cstdio>

#include "core/experiment.hpp"
#include "core/obs_glue.hpp"
#include "sim/format.hpp"

namespace {

/// Record the run into the shared ledger and hand back its median.
double run_cell(mkos::obs::RunLedger& ledger, const std::string& series,
                mkos::workloads::App& app, const mkos::core::SystemConfig& config,
                int nodes, int reps, std::uint64_t seed) {
  const mkos::core::RunStats rs = mkos::core::run_app(app, config, nodes, reps, seed);
  mkos::core::record_config(ledger, config, series);
  mkos::core::record_run_stats(ledger, series, rs);
  return rs.median();
}

}  // namespace

int main() {
  using namespace mkos;
  using core::SystemConfig;

  sim::print_banner("Ablation — memory management design choices (D1/D3/D6)",
                    "DESIGN.md Section 6");

  obs::RunLedger ledger =
      core::bench_ledger("ablation_mem", "DESIGN.md Section 6 (D1/D3/D6)", 51);

  // ---- D1: what does upfront mapping buy on a fault-heavy app? ----------
  // Run from DDR4 (as in Table I) so the comparison isolates the fault
  // mechanics from the MCDRAM-footprint trade-off the HPC heap makes
  // ("it runs out of MCDRAM", Section IV).
  {
    auto app = workloads::make_lulesh(50, /*force_ddr=*/true);
    SystemConfig lin_cfg = SystemConfig::linux_default();
    lin_cfg.lwk_prefer_mcdram = false;
    const double lin = run_cell(ledger, "d1.linux", *app, lin_cfg, 27, 3, 51);
    SystemConfig mck_no_brk = SystemConfig::mckernel();
    mck_no_brk.hpc_brk = false;
    mck_no_brk.lwk_prefer_mcdram = false;
    const double lwk_demand =
        run_cell(ledger, "d1.mckernel_demand", *app, mck_no_brk, 27, 3, 51);
    SystemConfig mck_full = SystemConfig::mckernel();
    mck_full.lwk_prefer_mcdram = false;
    const double lwk_full =
        run_cell(ledger, "d1.mckernel_hpc_brk", *app, mck_full, 27, 3, 51);
    sim::Table t{{"D1: Lulesh @27 nodes (DDR4)", "zones/s", "vs Linux"}};
    t.add_row({"Linux (demand paging)", sim::fmt(lin, 0), "100.0%"});
    t.add_row({"McKernel, demand-paged heap", sim::fmt(lwk_demand, 0),
               sim::fmt_pct(lwk_demand / lin)});
    t.add_row({"McKernel, HPC brk()", sim::fmt(lwk_full, 0),
               sim::fmt_pct(lwk_full / lin)});
    std::printf("%s\n", t.to_string().c_str());
  }

  // ---- D3: CCS-QCD across memory modes -----------------------------------
  {
    auto app = workloads::make_ccs_qcd();
    const double snc4_linux = run_cell(ledger, "d3.linux_snc4", *app,
                                       SystemConfig::linux_default(), 8, 3, 52);
    SystemConfig quad_linux = SystemConfig::linux_default();
    quad_linux.mem_mode = core::MemMode::kQuadrantFlat;
    const double quad = run_cell(ledger, "d3.linux_quadrant", *app, quad_linux, 8, 3, 52);
    const double mck = run_cell(ledger, "d3.mckernel_snc4", *app,
                                SystemConfig::mckernel(), 8, 3, 52);
    sim::Table t{{"D3: CCS-QCD @8 nodes", "Mflops/s/node", "vs Linux SNC-4"}};
    t.add_row({"Linux SNC-4 (DDR4 only)", sim::fmt_sci(snc4_linux), "100.0%"});
    t.add_row({"Linux quadrant (numactl -p works)", sim::fmt_sci(quad),
               sim::fmt_pct(quad / snc4_linux)});
    t.add_row({"McKernel SNC-4 (transparent spill)", sim::fmt_sci(mck),
               sim::fmt_pct(mck / snc4_linux)});
    std::printf("%s\n", t.to_string().c_str());
  }

  // ---- D6: fallback vs rigid launch partitioning --------------------------
  {
    auto app = workloads::make_ccs_qcd();
    const double mck = run_cell(ledger, "d6.mckernel_fallback", *app,
                                SystemConfig::mckernel(), 8, 3, 53);
    SystemConfig mck_no_fb = SystemConfig::mckernel();
    mck_no_fb.mckernel_demand_fallback = false;
    const double no_fb = run_cell(ledger, "d6.mckernel_no_fallback", *app, mck_no_fb, 8, 3, 53);
    SystemConfig mos_quota = SystemConfig::mos();
    const double mos = run_cell(ledger, "d6.mos_quota", *app, mos_quota, 8, 3, 53);
    SystemConfig mos_no_quota = SystemConfig::mos();
    mos_no_quota.mos_partition_mcdram = false;
    const double mos_nq = run_cell(ledger, "d6.mos_no_quota", *app, mos_no_quota, 8, 3, 53);
    sim::Table t{{"D6: CCS-QCD @8 nodes", "Mflops/s/node", "vs McKernel"}};
    t.add_row({"McKernel (demand fallback)", sim::fmt_sci(mck), "100.0%"});
    t.add_row({"McKernel, fallback off", sim::fmt_sci(no_fb), sim::fmt_pct(no_fb / mck)});
    t.add_row({"mOS (per-rank MCDRAM quota)", sim::fmt_sci(mos), sim::fmt_pct(mos / mck)});
    t.add_row({"mOS, quota off", sim::fmt_sci(mos_nq), sim::fmt_pct(mos_nq / mck)});
    std::printf("%s\n", t.to_string().c_str());
  }

  core::emit(ledger);
  return 0;
}
