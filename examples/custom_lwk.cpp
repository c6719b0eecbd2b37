// Rapid LWK experimentation: the paper argues a key multi-kernel strength is
// that the small LWK code base lets you "rapidly experiment with features
// targeting specific application needs". This example does exactly that with
// mkos: it sweeps McKernel feature toggles (HPC brk, aggressive heap
// extension, sched_yield hijack, shm premap) on the Lulesh proxy and prints
// the contribution of each.

#include <cstdio>

#include "core/experiment.hpp"
#include "sim/format.hpp"

namespace {

double median_fom(const mkos::core::SystemConfig& config) {
  auto app = mkos::workloads::make_lulesh(50);
  return mkos::core::run_app(*app, config, /*nodes=*/27, /*reps=*/3, /*seed=*/5).median();
}

}  // namespace

int main() {
  using namespace mkos;

  sim::print_banner("mkos custom LWK — McKernel feature toggles on Lulesh (27 nodes)",
                    "Section II-D6: application-specific features");

  core::SystemConfig base = core::SystemConfig::mckernel();
  base.hpc_brk = false;
  const double baseline = median_fom(base);

  sim::Table table{{"configuration", "zones/s", "vs plain McKernel"}};
  table.add_row({"plain (HPC brk off)", sim::fmt(baseline, 0), "100.0%"});

  core::SystemConfig with_brk = base;
  with_brk.hpc_brk = true;
  const double brk_fom = median_fom(with_brk);
  table.add_row({"+ HPC brk()", sim::fmt(brk_fom, 0),
                 sim::fmt_pct(brk_fom / baseline)});

  core::SystemConfig with_yield = with_brk;
  with_yield.mckernel_disable_sched_yield = true;
  const double yield_fom = median_fom(with_yield);
  table.add_row({"+ --disable-sched-yield", sim::fmt(yield_fom, 0),
                 sim::fmt_pct(yield_fom / baseline)});

  core::SystemConfig with_premap = with_yield;
  with_premap.mckernel_mpol_shm_premap = true;
  const double premap_fom = median_fom(with_premap);
  table.add_row({"+ --mpol-shm-premap", sim::fmt(premap_fom, 0),
                 sim::fmt_pct(premap_fom / baseline)});

  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Each toggle maps to a real McKernel/mOS deployment option; because the\n"
      "LWK models are small, adding another experiment is a few lines of C++.\n");
  return 0;
}
