// Design-space bench: the multi-kernel triangle of Fig. 1, quantified.
//
// Four points in the space on three workloads that stress different corners:
//   Linux     — full compatibility, the noise/paging costs of Section IV
//   McKernel  — LWK performance, proxy offload, module-level isolation
//   mOS       — LWK performance, thread-migration offload, tight integration
//   FusedOS   — the historical extreme (Section V-C): user-level LWK that
//               offloads *everything*, CNK-grade quiet cores
//
// The pattern the paper's design rationale predicts: FusedOS matches the
// multi-kernels when syscalls are rare (MiniFE at scale — noise is all that
// matters) and falls off a cliff when the performance-sensitive calls the
// multi-kernels keep local dominate (Lulesh's brk churn, LAMMPS' device
// writes).

#include <cstdio>
#include <set>

#include "core/campaign.hpp"
#include "core/obs_glue.hpp"
#include "hw/knl.hpp"
#include "kernel/node.hpp"
#include "sim/format.hpp"

namespace {

using mkos::core::SystemConfig;

}  // namespace

int main() {
  using namespace mkos;

  sim::print_banner("Design space — Linux vs McKernel vs mOS vs FusedOS",
                    "Fig. 1 quantified; FusedOS per Section V-C");

  struct Row {
    const char* label;
    const char* app;  // registry name; the campaign builds one App per task
    int nodes;
  };
  const Row rows[] = {
      {"MiniFE @512 (collectives)", "MiniFE", 512},
      {"Lulesh @27 (brk churn)", "Lulesh2.0", 27},
      {"LAMMPS @512 (device I/O)", "LAMMPS", 512},
  };

  // One campaign per row (the node counts differ); all four OS cells of a
  // row simulate concurrently and the shared cache carries cells across
  // rows should any repeat. MKOS_CELL_STORE=<dir> adds the persistent disk
  // tier: a warm store serves every cell without resimulating.
  sim::ThreadPool pool;
  const auto store = core::CellStore::from_env();
  core::CellCache cache(store.get());
  core::Campaign campaign(pool, cache);

  obs::RunLedger ledger = core::bench_ledger("design_space", "Fig. 1 quantified", 81);

  std::set<std::string> recorded;
  sim::Table table{{"workload", "Linux", "McKernel", "mOS", "FusedOS"}};
  for (const Row& row : rows) {
    core::CampaignSpec spec;
    spec.apps = {row.app};
    spec.configs = {SystemConfig::for_os(kernel::OsKind::kLinux),
                    SystemConfig::for_os(kernel::OsKind::kMcKernel),
                    SystemConfig::for_os(kernel::OsKind::kMos),
                    SystemConfig::for_os(kernel::OsKind::kFusedOs)};
    spec.nodes = {row.nodes};
    spec.reps = 5;
    spec.seed = 81;
    const auto cells = campaign.run(spec);
    for (const core::CellResult& cell : cells) {
      // Dedupe repeated cells by series name, not by from_cache: with a
      // warm disk store every cell is a cache hit yet must still merge.
      const std::string series = std::string(row.app) + "." + cell.config_label +
                                 ".n" + std::to_string(cell.nodes);
      if (!recorded.insert(series).second) continue;
      core::record_run_stats(ledger, series, cell.stats);
    }
    const double lin = cells[0].stats.median();
    table.add_row({row.label, "100.0%", sim::fmt_pct(cells[1].stats.median() / lin),
                   sim::fmt_pct(cells[2].stats.median() / lin),
                   sim::fmt_pct(cells[3].stats.median() / lin)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Where the designs structurally differ: the price of the calls HPC
  // codes issue on the critical path.
  sim::Table lat{{"syscall latency (ns)", "Linux", "McKernel", "mOS", "FusedOS"}};
  std::vector<std::unique_ptr<kernel::Node>> nodes;
  std::vector<kernel::Kernel*> kernels;
  std::uint64_t seed = 90;
  for (const auto os : {kernel::OsKind::kLinux, kernel::OsKind::kMcKernel,
                        kernel::OsKind::kMos, kernel::OsKind::kFusedOs}) {
    kernel::NodeOsConfig cfg;
    cfg.os = os;
    nodes.push_back(std::make_unique<kernel::Node>(hw::knl_snc4_flat(), cfg, seed++));
    kernels.push_back(&nodes.back()->app_kernel());
  }
  for (const auto sys : {kernel::Sys::kBrk, kernel::Sys::kMmap, kernel::Sys::kFutex,
                         kernel::Sys::kSchedYield, kernel::Sys::kOpen,
                         kernel::Sys::kWrite}) {
    std::vector<std::string> row{std::string(kernel::sys_name(sys))};
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
      const sim::TimeNs cost = kernels[ki]->priced(sys);
      ledger.set_gauge("syscall_ns." + std::string(kernels[ki]->name()) + "." +
                           std::string(kernel::sys_name(sys)),
                       static_cast<double>(cost.ns()));
      row.push_back(std::to_string(cost.ns()));
    }
    lat.add_row(std::move(row));
  }
  std::printf("%s\n", lat.to_string().c_str());
  std::printf(
      "FusedOS' user-level LWK keeps the noise win but re-pays the proxy trip\n"
      "on every call — brk/mmap/futex run at offload latency. The multi-\n"
      "kernels close that gap by implementing the performance-sensitive calls\n"
      "inside the LWK and offloading only the compatibility surface.\n");

  core::record_campaign(ledger, campaign.telemetry(), sim::ThreadPool::default_threads(),
                        store.get());
  core::emit(ledger);
  return 0;
}
