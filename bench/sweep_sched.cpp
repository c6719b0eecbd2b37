// Scheduler sweep: FIFO pool vs work-stealing pool on a skewed cost mix.
//
// Section 1 (gated): a synthetic skewed task mix driven through the exact
// production fan-out path (sim::parallel_for_weighted -> TaskPool): a
// broad field of light tasks submitted first and one dominant straggler
// last — grid order, the FIFO worst case. The mix is sized so LPT's bound
// is tight (light work ~= 7x the straggler on 8 workers): FIFO starts the
// straggler only after draining the light field (makespan ~= W_light/8 +
// h) while LPT placement starts it immediately (makespan ~= h), a ~1.8x
// gap. CI gates `host.sched_speedup >= 1.3` on the MODELED makespan
// ratio, not wall clock: a CI container may expose a single CPU, where
// eight spinning workers serialize and every schedule takes total-work
// time — wall clock cannot distinguish schedulers there. The FIFO model
// is the greedy list schedule of the submission order (exactly what the
// shared-queue pool implements: the next free worker takes the next
// queued task); the work-stealing model is taken from the REAL pool run —
// max per-worker executed cost, i.e. `imbalance x mean` from
// sched_telemetry() — so the gate still certifies production placement.
// Wall clocks are reported alongside, informationally.
//
// Section 2: a real campaign grid with genuine cost skew (Lulesh 2.0 on
// Linux pays the brk-churn price — tens of ms — while LWK cells run in
// ~1ms) timed on both pools, asserting the pools produce byte-identical
// cell statistics (the positional-seed determinism contract), and printing
// measured cell cost against the placement model's estimate.
//
//   MKOS_SWEEP_SCHED_REPS    timing repetitions, min taken (default 3)
//   MKOS_SWEEP_SCHED_THREADS pool width for the timed runs (default 8)
//   MKOS_SWEEP_SCHED_CELL_REPS  per-cell simulation reps (default 2)

#include <chrono>
#include <cstdio>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/obs_glue.hpp"
#include "sim/env.hpp"
#include "sim/format.hpp"
#include "sim/work_stealing_pool.hpp"
#include "workloads/app.hpp"

namespace {

using namespace mkos;
using core::SystemConfig;

/// Real-cell grid with genuine skew: Lulesh 2.0 cells on the Linux config
/// simulate the paper's brk churn at full price while every LWK cell is
/// light; app-major grid order puts the whole Lulesh block last.
core::CampaignSpec cell_spec(int cell_reps) {
  core::CampaignSpec spec;
  spec.apps = {"MiniFE", "Lulesh2.0"};
  spec.configs = {SystemConfig::linux_default(), SystemConfig::mckernel(),
                  SystemConfig::mos(),
                  SystemConfig::for_os(kernel::OsKind::kFusedOs)};
  spec.nodes = {16, 128, 512};  // both apps accept these (MiniFE needs >= 16)
  spec.reps = cell_reps;
  spec.seed = 7;
  return spec;
}

/// Synthetic skewed cost mix, in the unit of spin() below. Light field
/// first, one dominant straggler last — submission order is grid order, so
/// a FIFO pool starts the straggler when the queue is already drained.
/// Sized for the LPT bound to be tight at 8 workers: W_light = 112x13 +
/// 6x37 = 1678 ~= 7x the 240-unit straggler.
std::vector<double> skewed_costs() {
  std::vector<double> costs(112, 13.0);
  costs.insert(costs.end(), 6, 37.0);  // a mid-weight shelf, for realism
  costs.push_back(240.0);              // the straggler, submitted last
  return costs;
}

/// Greedy list-schedule makespan of `costs` taken in index order on
/// `workers` identical virtual workers: the next free worker takes the
/// next queued task. This is exactly the schedule a shared-FIFO pool
/// produces on a machine with `workers` real cores, computed in virtual
/// time so the answer does not depend on the CI host's core count.
double list_schedule_makespan(const std::vector<double>& costs, int workers) {
  std::priority_queue<double, std::vector<double>, std::greater<>> free_at;
  for (int w = 0; w < workers; ++w) free_at.push(0.0);
  double makespan = 0.0;
  for (const double c : costs) {
    const double start = free_at.top();
    free_at.pop();
    free_at.push(start + c);
    makespan = std::max(makespan, start + c);
  }
  return makespan;
}

/// Deterministic integer spin proportional to `units`; returns a value the
/// caller must consume so the loop cannot be optimized away. The absolute
/// per-unit duration is machine-dependent; only the ratio between task
/// durations matters to the scheduling comparison.
std::uint64_t spin(double units) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto iters = static_cast<std::uint64_t>(units * 60000.0);
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  // mkos-lint: allow(wall-clock) — host-side telemetry only: this bench
  // times the scheduler itself; no simulated result depends on it.
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Makespan of the synthetic mix on `pool`, via the campaign's own
/// weighted fan-out (LPT placement iff the pool is cost-aware).
double timed_synthetic(sim::TaskPool& pool, const std::vector<double>& costs,
                       std::vector<std::uint64_t>* sink) {
  // mkos-lint: allow(wall-clock) — host telemetry: scheduler makespan.
  const auto t0 = std::chrono::steady_clock::now();
  sim::parallel_for_weighted(pool, costs, [&](std::size_t i) {
    (*sink)[i] = spin(costs[i]);
  });
  return seconds_since(t0);
}

/// Run the cell grid on `pool` with a cold cache; returns wall seconds, the
/// cell results (deterministic grid order) and, when asked, the campaign
/// telemetry.
double timed_cells(sim::TaskPool& pool, const core::CampaignSpec& spec,
                   std::vector<core::CellResult>* out,
                   core::CampaignTelemetry* telemetry = nullptr) {
  core::CellCache cache;
  core::Campaign campaign(pool, cache);
  // mkos-lint: allow(wall-clock) — host telemetry: campaign makespan.
  const auto t0 = std::chrono::steady_clock::now();
  *out = campaign.run(spec);
  const double s = seconds_since(t0);
  if (telemetry != nullptr) *telemetry = campaign.telemetry();
  return s;
}

/// Cell statistics must not depend on the pool: compare every sample of
/// every cell across two runs.
bool same_results(const std::vector<core::CellResult>& a,
                  const std::vector<core::CellResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].app != b[i].app || a[i].nodes != b[i].nodes ||
        a[i].config_fp != b[i].config_fp) {
      return false;
    }
    if (a[i].stats.fom.samples() != b[i].stats.fom.samples()) return false;
  }
  return true;
}

}  // namespace

int main() {
  const int reps = sim::env_int("MKOS_SWEEP_SCHED_REPS", 3, 1, 100);
  const int threads = sim::env_int("MKOS_SWEEP_SCHED_THREADS", 8, 2, 256);
  const int cell_reps = sim::env_int("MKOS_SWEEP_SCHED_CELL_REPS", 2, 1, 100);
  const core::CampaignSpec spec = cell_spec(cell_reps);

  sim::print_banner("Scheduler sweep — FIFO vs work stealing",
                    "campaign engine; skewed cost mix");

  // --- Section 1 (gated): synthetic skewed mix --------------------------
  const std::vector<double> costs = skewed_costs();
  std::vector<std::uint64_t> sink(costs.size());
  double fifo_s = 1e300;
  double wsp_s = 1e300;
  sim::TaskPool::SchedTelemetry sched{};
  for (int r = 0; r < reps; ++r) {
    {
      sim::ThreadPool pool(threads);
      fifo_s = std::min(fifo_s, timed_synthetic(pool, costs, &sink));
    }
    {
      sim::WorkStealingPool pool(threads);
      wsp_s = std::min(wsp_s, timed_synthetic(pool, costs, &sink));
      sched = pool.sched_telemetry();
    }
  }
  std::uint64_t sink_sum = 0;
  for (const std::uint64_t v : sink) sink_sum += v;  // consume the spin results

  // The gated comparison, in virtual time (core-count independent): FIFO =
  // greedy list schedule of the submission order; WSP = the real pool's
  // measured executed-cost peak (imbalance x mean). LPT's makespan is
  // bounded below by the straggler, so the ratio is ~1.8 by construction
  // and collapses toward 1.0 if cost-model placement regresses.
  double total_cost = 0.0;
  for (const double c : costs) total_cost += c;
  const double fifo_model = list_schedule_makespan(costs, threads);
  const double wsp_model = sched.imbalance * (total_cost / threads);
  const double speedup = wsp_model > 0.0 ? fifo_model / wsp_model : 0.0;
  sim::Table t1{{"pool (" + std::to_string(threads) + " threads)",
                 "makespan (cost units)", "speedup",
                 "wall s (min of " + std::to_string(reps) + ")"}};
  t1.add_row({"FIFO ThreadPool", sim::fmt(fifo_model, 1), "1.00x",
              sim::fmt(fifo_s, 3)});
  t1.add_row({"WorkStealingPool (LPT)", sim::fmt(wsp_model, 1),
              sim::fmt(speedup, 2) + "x", sim::fmt(wsp_s, 3)});
  std::printf("%s\n", t1.to_string().c_str());
  std::printf("synthetic mix: %zu tasks, %.0f cost units, straggler last; last WSP "
              "run: %llu local pops, %llu steals, %llu failed scans, imbalance "
              "%.3f (sink %llx)\n\n",
              costs.size(), total_cost,
              static_cast<unsigned long long>(sched.local_pops),
              static_cast<unsigned long long>(sched.steals),
              static_cast<unsigned long long>(sched.steal_fails), sched.imbalance,
              static_cast<unsigned long long>(sink_sum));

  // --- Section 2: real cells, determinism across pools ------------------
  std::vector<core::CellResult> fifo_cells;
  std::vector<core::CellResult> wsp_cells;
  core::CampaignTelemetry wsp_telemetry;
  double fifo_cells_s = 0.0;
  double wsp_cells_s = 0.0;
  {
    sim::ThreadPool pool(threads);
    fifo_cells_s = timed_cells(pool, spec, &fifo_cells);
  }
  {
    sim::WorkStealingPool pool(threads);
    wsp_cells_s = timed_cells(pool, spec, &wsp_cells, &wsp_telemetry);
  }
  if (!same_results(fifo_cells, wsp_cells)) {
    std::fprintf(stderr, "FATAL: pool choice changed cell statistics\n");
    return 1;
  }
  // Measured cell cost vs the placement model (workloads::app_cost_weight):
  // the Linux column is where Lulesh's brk churn bites.
  sim::Table tc{{"cell (Linux config)", "wall ms", "model cost"}};
  for (const core::CellResult& c : fifo_cells) {
    if (c.config_label != "Linux" || c.from_cache) continue;
    tc.add_row({c.app + " @" + std::to_string(c.nodes), sim::fmt(c.wall_ms, 1),
                sim::fmt(static_cast<double>(c.nodes) * cell_reps *
                             workloads::app_cost_weight(c.app),
                         0)});
  }
  std::printf("%s\n", tc.to_string().c_str());
  std::printf("real cells (%zu): FIFO %.3f s, WSP %.3f s, statistics identical\n\n",
              fifo_cells.size(), fifo_cells_s, wsp_cells_s);

  // --- Ledger ------------------------------------------------------------
  obs::RunLedger ledger =
      core::bench_ledger("sweep_sched", "campaign scheduler microbenchmark", 7);
  ledger.set_meta("cell_reps", std::to_string(cell_reps));
  ledger.set_meta("timing_reps", std::to_string(reps));
  core::record_campaign(ledger, wsp_telemetry, threads);
  ledger.set_host("wall_s_fifo", sim::json_number(fifo_s));
  ledger.set_host("wall_s_wsp", sim::json_number(wsp_s));
  ledger.set_host("makespan_fifo_model", sim::json_number(fifo_model));
  ledger.set_host("makespan_wsp_model", sim::json_number(wsp_model));
  ledger.set_host("sched_speedup", sim::json_number(speedup));
  ledger.set_host("wall_s_fifo_cells", sim::json_number(fifo_cells_s));
  ledger.set_host("wall_s_wsp_cells", sim::json_number(wsp_cells_s));
  core::emit(ledger);
  return 0;
}
