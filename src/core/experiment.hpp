#pragma once
// Experiment driver: run an application under a system configuration at a
// node count, repeated with independent noise seeds, reporting the median
// with min/max error bars — the paper's methodology ("We ran most
// applications five times and show the median").
//
// Seeds are positional: every repetition's RNG streams derive from
// hash(app name, SystemConfig::fingerprint(), nodes, campaign seed, rep),
// never from execution order. A cell's statistics are therefore the same
// whichever thread runs it (core::Campaign fans cells out over a pool), and
// the campaign cache can key results by the same fingerprint.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "obs/ledger.hpp"
#include "sim/stats.hpp"
#include "workloads/app.hpp"

namespace mkos::core {

struct RunStats {
  sim::Summary fom;
  std::string unit;
  /// Telemetry of the cell's repetitions, accumulated in rep order
  /// (positional, so a cell's ledger is independent of scheduling).
  obs::RunLedger ledger;

  [[nodiscard]] double median() const { return fom.median(); }
  [[nodiscard]] double min() const { return fom.min(); }
  [[nodiscard]] double max() const { return fom.max(); }
};

/// Stable seed base for one (app, config, nodes) cell under a campaign seed.
/// Identical inputs give identical cells on every run, thread count, and
/// sweep order.
[[nodiscard]] std::uint64_t cell_fingerprint(std::string_view app_name,
                                             const SystemConfig& config, int nodes,
                                             std::uint64_t seed);

/// Seed for one RNG stream of repetition `rep` within a cell. `stream`
/// separates independent consumers (job/machine noise vs MPI world).
[[nodiscard]] std::uint64_t rep_seed(std::uint64_t cell_fp, int rep,
                                     std::uint64_t stream = 0);

/// Repetition `rep` of the cell `cell_fp` (see cell_fingerprint): a fresh
/// machine, job and MPI world seeded from rep_seed(cell_fp, rep, ...). Its
/// telemetry is recorded into `ledger`. Thread-safe as long as neither `app`
/// nor `ledger` is shared across concurrent calls.
[[nodiscard]] workloads::AppResult run_once(workloads::App& app, const SystemConfig& config,
                                            int nodes, std::uint64_t cell_fp, int rep,
                                            obs::RunLedger& ledger);

/// One (app, config, nodes) cell: `reps` independent runs in rep order,
/// each recorded straight into the cell's ledger. Equal to merging per-rep
/// run_once ledgers in rep order.
[[nodiscard]] RunStats run_app(workloads::App& app, const SystemConfig& config,
                               int nodes, int reps, std::uint64_t seed);

struct ScalingPoint {
  int nodes = 0;
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Full node-count sweep at the app's own counts (capped at `max_nodes`).
/// When `ledger` is non-null, every repetition's telemetry is merged into it
/// in (node, rep) order.
[[nodiscard]] std::vector<ScalingPoint> scaling_sweep(workloads::App& app,
                                                      const SystemConfig& config,
                                                      int reps, std::uint64_t seed,
                                                      int max_nodes = 1 << 30,
                                                      obs::RunLedger* ledger = nullptr);

/// Median relative performance vs a baseline sweep (same node counts).
struct RelativePoint {
  int nodes = 0;
  double ratio = 0.0;  ///< config median / baseline median
};
[[nodiscard]] std::vector<RelativePoint> relative_to(
    const std::vector<ScalingPoint>& subject, const std::vector<ScalingPoint>& baseline);

/// The paper's headline aggregation over a set of relative curves:
/// "a median performance improvement of 9% with some applications as high
/// as 280%". Returns {median ratio, best ratio} over all (app, node) cells.
struct Headline {
  double median_ratio = 0.0;
  double best_ratio = 0.0;
};
[[nodiscard]] Headline headline(const std::vector<std::vector<RelativePoint>>& curves);

}  // namespace mkos::core
