#include "core/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "alloc/model.hpp"
#include "obs/snapshots.hpp"
#include "runtime/resilience.hpp"
#include "sim/contracts.hpp"

namespace mkos::core {

namespace {

// splitmix64 finalizer: cheap avalanche so sequential inputs (rep indices,
// node counts) land on uncorrelated streams.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// One repetition's figure of merit plus its telemetry snapshot.
struct RepOutcome {
  workloads::AppResult result;
  obs::RunLedger ledger;
};

/// One repetition of a cell with positionally derived seeds; its telemetry
/// is recorded into `ledger`. Thread-safe as long as neither `app` nor
/// `ledger` is shared across concurrent calls.
workloads::AppResult run_once(workloads::App& app, const SystemConfig& config, int nodes,
                              std::uint64_t cell_fp, int rep, obs::RunLedger& ledger) {
  // Fresh machine per repetition: heap state, placements and partition
  // fragmentation must not leak across runs.
  const runtime::Machine machine = config.machine(nodes);
  runtime::Job job(machine, app.spec(nodes), rep_seed(cell_fp, rep, /*stream=*/0));
  // Fault plan on its own positional stream, constructed before setup so
  // MCDRAM denial hooks see placement-time allocations. Declared after `job`
  // (destroyed first: the dtor detaches the hooks it installed).
  std::optional<runtime::ResilienceManager> resil;
  if (config.resilience.enabled()) {
    resil.emplace(config.resilience, job, rep_seed(cell_fp, rep, /*stream=*/2));
    resil->install_memory_faults();
  }
  app.setup(job);
  // Allocator model after setup (its vmem imports must not race placement's
  // carving for the same DDR4 extents) and before the world attaches to it.
  // Draws no randomness: churn costs are a pure function of allocator state.
  std::optional<alloc::NodeAllocModel> alloc_model;
  if (config.alloc.enabled()) {
    alloc_model.emplace(job.node().topo(), job.node().phys(), config.os,
                        config.alloc, job.lane_count());
  }
  runtime::MpiWorld world(job, rep_seed(cell_fp, rep, /*stream=*/1));
  if (resil) world.attach_resilience(&*resil);
  if (alloc_model) world.attach_alloc(&*alloc_model);
  workloads::AppResult result = app.run(job, world);
  if (alloc_model) alloc_model->drain_lanes();
  // Snapshot after the run so heap/kernel/world counters reflect the whole
  // repetition.
  obs::record_world(ledger, world);
  obs::record_job(ledger, job);
  if (resil) obs::record_faults(ledger, resil->counters());
  if (alloc_model) obs::record_alloc(ledger, alloc_model->counters());
  ledger.observe("run.fom", result.fom);
  return result;
}

std::vector<int> capped_node_counts(const workloads::App& app, int max_nodes) {
  std::vector<int> counts;
  for (const int nodes : app.node_counts()) {
    if (nodes <= max_nodes) counts.push_back(nodes);
  }
  return counts;
}

std::unique_ptr<workloads::App> registry_app(std::string_view name) {
  auto app = workloads::make_app(name);
  MKOS_EXPECTS(app != nullptr);  // pooled overloads need a registry name
  return app;
}

RunStats collect(const std::vector<RepOutcome>& outcomes) {
  RunStats rs;
  for (const RepOutcome& o : outcomes) {
    rs.fom.add(o.result.fom);
    rs.unit = o.result.unit;
    rs.ledger.merge(o.ledger);  // rep order: positional, thread-count free
  }
  return rs;
}

}  // namespace

std::uint64_t cell_fingerprint(std::string_view app_name, const SystemConfig& config,
                               int nodes, std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : app_name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  h = mix64(h ^ config.fingerprint());
  h = mix64(h ^ static_cast<std::uint64_t>(nodes));
  return mix64(h ^ seed);
}

std::uint64_t rep_seed(std::uint64_t cell_fp, int rep, std::uint64_t stream) {
  return mix64(cell_fp + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(rep + 1) +
               (stream << 32));
}

RunStats run_app(workloads::App& app, const SystemConfig& config, int nodes, int reps,
                 std::uint64_t seed) {
  MKOS_EXPECTS(reps >= 1);
  const std::uint64_t fp = cell_fingerprint(app.name(), config, nodes, seed);
  // Every rep records straight into the cell's ledger. That equals the
  // pooled overloads' positional merge of per-rep ledgers: counters add,
  // gauges overwrite, summaries and histograms accumulate in rep order,
  // and a name first recorded by rep k lands after rep 0..k-1's names —
  // exactly where merging rep k's ledger would append it.
  RunStats rs;
  for (int rep = 0; rep < reps; ++rep) {
    const workloads::AppResult r = run_once(app, config, nodes, fp, rep, rs.ledger);
    rs.fom.add(r.fom);
    rs.unit = r.unit;
  }
  return rs;
}

RunStats run_app(std::string_view app_name, const SystemConfig& config, int nodes,
                 int reps, std::uint64_t seed, sim::TaskPool& pool) {
  MKOS_EXPECTS(reps >= 1);
  registry_app(app_name);  // fail fast on unknown names, before fan-out
  const std::uint64_t fp = cell_fingerprint(app_name, config, nodes, seed);
  std::vector<RepOutcome> outcomes(static_cast<std::size_t>(reps));
  sim::parallel_for(pool, static_cast<std::size_t>(reps), [&](std::size_t rep) {
    // Own App per task: proxies keep per-run scratch, and sharing one across
    // threads would race setup() against run().
    const auto app = registry_app(app_name);
    RepOutcome& out = outcomes[rep];
    out.result = run_once(*app, config, nodes, fp, static_cast<int>(rep), out.ledger);
  });
  return collect(outcomes);
}

std::vector<ScalingPoint> scaling_sweep(workloads::App& app, const SystemConfig& config,
                                        int reps, std::uint64_t seed, int max_nodes,
                                        obs::RunLedger* ledger) {
  std::vector<ScalingPoint> out;
  for (const int nodes : capped_node_counts(app, max_nodes)) {
    const RunStats rs = run_app(app, config, nodes, reps, seed);
    if (ledger != nullptr) ledger->merge(rs.ledger);
    out.push_back(ScalingPoint{nodes, rs.median(), rs.min(), rs.max()});
  }
  return out;
}

std::vector<ScalingPoint> scaling_sweep(std::string_view app_name,
                                        const SystemConfig& config, int reps,
                                        std::uint64_t seed, sim::TaskPool& pool,
                                        int max_nodes, obs::RunLedger* ledger) {
  MKOS_EXPECTS(reps >= 1);
  const auto probe = registry_app(app_name);
  const std::vector<int> counts = capped_node_counts(*probe, max_nodes);

  // Flatten to (node, rep) tasks for load balance: large-node cells dominate
  // wall time and would serialize a per-node fan-out's tail.
  std::vector<std::vector<RepOutcome>> outcomes(counts.size());
  for (auto& cell : outcomes) cell.resize(static_cast<std::size_t>(reps));
  sim::parallel_for(pool, counts.size() * static_cast<std::size_t>(reps),
                    [&](std::size_t task) {
                      const std::size_t ci = task / static_cast<std::size_t>(reps);
                      const int rep = static_cast<int>(task % static_cast<std::size_t>(reps));
                      const std::uint64_t fp =
                          cell_fingerprint(app_name, config, counts[ci], seed);
                      const auto app = registry_app(app_name);
                      RepOutcome& out = outcomes[ci][static_cast<std::size_t>(rep)];
                      out.result = run_once(*app, config, counts[ci], fp, rep, out.ledger);
                    });

  std::vector<ScalingPoint> out;
  out.reserve(counts.size());
  for (std::size_t ci = 0; ci < counts.size(); ++ci) {
    const RunStats rs = collect(outcomes[ci]);
    // Merge after collect so the ledger accumulates in (node, rep) order —
    // identical to the serial overload regardless of task scheduling.
    if (ledger != nullptr) ledger->merge(rs.ledger);
    out.push_back(ScalingPoint{counts[ci], rs.median(), rs.min(), rs.max()});
  }
  return out;
}

std::vector<RelativePoint> relative_to(const std::vector<ScalingPoint>& subject,
                                       const std::vector<ScalingPoint>& baseline) {
  std::vector<RelativePoint> out;
  for (const auto& s : subject) {
    const auto it = std::find_if(baseline.begin(), baseline.end(),
                                 [&](const ScalingPoint& b) { return b.nodes == s.nodes; });
    // A degenerate baseline (zero, negative, NaN or infinite median) would
    // poison every downstream ratio and the headline(); drop the point.
    if (it == baseline.end() || !std::isfinite(it->median) || it->median <= 0.0) continue;
    out.push_back(RelativePoint{s.nodes, s.median / it->median});
  }
  return out;
}

Headline headline(const std::vector<std::vector<RelativePoint>>& curves) {
  sim::Summary all;
  for (const auto& curve : curves) {
    for (const auto& p : curve) all.add(p.ratio);
  }
  Headline h;
  if (!all.empty()) {
    h.median_ratio = all.median();
    h.best_ratio = all.max();
  }
  return h;
}

}  // namespace mkos::core
