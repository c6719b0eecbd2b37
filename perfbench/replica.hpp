#pragma once
// Outside-in tracing of one campaign pass.
//
// The replica re-runs core::run_once's public call sequence — machine,
// job, App::setup, allocator model, MPI world, App::run, ledger snapshots —
// and core::Campaign::run's serial cache and store reads, with a span
// around each call into a layer. It must produce exactly the cells the
// real engine produces: the harness byte-compares every replica cell
// against Campaign::run's result for the same seed.
//
// Spans stay in memory during the run (no I/O inside the measured loop)
// and are written out once, as TSV, when the run ends. Self time is
// computed afterwards by perfbench/stats.py.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/campaign.hpp"
#include "core/cell_store.hpp"

namespace perfbench {

/// One span per call into a layer. kCell is the per-cell parent; its self
/// time is the replica's own cache/key bookkeeping.
enum class Layer : std::uint8_t {
  kCell,
  kMachine,     ///< SystemConfig::machine (hw topology + cluster)
  kJob,         ///< runtime::Job (kernel boot, lane launch)
  kSetup,       ///< App::setup (memory placement)
  kAllocInit,   ///< alloc::NodeAllocModel construction
  kWorld,       ///< runtime::MpiWorld construction
  kRun,         ///< App::run (heap replay, noise, collectives, alloc churn)
  kAllocDrain,  ///< NodeAllocModel::drain_lanes
  kRecord,      ///< obs::record_* snapshots
  kMerge,       ///< RunLedger::merge of the rep ledgers
  kToJson,      ///< RunLedger::to_json of the cell ledger
  kStoreSave,   ///< CellStore::save
  kStoreLoad,   ///< CellStore::load
};

[[nodiscard]] const char* layer_name(Layer layer);

struct Span {
  std::int32_t parent = -1;  ///< index into the tracer's span list, -1 = root
  Layer layer = Layer::kCell;
  std::int32_t pass = 0;
  std::int32_t cell = -1;    ///< request index within the pass
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  Tracer();

  void set_pass(int pass) { pass_ = pass; }
  /// Opens a span as a child of the innermost open span.
  [[nodiscard]] std::int32_t open(Layer layer, int cell);
  void close(std::int32_t id);

  /// `pass id parent layer cell start_ns end_ns`, one span a line.
  [[nodiscard]] bool write_tsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  int pass_ = 0;
};

/// RAII span; inert when the tracer is null (untraced replica runs).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, Layer layer, int cell)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(layer, cell) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

/// Runs `body` inside a span and returns its result (a prvalue, so
/// non-movable results such as runtime::Job are constructed in place).
template <typename F>
auto traced(Tracer* tracer, Layer layer, int cell, F&& body) -> decltype(body()) {
  const SpanScope scope(tracer, layer, cell);
  return body();
}

/// Serial stand-in for core::Campaign::run over a memory cache and an
/// optional store: the same grid order, keys, dedupe and read-through. The
/// store is read-only here; the harness writes it in a separate step.
class ReplicaCampaign {
 public:
  ReplicaCampaign(Tracer* tracer, mkos::core::CellStore* store)
      : tracer_(tracer), store_(store) {}

  /// `first_cell` numbers this call's cells in the pass's request order.
  [[nodiscard]] std::vector<mkos::core::CellResult> run(
      const mkos::core::CampaignSpec& spec, int first_cell);

  [[nodiscard]] std::uint64_t cells() const { return cells_; }
  [[nodiscard]] std::uint64_t memory_hits() const { return memory_hits_; }
  [[nodiscard]] std::uint64_t reps_simulated() const { return reps_simulated_; }

 private:
  struct Entry {
    mkos::core::CellKey id;
    mkos::core::RunStats stats;
  };

  Tracer* tracer_;
  mkos::core::CellStore* store_;
  std::unordered_map<std::uint64_t, Entry> memory_;
  std::uint64_t cells_ = 0;
  std::uint64_t memory_hits_ = 0;
  std::uint64_t reps_simulated_ = 0;
};

/// Replica of core::run_app(App&, ...) for one cell, traced when `tracer`
/// is non-null. `reps_simulated` (when non-null) counts run_once replicas.
[[nodiscard]] mkos::core::RunStats replica_run_app(
    std::string_view app_name, const mkos::core::SystemConfig& config, int nodes,
    int reps, std::uint64_t seed, Tracer* tracer, int cell,
    std::uint64_t* reps_simulated = nullptr);

}  // namespace perfbench
