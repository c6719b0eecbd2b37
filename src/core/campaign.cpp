#include "core/campaign.hpp"

#include <chrono>

#include "sim/contracts.hpp"
#include "sim/format.hpp"

namespace mkos::core {

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   since)
      .count();
}

}  // namespace

std::optional<RunStats> CellCache::lookup(std::uint64_t key, const CellKey& id,
                                          bool* from_disk) {
  if (from_disk != nullptr) *from_disk = false;
  {
    const sim::MutexLock lock(mu_);
    const auto it = cells_.find(key);
    if (it != cells_.end()) {
      if (it->second.id == id) {
        ++hits_;
        return it->second.stats;
      }
      // Hash collision: the slot holds a different cell. Do not serve it —
      // fall through to the disk tier (which verifies the stored key
      // itself) and, failing that, report a miss so the caller recomputes.
      ++collisions_;
    }
  }
  if (store_ != nullptr) {
    if (auto loaded = store_->load(key, id)) {
      {
        const sim::MutexLock lock(mu_);
        cells_.insert_or_assign(key, Entry{id, *loaded});
        ++hits_;
      }
      if (from_disk != nullptr) *from_disk = true;
      return loaded;
    }
  }
  const sim::MutexLock lock(mu_);
  ++misses_;
  return std::nullopt;
}

void CellCache::store(std::uint64_t key, const CellKey& id, const RunStats& stats) {
  {
    const sim::MutexLock lock(mu_);
    cells_.insert_or_assign(key, Entry{id, stats});
  }
  // Disk write-through happens outside the cache mutex: serialization and
  // fsync must not serialize other workers' lookups.
  if (store_ != nullptr) (void)store_->save(key, id, stats);
}

bool CellCache::contains(std::uint64_t key, const CellKey& id) {
  {
    const sim::MutexLock lock(mu_);
    const auto it = cells_.find(key);
    if (it != cells_.end() && it->second.id == id) return true;
  }
  return store_ != nullptr && store_->contains(key, id);
}

void CellCache::clear() {
  const sim::MutexLock lock(mu_);
  cells_.clear();
}

std::size_t CellCache::size() const {
  const sim::MutexLock lock(mu_);
  return cells_.size();
}

std::uint64_t CellCache::hits() const {
  const sim::MutexLock lock(mu_);
  return hits_;
}

std::uint64_t CellCache::misses() const {
  const sim::MutexLock lock(mu_);
  return misses_;
}

std::uint64_t CellCache::collisions() const {
  const sim::MutexLock lock(mu_);
  return collisions_;
}

std::uint64_t cell_cache_key(std::string_view app_name, const SystemConfig& config,
                             int nodes, int reps, std::uint64_t seed) {
  // Reuse the seed-derivation hash with a stream tag far outside the rep
  // range, folding `reps` in: same cell, different rep count, different key.
  return rep_seed(cell_fingerprint(app_name, config, nodes, seed),
                  /*rep=*/reps, /*stream=*/0xCAC4EULL);
}

Campaign::Campaign(sim::TaskPool& pool, CellCache& cache)
    : pool_(pool), cache_(cache) {}

std::vector<CellResult> Campaign::run(const CampaignSpec& spec) {
  MKOS_EXPECTS(spec.reps >= 1);
  const auto started = std::chrono::steady_clock::now();
  const auto sched0 = pool_.sched_telemetry();

  // Enumerate the grid in deterministic order.
  struct Cell {
    std::size_t result_index;
    std::string app;
    const SystemConfig* config;
    int nodes;
    std::uint64_t key;
    CellKey id;
  };
  std::vector<CellResult> results;
  std::vector<Cell> grid;
  for (const std::string& app_name : spec.apps) {
    const auto probe = workloads::make_app(app_name);
    MKOS_EXPECTS(probe != nullptr);
    std::vector<int> counts = spec.nodes;
    if (counts.empty()) counts = probe->node_counts();
    for (const SystemConfig& config : spec.configs) {
      const std::string config_digest = config.digest();
      for (const int nodes : counts) {
        if (nodes > spec.max_nodes) continue;
        const std::uint64_t key =
            cell_cache_key(app_name, config, nodes, spec.reps, spec.seed);
        grid.push_back(Cell{results.size(), app_name, &config, nodes, key,
                            CellKey{app_name, config_digest, nodes, spec.reps,
                                    spec.seed}});
        results.push_back(CellResult{app_name, config.label(), config.fingerprint(),
                                     nodes, RunStats{}, false, 0.0});
      }
    }
  }

  // Audit: each cell owns a distinct results slot, assigned in grid order —
  // a collision would let parallel workers cross-write each other's results.
  MKOS_AUDIT([&] {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (grid[i].result_index >= results.size()) return false;
      if (i > 0 && grid[i].result_index <= grid[i - 1].result_index) return false;
    }
    return true;
  }());

  // Resolve cache hits up front and dedupe identical cells within this run:
  // the first occurrence of a key simulates, later ones are cache hits by
  // construction (their results are copied after the fan-out completes).
  // Telemetry splits hits by tier: memory hits and in-run dups are a pure
  // function of the request sequence (deterministic counter), disk-store
  // hits depend on what previous processes left behind (host state).
  std::vector<const Cell*> to_simulate;
  std::unordered_map<std::uint64_t, std::size_t> first_occurrence;
  std::vector<std::pair<std::size_t, std::size_t>> duplicates;  // (dst, src) indices
  std::uint64_t memory_hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t skipped = 0;
  for (const Cell& cell : grid) {
    if (spec.resume && cache_.contains(cell.key, cell.id)) {
      results[cell.result_index].skipped = true;
      ++skipped;
      continue;
    }
    bool from_disk = false;
    if (const auto cached = cache_.lookup(cell.key, cell.id, &from_disk)) {
      results[cell.result_index].stats = *cached;
      results[cell.result_index].from_cache = true;
      ++(from_disk ? disk_hits : memory_hits);
      continue;
    }
    const auto [it, inserted] = first_occurrence.try_emplace(cell.key, cell.result_index);
    if (inserted) {
      to_simulate.push_back(&cell);
    } else {
      duplicates.emplace_back(cell.result_index, it->second);
      results[cell.result_index].from_cache = true;
      ++memory_hits;
    }
  }

  // Fan-out. Costs feed cost-aware pools (LPT placement of the skewed
  // tail); FIFO pools keep plain submission order.
  std::vector<double> costs;
  costs.reserve(to_simulate.size());
  for (const Cell* cell : to_simulate) {
    costs.push_back(static_cast<double>(cell->nodes) * static_cast<double>(spec.reps) *
                    workloads::app_cost_weight(cell->app));
  }
  sim::parallel_for_weighted(pool_, costs, [&](std::size_t i) {
    const Cell& cell = *to_simulate[i];
    CellResult& out = results[cell.result_index];
    const auto cell_started = std::chrono::steady_clock::now();
    // Each task owns its App: no simulator state crosses threads.
    const auto app = workloads::make_app(cell.app);
    out.stats = run_app(*app, *cell.config, cell.nodes, spec.reps, spec.seed);
    out.wall_ms = elapsed_ms(cell_started);
    cache_.store(cell.key, cell.id, out.stats);
  });

  for (const auto& [dst, src] : duplicates) results[dst].stats = results[src].stats;

  telemetry_.cells += grid.size();
  telemetry_.cache_hits += memory_hits;
  telemetry_.store_hits += disk_hits;
  telemetry_.skipped += skipped;
  telemetry_.wall_seconds += elapsed_ms(started) / 1e3;
  for (const Cell* cell : to_simulate) {
    telemetry_.cell_wall_ms.add(results[cell->result_index].wall_ms);
  }
  const auto sched1 = pool_.sched_telemetry();
  if (sched1.active) {
    telemetry_.sched_active = true;
    telemetry_.sched_steals += sched1.steals - sched0.steals;
    telemetry_.sched_steal_fails += sched1.steal_fails - sched0.steal_fails;
    telemetry_.sched_local_pops += sched1.local_pops - sched0.local_pops;
    telemetry_.sched_imbalance = sched1.imbalance;
  }
  return results;
}

std::string describe(const CampaignTelemetry& t, int threads) {
  sim::Table table{{"campaign telemetry", "value"}};
  table.add_row({"threads", std::to_string(threads)});
  table.add_row({"cells", std::to_string(t.cells)});
  table.add_row({"cache hits", std::to_string(t.cache_hits)});
  if (t.store_hits > 0) table.add_row({"store hits", std::to_string(t.store_hits)});
  if (t.skipped > 0) table.add_row({"skipped (stored)", std::to_string(t.skipped)});
  table.add_row({"cache hit rate", sim::fmt_pct(t.hit_rate())});
  table.add_row({"wall seconds", sim::fmt(t.wall_seconds, 3)});
  table.add_row({"cells/s", sim::fmt(t.cells_per_second(), 1)});
  if (t.sched_active) {
    table.add_row({"sched steals", std::to_string(t.sched_steals)});
    table.add_row({"sched local pops", std::to_string(t.sched_local_pops)});
    table.add_row({"sched imbalance", sim::fmt(t.sched_imbalance, 3)});
  }
  std::string out = table.to_string();
  if (t.cell_wall_ms.total() > 0) {
    out += "per-cell wall time (ms):\n";
    out += t.cell_wall_ms.to_string();
  }
  return out;
}

}  // namespace mkos::core
