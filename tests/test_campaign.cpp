// Unit tests: thread pool, campaign engine, determinism and cell cache.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <set>
#include <stdexcept>

#include "core/campaign.hpp"
#include "core/obs_glue.hpp"
#include "sim/thread_pool.hpp"
#include "workloads/app.hpp"

namespace {

using namespace mkos;
using namespace mkos::core;

// ------------------------------------------------------------- thread pool

TEST(ThreadPool, RunsEverySubmittedTask) {
  sim::ThreadPool pool(4);
  std::atomic<int> hits{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&hits] { hits.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(hits.load(), 100);
  EXPECT_EQ(pool.completed(), 100u);
  EXPECT_EQ(pool.size(), 4);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  sim::ThreadPool pool(3);
  std::vector<std::atomic<int>> seen(257);
  sim::parallel_for(pool, seen.size(), [&seen](std::size_t i) { seen[i].fetch_add(1); });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesTheFirstException) {
  sim::ThreadPool pool(2);
  EXPECT_THROW(sim::parallel_for(pool, 8,
                                 [](std::size_t i) {
                                   if (i == 3) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  pool.wait_idle();  // the pool must stay usable afterwards
  std::atomic<int> hits{0};
  sim::parallel_for(pool, 4, [&hits](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 4);
}

TEST(ThreadPool, DefaultThreadsHonorsEnvVar) {
  ASSERT_EQ(setenv("MKOS_THREADS", "3", 1), 0);
  EXPECT_EQ(sim::ThreadPool::default_threads(), 3);
  ASSERT_EQ(unsetenv("MKOS_THREADS"), 0);
  EXPECT_GE(sim::ThreadPool::default_threads(), 1);
}

TEST(ThreadPool, DefaultThreadsRejectsGarbageEnv) {
  // std::atoi used to map "all" (and "0") to a silent hardware fallback;
  // sim::env_int makes misconfiguration a hard error instead.
  ASSERT_EQ(setenv("MKOS_THREADS", "all", 1), 0);
  EXPECT_EXIT((void)sim::ThreadPool::default_threads(), ::testing::ExitedWithCode(2),
              "invalid environment");
  ASSERT_EQ(setenv("MKOS_THREADS", "0", 1), 0);
  EXPECT_EXIT((void)sim::ThreadPool::default_threads(), ::testing::ExitedWithCode(2),
              "MKOS_THREADS");
  ASSERT_EQ(unsetenv("MKOS_THREADS"), 0);
}

// ------------------------------------------------------------ fingerprints

TEST(Fingerprint, DistinguishesEveryKnob) {
  std::set<std::uint64_t> fps;
  fps.insert(SystemConfig::linux_default().fingerprint());
  fps.insert(SystemConfig::mckernel().fingerprint());
  fps.insert(SystemConfig::mos().fingerprint());
  SystemConfig c = SystemConfig::mckernel();
  c.mckernel_mpol_shm_premap = true;
  fps.insert(c.fingerprint());
  c.app_cores = 32;
  fps.insert(c.fingerprint());
  c.mem_mode = MemMode::kQuadrantFlat;
  fps.insert(c.fingerprint());
  EXPECT_EQ(fps.size(), 6u);
  EXPECT_EQ(SystemConfig::mckernel().fingerprint(), SystemConfig::mckernel().fingerprint());
}

TEST(Fingerprint, CellSeedsArePositional) {
  const SystemConfig cfg = SystemConfig::mos();
  const std::uint64_t fp = cell_fingerprint("HPCG", cfg, 16, 7);
  EXPECT_EQ(fp, cell_fingerprint("HPCG", cfg, 16, 7));
  EXPECT_NE(fp, cell_fingerprint("HPCG", cfg, 32, 7));
  EXPECT_NE(fp, cell_fingerprint("MILC", cfg, 16, 7));
  EXPECT_NE(fp, cell_fingerprint("HPCG", cfg, 16, 8));
  EXPECT_NE(rep_seed(fp, 0), rep_seed(fp, 1));
  EXPECT_NE(rep_seed(fp, 0, 0), rep_seed(fp, 0, 1));
}

TEST(Fingerprint, DigestRendersExactlyTheHashedKnobs) {
  // digest() must distinguish everything fingerprint() distinguishes — it
  // is the collision detector for the 64-bit hash.
  EXPECT_EQ(SystemConfig::mckernel().digest(), SystemConfig::mckernel().digest());
  EXPECT_NE(SystemConfig::mckernel().digest(), SystemConfig::mos().digest());
  SystemConfig c = SystemConfig::mckernel();
  SystemConfig d = c;
  d.mckernel_mpol_shm_premap = true;
  EXPECT_NE(c.digest(), d.digest());
  d = c;
  d.app_cores = 32;
  EXPECT_NE(c.digest(), d.digest());
  // An inert resilience spec stays invisible, like in fingerprint(): stored
  // cells must survive the fault subsystem being configured in or out.
  SystemConfig e = c;
  e.resilience = fault::Spec{};
  EXPECT_EQ(c.digest(), e.digest());
}

// ------------------------------------------------------------- determinism

/// Runs `spec` on `pool` and renders every cell's statistics as one
/// ledger document: the byte-compare surface for fan-out determinism.
std::string grid_ledger_json(sim::TaskPool& pool, CellCache& cache,
                             const CampaignSpec& spec) {
  Campaign campaign(pool, cache);
  obs::RunLedger ledger;
  for (const CellResult& cell : campaign.run(spec)) {
    record_run_stats(ledger,
                     cell.app + "." + cell.config_label + ".n" +
                         std::to_string(cell.nodes),
                     cell.stats);
  }
  return ledger.to_json();
}

TEST(Campaign, PooledGridLedgerIsByteIdenticalToSerial) {
  // The same grid through a one-worker pool and a four-worker pool must
  // produce byte-identical reporting documents.
  CampaignSpec spec;
  spec.apps = {"MiniFE", "HPCG", "Lulesh2.0"};
  spec.configs = {SystemConfig::linux_default(), SystemConfig::mckernel(),
                  SystemConfig::mos()};
  spec.nodes = {16, 32};
  spec.reps = 2;
  spec.seed = 21;

  sim::ThreadPool serial(1);
  sim::ThreadPool pooled(4);
  CellCache serial_cache;
  CellCache pooled_cache;
  EXPECT_EQ(grid_ledger_json(pooled, pooled_cache, spec),
            grid_ledger_json(serial, serial_cache, spec));
}

/// Forwards only the three pure-virtual TaskPool members and counts
/// submissions; every optional member keeps its base default.
class CountingPool final : public sim::TaskPool {
 public:
  explicit CountingPool(sim::TaskPool& inner) : inner_(inner) {}
  void submit(Task task) override {
    submits_.fetch_add(1);
    inner_.submit(std::move(task));
  }
  void wait_idle() override { inner_.wait_idle(); }
  [[nodiscard]] int size() const override { return inner_.size(); }
  [[nodiscard]] std::uint64_t submits() const { return submits_.load(); }

 private:
  sim::TaskPool& inner_;
  std::atomic<std::uint64_t> submits_{0};
};

TEST(Campaign, FansOutOneSubmitPerSimulatedCellThroughAnyTaskPool) {
  // Campaign needs nothing beyond submit/wait_idle/size: a wrapper that
  // overrides only those sees one submit per simulated cell — none for the
  // pre-cached HPCG cell or the in-run MiniFE duplicate — and the ledger
  // matches the bare pool's byte for byte.
  CampaignSpec cached;
  cached.apps = {"HPCG"};
  cached.configs = {SystemConfig::mckernel()};
  cached.nodes = {16};
  cached.reps = 2;
  cached.seed = 8;
  CampaignSpec spec = cached;
  spec.apps = {"MiniFE", "HPCG", "Lulesh2.0", "MiniFE"};

  sim::ThreadPool pool(2);
  CellCache bare_cache;
  (void)grid_ledger_json(pool, bare_cache, cached);
  const std::string bare_json = grid_ledger_json(pool, bare_cache, spec);

  CountingPool counting(pool);
  CellCache counting_cache;
  (void)grid_ledger_json(pool, counting_cache, cached);
  const std::string counting_json = grid_ledger_json(counting, counting_cache, spec);
  EXPECT_EQ(counting.submits(), 2u);  // MiniFE and Lulesh2.0
  EXPECT_EQ(counting_json, bare_json);
}

// -------------------------------------------------------------- cell cache

TEST(Campaign, CacheHitsReturnTheSameRunStats) {
  sim::ThreadPool pool(4);
  CellCache cache;
  Campaign campaign(pool, cache);
  CampaignSpec spec;
  spec.apps = {"MiniFE", "HPCG"};
  spec.configs = {SystemConfig::linux_default(), SystemConfig::mckernel()};
  spec.nodes = {16, 32};
  spec.reps = 2;
  spec.seed = 5;

  const auto first = campaign.run(spec);
  ASSERT_EQ(first.size(), 8u);
  for (const auto& cell : first) EXPECT_FALSE(cell.from_cache);
  EXPECT_EQ(cache.size(), 8u);

  const auto second = campaign.run(spec);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(second[i].from_cache);
    EXPECT_EQ(second[i].app, first[i].app);
    EXPECT_EQ(second[i].nodes, first[i].nodes);
    EXPECT_EQ(second[i].stats.fom.samples(), first[i].stats.fom.samples());
    EXPECT_EQ(second[i].stats.unit, first[i].stats.unit);
  }
  EXPECT_EQ(campaign.telemetry().cells, 16u);
  EXPECT_EQ(campaign.telemetry().cache_hits, 8u);
  EXPECT_DOUBLE_EQ(campaign.telemetry().hit_rate(), 0.5);
}

TEST(Campaign, DuplicateCellsWithinOneRunSimulateOnce) {
  sim::ThreadPool pool(2);
  CellCache cache;
  Campaign campaign(pool, cache);
  CampaignSpec spec;
  spec.apps = {"MiniFE"};
  // The same config twice: the second column must be served as a cache hit.
  spec.configs = {SystemConfig::linux_default(), SystemConfig::linux_default()};
  spec.nodes = {16};
  spec.reps = 2;
  const auto cells = campaign.run(spec);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_FALSE(cells[0].from_cache);
  EXPECT_TRUE(cells[1].from_cache);
  EXPECT_EQ(cells[0].stats.fom.samples(), cells[1].stats.fom.samples());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(campaign.telemetry().cache_hits, 1u);
}

TEST(Campaign, GridOrderIsAppMajorAndCapped) {
  sim::ThreadPool pool(2);
  CellCache cache;
  Campaign campaign(pool, cache);
  CampaignSpec spec;
  spec.apps = {"MiniFE"};
  spec.configs = {SystemConfig::mckernel()};
  spec.reps = 1;
  spec.max_nodes = 64;  // MiniFE's own counts start at 16
  const auto cells = campaign.run(spec);
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0].nodes, 16);
  EXPECT_EQ(cells[2].nodes, 64);
  EXPECT_EQ(cells[0].config_label, "McKernel");
  EXPECT_GT(cells[0].stats.median(), 0.0);
}

TEST(CellCache, FingerprintCollisionIsAMissNotTheWrongCell) {
  // Regression: the cache used to key on the 64-bit fingerprint alone, so
  // two cells colliding on the hash silently shared one result. The full
  // CellKey now rides along and is verified on every hit.
  CellCache cache;
  RunStats stats;
  stats.fom.add(123.0);
  stats.unit = "Mflops";
  const std::uint64_t key = 0xC0111DEDULL;  // one hash, two distinct cells
  const CellKey a{"MiniFE", SystemConfig::mckernel().digest(), 16, 2, 5};
  const CellKey b{"HPCG", SystemConfig::mos().digest(), 32, 2, 5};

  cache.store(key, a, stats);
  ASSERT_TRUE(cache.lookup(key, a).has_value());
  EXPECT_EQ(cache.collisions(), 0u);

  // The colliding cell must read as a miss, not as MiniFE's statistics.
  EXPECT_FALSE(cache.lookup(key, b).has_value());
  EXPECT_EQ(cache.collisions(), 1u);
  EXPECT_TRUE(cache.contains(key, a));
  EXPECT_FALSE(cache.contains(key, b));

  // Recompute-and-store is last-writer-wins on the colliding slot.
  cache.store(key, b, stats);
  EXPECT_FALSE(cache.lookup(key, a).has_value());
  EXPECT_TRUE(cache.lookup(key, b).has_value());
  EXPECT_EQ(cache.collisions(), 2u);
}

// --------------------------------------------------- relative_to guarding

TEST(Experiment, RelativeToSkipsDegenerateBaselines) {
  const std::vector<ScalingPoint> subject{
      {16, 110, 0, 0}, {32, 120, 0, 0}, {64, 130, 0, 0}, {128, 140, 0, 0}};
  const std::vector<ScalingPoint> baseline{
      {16, 100, 0, 0},
      {32, 0.0, 0, 0},                                        // zero: divide-by-zero
      {64, std::numeric_limits<double>::quiet_NaN(), 0, 0},   // NaN: poisons headline
      {128, -5.0, 0, 0}};                                     // negative: nonsense FOM
  const auto rel = relative_to(subject, baseline);
  ASSERT_EQ(rel.size(), 1u);
  EXPECT_EQ(rel[0].nodes, 16);
  EXPECT_DOUBLE_EQ(rel[0].ratio, 1.1);
}

}  // namespace
