// Unit tests for the persistent cell store (core/cell_store.*): exact
// round-trip fidelity, corruption detection (truncation, bad checksum,
// wrong schema version, zero-length entries), quarantine semantics, hash
// collisions on disk, and the resumable-sweep mode.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "core/campaign.hpp"
#include "core/cell_store.hpp"
#include "sim/thread_pool.hpp"

namespace {

namespace fs = std::filesystem;
using namespace mkos;
using namespace mkos::core;

/// Fresh store directory per test; removed on destruction.
struct StoreDir {
  fs::path dir;
  explicit StoreDir(const char* name)
      : dir(fs::temp_directory_path() / ("mkos_cell_store_" + std::string(name))) {
    fs::remove_all(dir);
  }
  ~StoreDir() { fs::remove_all(dir); }
  [[nodiscard]] std::string path() const { return dir.string(); }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// A cell with every ledger section populated, including values that
/// stress round-trip fidelity: full-precision doubles, counters, samples.
RunStats make_stats() {
  RunStats stats;
  stats.unit = "Mflops";
  stats.fom.add(123.456789012345678);
  stats.fom.add(0.1 + 0.2);  // not exactly 0.3: must survive bit-for-bit
  stats.fom.add(987.0);
  stats.ledger.set_meta("bench", "cell_store_test");
  stats.ledger.incr("heap.brk_calls", 42);
  stats.ledger.incr("kernel.syscalls_local", 1234567890123ULL);
  stats.ledger.set_gauge("g", 0.30000000000000004);
  stats.ledger.observe("runtime.comm_ns", 1.5e9);
  stats.ledger.observe("runtime.comm_ns", 2.25e9);
  stats.ledger.hist("stall_us", 1.0, 1e6, 4).add(33.0);
  stats.ledger.hist("stall_us", 1.0, 1e6, 4).add(1e9);  // overflow bucket
  stats.ledger.set_host("wall_seconds", "0.5");
  return stats;
}

CellKey make_key() {
  return CellKey{"MiniFE", SystemConfig::mckernel().digest(), 16, 2, 42};
}

constexpr std::uint64_t kKey = 0xABCDEF0123456789ULL;

// ------------------------------------------------------------- round trip

TEST(CellStore, SaveLoadRoundTripsBitIdentically) {
  const StoreDir tmp("roundtrip");
  CellStore store(tmp.path());
  ASSERT_TRUE(store.ready());
  const RunStats original = make_stats();
  ASSERT_TRUE(store.save(kKey, make_key(), original));

  const auto loaded = store.load(kKey, make_key());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->unit, original.unit);
  EXPECT_EQ(loaded->fom.samples(), original.fom.samples());
  // The reporting document — every section, every digit — must match.
  EXPECT_EQ(loaded->ledger.to_json(), original.ledger.to_json());

  const CellStoreCounters c = store.counters();
  EXPECT_EQ(c.writes, 1u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 0u);
  EXPECT_EQ(c.corrupt, 0u);
  EXPECT_GT(c.bytes_written, 0u);
  EXPECT_EQ(c.bytes_read, c.bytes_written);
}

TEST(CellStore, ColdComputeEqualsWarmLoadThroughTheCampaign) {
  const StoreDir tmp("campaign");
  CampaignSpec spec;
  spec.apps = {"MiniFE"};
  spec.configs = {SystemConfig::linux_default(), SystemConfig::mckernel()};
  spec.nodes = {16};
  spec.reps = 2;
  spec.seed = 7;

  // Cold: simulate and persist.
  sim::ThreadPool pool(2);
  CellStore cold_store(tmp.path());
  CellCache cold_cache(&cold_store);
  Campaign cold(pool, cold_cache);
  const auto computed = cold.run(spec);
  ASSERT_EQ(computed.size(), 2u);
  EXPECT_EQ(cold_store.counters().writes, 2u);

  // Warm: a fresh cache + store over the same directory must serve every
  // cell from disk, bit-identical to the computed results.
  CellStore warm_store(tmp.path());
  CellCache warm_cache(&warm_store);
  Campaign warm(pool, warm_cache);
  const auto loaded = warm.run(spec);
  ASSERT_EQ(loaded.size(), computed.size());
  for (std::size_t i = 0; i < computed.size(); ++i) {
    EXPECT_TRUE(loaded[i].from_cache);
    EXPECT_EQ(loaded[i].stats.fom.samples(), computed[i].stats.fom.samples());
    EXPECT_EQ(loaded[i].stats.unit, computed[i].stats.unit);
    EXPECT_EQ(loaded[i].stats.ledger.to_json(), computed[i].stats.ledger.to_json());
  }
  EXPECT_EQ(warm_store.counters().hits, 2u);
  EXPECT_EQ(warm_store.counters().misses, 0u);
  // Store hits are host-state telemetry, not deterministic cache hits.
  EXPECT_EQ(warm.telemetry().store_hits, 2u);
  EXPECT_EQ(warm.telemetry().cache_hits, 0u);
}

// ------------------------------------------------------------- corruption

TEST(CellStore, TruncatedEntryIsQuarantinedAndRecomputed) {
  const StoreDir tmp("truncated");
  CellStore store(tmp.path());
  ASSERT_TRUE(store.save(kKey, make_key(), make_stats()));
  const std::string path = store.entry_path(kKey);
  const std::string whole = read_file(path);
  write_file(path, whole.substr(0, whole.size() / 2));

  EXPECT_FALSE(store.load(kKey, make_key()).has_value());
  EXPECT_EQ(store.counters().corrupt, 1u);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(fs::exists(path + ".quarantined"));

  // Recompute path: a fresh save replaces the entry and serves again.
  ASSERT_TRUE(store.save(kKey, make_key(), make_stats()));
  EXPECT_TRUE(store.load(kKey, make_key()).has_value());
}

TEST(CellStore, BitFlippedPayloadFailsTheChecksum) {
  const StoreDir tmp("bitflip");
  CellStore store(tmp.path());
  ASSERT_TRUE(store.save(kKey, make_key(), make_stats()));
  const std::string path = store.entry_path(kKey);
  std::string whole = read_file(path);
  whole[whole.size() - 3] ^= 0x20;  // flip one payload bit, length intact
  write_file(path, whole);

  EXPECT_FALSE(store.load(kKey, make_key()).has_value());
  EXPECT_EQ(store.counters().corrupt, 1u);
  EXPECT_TRUE(fs::exists(path + ".quarantined"));
}

TEST(CellStore, WrongSchemaVersionIsRejected) {
  const StoreDir tmp("schema");
  CellStore store(tmp.path());
  ASSERT_TRUE(store.save(kKey, make_key(), make_stats()));
  const std::string path = store.entry_path(kKey);

  // Rewrite the entry with a bumped payload schema_version and a *valid*
  // header for the new bytes: only the schema check can catch it.
  const std::string whole = read_file(path);
  const std::size_t eol = whole.find('\n');
  ASSERT_NE(eol, std::string::npos);
  std::string payload = whole.substr(eol + 1);
  const std::string needle = "\"schema_version\": 1";
  const std::size_t at = payload.find(needle);
  ASSERT_NE(at, std::string::npos);
  payload.replace(at, needle.size(), "\"schema_version\": 2");
  std::uint64_t crc = 0xcbf29ce484222325ULL;
  for (const char ch : payload) {
    crc ^= static_cast<unsigned char>(ch);
    crc *= 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(crc));
  write_file(path, "mkos-cell v1 len=" + std::to_string(payload.size()) +
                       " crc=" + hex + "\n" + payload);

  EXPECT_FALSE(store.load(kKey, make_key()).has_value());
  EXPECT_EQ(store.counters().corrupt, 1u);
  EXPECT_TRUE(fs::exists(path + ".quarantined"));
}

TEST(CellStore, ZeroLengthEntryIsCorruptNotACrash) {
  const StoreDir tmp("zerolen");
  CellStore store(tmp.path());
  write_file(store.entry_path(kKey), "");

  EXPECT_FALSE(store.load(kKey, make_key()).has_value());
  EXPECT_EQ(store.counters().corrupt, 1u);
  EXPECT_FALSE(store.contains(kKey, make_key()));
}

TEST(CellStore, ForeignFormatVersionIsCorrupt) {
  const StoreDir tmp("version");
  CellStore store(tmp.path());
  ASSERT_TRUE(store.save(kKey, make_key(), make_stats()));
  const std::string path = store.entry_path(kKey);
  std::string whole = read_file(path);
  whole.replace(whole.find("mkos-cell v1"), 12, "mkos-cell v9");
  write_file(path, whole);
  EXPECT_FALSE(store.load(kKey, make_key()).has_value());
  EXPECT_EQ(store.counters().corrupt, 1u);
}

// -------------------------------------------------------------- collisions

TEST(CellStore, OnDiskKeyMismatchIsAMissNotQuarantine) {
  const StoreDir tmp("collision");
  CellStore store(tmp.path());
  ASSERT_TRUE(store.save(kKey, make_key(), make_stats()));

  CellKey other = make_key();
  other.app = "HPCG";  // same 64-bit name, different cell
  EXPECT_FALSE(store.load(kKey, other).has_value());
  const CellStoreCounters c = store.counters();
  EXPECT_EQ(c.key_mismatches, 1u);
  EXPECT_EQ(c.corrupt, 0u);
  // The entry is someone else's valid cell: still there, still served.
  EXPECT_TRUE(fs::exists(store.entry_path(kKey)));
  EXPECT_TRUE(store.load(kKey, make_key()).has_value());
}

// ------------------------------------------------------------------ resume

TEST(CellStore, ResumeSkipsStoredCellsWithoutLoadingThem) {
  const StoreDir tmp("resume");
  CampaignSpec spec;
  spec.apps = {"MiniFE"};
  spec.configs = {SystemConfig::linux_default(), SystemConfig::mckernel()};
  spec.nodes = {16};
  spec.reps = 1;
  spec.seed = 3;

  sim::ThreadPool pool(2);
  CellStore seed_store(tmp.path());
  CellCache seed_cache(&seed_store);
  Campaign seeder(pool, seed_cache);
  // Store only the Linux cell.
  CampaignSpec linux_only = spec;
  linux_only.configs = {SystemConfig::linux_default()};
  (void)seeder.run(linux_only);

  CellStore store(tmp.path());
  CellCache cache(&store);
  Campaign campaign(pool, cache);
  CampaignSpec resume = spec;
  resume.resume = true;
  const auto cells = campaign.run(resume);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_TRUE(cells[0].skipped);              // Linux: already stored
  EXPECT_EQ(cells[0].stats.fom.count(), 0u);  // nothing loaded
  EXPECT_FALSE(cells[1].skipped);             // McKernel: simulated now
  EXPECT_GT(cells[1].stats.fom.count(), 0u);
  EXPECT_EQ(campaign.telemetry().skipped, 1u);

  // A second resume pass over the now-complete store skips everything.
  const auto again = campaign.run(resume);
  EXPECT_TRUE(again[0].skipped);
  EXPECT_TRUE(again[1].skipped);
  EXPECT_EQ(campaign.telemetry().skipped, 3u);
}

// ------------------------------------------------------- cross-process races

TEST(CellStore, ConcurrentWritersOfOneCellLastWriterWinsNoTornFile) {
  // Two processes sharing one MKOS_CELL_STORE that compute the same cell
  // race to publish one fingerprint and must end with ONE valid entry:
  // entry writes are temp+rename, so a reader may see either version or a
  // miss-before-first-write — never a torn file, never quarantine.
  const StoreDir tmp("write_race");
  CellStore a(tmp.path());
  CellStore b(tmp.path());

  RunStats stats_a = make_stats();
  RunStats stats_b = make_stats();
  stats_b.fom.add(555.0);  // distinguishable payloads

  constexpr int kRounds = 50;
  std::thread ta([&] {
    for (int i = 0; i < kRounds; ++i) EXPECT_TRUE(a.save(kKey, make_key(), stats_a));
  });
  std::thread tb([&] {
    for (int i = 0; i < kRounds; ++i) EXPECT_TRUE(b.save(kKey, make_key(), stats_b));
  });
  CellStore reader(tmp.path());
  std::uint64_t observed = 0;
  while (ta.joinable() || tb.joinable()) {
    if (const auto got = reader.load(kKey, make_key())) {
      ++observed;
      const std::size_t n = got->fom.samples().size();
      EXPECT_TRUE(n == stats_a.fom.samples().size() ||
                  n == stats_b.fom.samples().size());
    }
    if (ta.joinable() && observed > 4) ta.join();
    if (tb.joinable() && observed > 8) tb.join();
  }

  EXPECT_EQ(reader.counters().corrupt, 0u);
  EXPECT_EQ(a.counters().corrupt, 0u);
  EXPECT_EQ(b.counters().corrupt, 0u);
  const auto final_read = reader.load(kKey, make_key());
  ASSERT_TRUE(final_read.has_value());
  const std::size_t n = final_read->fom.samples().size();
  EXPECT_TRUE(n == stats_a.fom.samples().size() ||
              n == stats_b.fom.samples().size());
}

// --------------------------------------------------------------- plumbing

TEST(CellStore, FromEnvHonorsTheVariable) {
  const StoreDir tmp("fromenv");
  ASSERT_EQ(unsetenv(CellStore::kEnvVar), 0);
  EXPECT_EQ(CellStore::from_env(), nullptr);
  ASSERT_EQ(setenv(CellStore::kEnvVar, "", 1), 0);
  EXPECT_EQ(CellStore::from_env(), nullptr);
  ASSERT_EQ(setenv(CellStore::kEnvVar, tmp.path().c_str(), 1), 0);
  const auto store = CellStore::from_env();
  ASSERT_NE(store, nullptr);
  EXPECT_TRUE(store->ready());
  EXPECT_EQ(store->root(), tmp.path());
  ASSERT_EQ(unsetenv(CellStore::kEnvVar), 0);
}

TEST(CellStore, UnreadyStoreDegradesToMisses) {
  // A file occupies the root path: the directory cannot be created.
  const StoreDir tmp("unready");
  write_file(tmp.path(), "not a directory");
  CellStore store(tmp.path());
  EXPECT_FALSE(store.ready());
  EXPECT_FALSE(store.save(kKey, make_key(), make_stats()));
  EXPECT_FALSE(store.load(kKey, make_key()).has_value());
}

}  // namespace
