// mkos_perfbench: timed and traced campaign passes for perfbench/run.py.
//
//   mkos_perfbench --workload <fig4|numa_lookup> --seed <n>
//                  --seconds <s> --trace <0|1> --out <scratch dir>
//
// Runs the workload's grid once at the golden seed (the recorded FOM
// digest; with --seconds 0 that is all it does, a set-up probe), then
// repeats the grid over consecutive campaign seeds (seed * 1000 + pass)
// until --seconds have passed, checks every pass, and prints one JSON line
// of raw samples; run.py turns them into the benchmark's metrics. Untraced
// runs time core::Campaign::run as users call it. Traced runs add a replica
// pass with a span around every layer call (perfbench/replica.hpp) and read
// per-layer counts from the cell ledgers.

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/cell_store.hpp"
#include "replica.hpp"
#include "sim/contracts.hpp"
#include "sim/format.hpp"
#include "sim/thread_pool.hpp"

namespace {

namespace mc = mkos::core;
using Clock = std::chrono::steady_clock;
using perfbench::Layer;

/// The seed the recorded FOM digest (perfbench/golden.json) belongs to —
/// the paper benches' campaign seed.
constexpr std::uint64_t kGoldenSeed = 42;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mkos_perfbench: %s\nusage: mkos_perfbench --workload "
               "<fig4|numa_lookup> --seed <n> --seconds <s> "
               "--trace <0|1> --out <dir>\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("--seed must be a whole number");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds >= 0.0)) usage("--seconds must be >= 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--out") {
      o.out = value;
    } else {
      usage("unknown flag");
    }
  }
  if (argc % 2 != 1) usage("every flag takes one value");
  if (o.workload != "fig4" && o.workload != "numa_lookup") usage("unknown workload");
  if (o.out.empty()) usage("--out is required");
  return o;
}

// ------------------------------------------------------------- workloads

/// The grid one pass requests, in request order. fig4 is
/// bench/fig4_overview's two phases (the second phase's Linux cells are
/// memory-cache hits); numa_lookup is bench/fig_numa_lookup's sweep.
std::vector<mc::CampaignSpec> phases_of(const std::string& workload, std::uint64_t seed) {
  std::vector<mc::CampaignSpec> phases;
  if (workload == "numa_lookup") {
    mc::CampaignSpec spec;
    spec.apps = {"XSBench/first-touch", "XSBench/interleave", "XSBench/mcdram"};
    for (mc::SystemConfig config : {mc::SystemConfig::linux_default(),
                                    mc::SystemConfig::mckernel(), mc::SystemConfig::mos()}) {
      config.alloc.model_allocator = true;
      spec.configs.push_back(config);
    }
    spec.reps = 3;
    spec.max_nodes = 256;
    spec.seed = seed;
    phases.push_back(spec);
    return phases;
  }
  mc::CampaignSpec spec;
  spec.apps = mkos::workloads::fig4_app_names();
  spec.reps = 5;
  spec.max_nodes = 2048;
  spec.seed = seed;
  spec.configs = {mc::SystemConfig::linux_default(), mc::SystemConfig::mckernel()};
  phases.push_back(spec);
  spec.configs = {mc::SystemConfig::linux_default(), mc::SystemConfig::mos()};
  phases.push_back(spec);
  return phases;
}

/// Forwards to a pool and stamps the first submission: the moment the
/// first cell is dispatched, which ends the set-up interval.
class DispatchProbe final : public mkos::sim::TaskPool {
 public:
  explicit DispatchProbe(TaskPool& inner) : inner_(inner) {}

  void submit(Task task) override {
    stamp();
    inner_.submit(std::move(task));
  }
  void submit_weighted(double cost, Task task) override {
    stamp();
    inner_.submit_weighted(cost, std::move(task));
  }
  void wait_idle() override { inner_.wait_idle(); }
  [[nodiscard]] int size() const override { return inner_.size(); }
  [[nodiscard]] bool cost_aware() const override { return inner_.cost_aware(); }
  [[nodiscard]] SchedTelemetry sched_telemetry() const override {
    return inner_.sched_telemetry();
  }

  [[nodiscard]] const std::optional<Clock::time_point>& first_dispatch() const {
    return first_;
  }

 private:
  void stamp() {
    if (!first_) first_ = Clock::now();
  }

  TaskPool& inner_;
  std::optional<Clock::time_point> first_;
};

std::vector<mc::CellResult> run_phases(mc::Campaign& campaign,
                                       const std::vector<mc::CampaignSpec>& phases) {
  std::vector<mc::CellResult> cells;
  for (const mc::CampaignSpec& spec : phases) {
    std::vector<mc::CellResult> part = campaign.run(spec);
    cells.insert(cells.end(), std::make_move_iterator(part.begin()),
                 std::make_move_iterator(part.end()));
  }
  return cells;
}

struct SerialPass {
  std::vector<mc::CellResult> cold;
  std::vector<mc::CellResult> warm;
  Clock::time_point first_dispatch;
  double cold_s = 0.0;
  double warm_s = 0.0;
  std::uint64_t warm_simulated = 0;  ///< cells the warm pass had to simulate
};

/// The pass's config with fingerprint `fp`.
const mc::SystemConfig* config_of(const std::vector<mc::CampaignSpec>& phases,
                                  std::uint64_t fp) {
  for (const mc::CampaignSpec& phase : phases) {
    for (const mc::SystemConfig& config : phase.configs) {
      if (config.fingerprint() == fp) return &config;
    }
  }
  return nullptr;
}

/// Writes every simulated cell of a cold pass to `store` under the keys
/// Campaign::run's write-through uses. Kept out of the timed cold pass:
/// fsync latency on a shared disk would swamp the simulation time.
void save_cells(mc::CellStore& store, const std::vector<mc::CampaignSpec>& phases,
                const std::vector<mc::CellResult>& cells, perfbench::Tracer* tracer) {
  const mc::CampaignSpec& spec = phases.front();  // reps and seed are per pass
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const mc::CellResult& cell = cells[i];
    if (cell.from_cache) continue;  // saved where it was simulated
    const mc::SystemConfig* config = config_of(phases, cell.config_fp);
    MKOS_EXPECTS(config != nullptr);
    const std::uint64_t key =
        mc::cell_cache_key(cell.app, *config, cell.nodes, spec.reps, spec.seed);
    const mc::CellKey id{cell.app, config->digest(), cell.nodes, spec.reps, spec.seed};
    perfbench::traced(tracer, Layer::kStoreSave, static_cast<int>(i),
                      [&] { (void)store.save(key, id, cell.stats); });
  }
}

/// Set-up (spec and config construction, pool spawn, campaign construction,
/// grid enumeration) up to the first dispatched cell, then a cold pass on
/// one thread. Then, with a store, a warm pass from a fresh memory cache
/// over `store`, which serves every cell of the `warm_seed` grid; the pass
/// whose seed is `warm_seed` first writes its cells there, untimed. A run
/// writes the store once: per-pass writes and deletes queue file-system
/// work (journal commits, discards) that slows the timed pooled passes.
SerialPass serial_pass(const Options& o, std::uint64_t seed, std::uint64_t warm_seed,
                       mc::CellStore* store) {
  SerialPass p;
  const std::vector<mc::CampaignSpec> phases = phases_of(o.workload, seed);
  mkos::sim::ThreadPool pool(1);
  DispatchProbe probe(pool);
  mc::CellCache cache;
  mc::Campaign campaign(probe, cache);
  const Clock::time_point c0 = Clock::now();
  p.cold = run_phases(campaign, phases);
  const Clock::time_point c1 = Clock::now();
  p.cold_s = seconds_between(c0, c1);
  p.first_dispatch = probe.first_dispatch().value_or(c1);

  if (store == nullptr) return p;
  if (seed == warm_seed) save_cells(*store, phases, p.cold, nullptr);
  mc::CellCache warm_cache(store);
  mc::Campaign warm_campaign(pool, warm_cache);
  const std::vector<mc::CampaignSpec> warm_phases = phases_of(o.workload, warm_seed);
  const Clock::time_point w0 = Clock::now();
  p.warm = run_phases(warm_campaign, warm_phases);
  p.warm_s = seconds_between(w0, Clock::now());
  for (const mc::CellResult& cell : p.warm) p.warm_simulated += cell.from_cache ? 0 : 1;
  return p;
}

struct PooledPass {
  std::vector<mc::CellResult> cells;
  double wall_s = 0.0;
  double busy_frac = 0.0;  ///< Σ cell wall / (threads × wall)
};

PooledPass pooled_pass(const Options& o, std::uint64_t seed, int threads) {
  PooledPass p;
  const std::vector<mc::CampaignSpec> phases = phases_of(o.workload, seed);
  mkos::sim::ThreadPool pool(threads);
  mc::CellCache cache;
  mc::Campaign campaign(pool, cache);
  const Clock::time_point t0 = Clock::now();
  p.cells = run_phases(campaign, phases);
  p.wall_s = seconds_between(t0, Clock::now());
  double busy_ms = 0.0;
  for (const mc::CellResult& cell : p.cells) busy_ms += cell.wall_ms;
  p.busy_frac = busy_ms / 1e3 / (threads * p.wall_s);
  return p;
}

// ---------------------------------------------------------------- checks

/// Ledger JSON without the trailing host section (always emitted last).
std::string strip_host(const std::string& json) {
  const std::size_t at = json.rfind("\n  \"host\": ");
  return at == std::string::npos ? json : json.substr(0, at);
}

bool same_cell(const mc::CellResult& a, const mc::CellResult& b) {
  return a.app == b.app && a.config_label == b.config_label && a.nodes == b.nodes &&
         a.stats.unit == b.stats.unit &&
         a.stats.fom.samples() == b.stats.fom.samples() &&
         a.stats.ledger.to_json() == b.stats.ledger.to_json();
}

/// Marks cells of `got` that differ from `want`; returns the mismatches.
int mark_mismatches(const std::vector<mc::CellResult>& want,
                    const std::vector<mc::CellResult>& got, std::vector<bool>& bad) {
  int mismatches = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (i >= got.size() || !same_cell(want[i], got[i])) {
      bad[i] = true;
      ++mismatches;
    }
  }
  return mismatches;
}

/// The pass-level ledger a figure bench would write: every cell merged in
/// request order, plus host telemetry that differs between runs.
std::string merged_ledger(const std::vector<mc::CellResult>& cells, int threads,
                          double wall_s) {
  mkos::obs::RunLedger ledger;
  for (const mc::CellResult& cell : cells) ledger.merge(cell.stats.ledger);
  ledger.set_host("threads", std::to_string(threads));
  ledger.set_host("wall_s", mkos::sim::json_number(wall_s));
  return strip_host(ledger.to_json());
}

/// FNV-1a over every cell's identity and FOM sample bits, in request order.
std::string fom_digest(const std::vector<mc::CellResult>& cells) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const mc::CellResult& cell : cells) {
    mix(cell.app.data(), cell.app.size() + 1);
    mix(cell.config_label.data(), cell.config_label.size() + 1);
    mix(&cell.nodes, sizeof cell.nodes);
    mix(cell.stats.unit.data(), cell.stats.unit.size() + 1);
    for (const double v : cell.stats.fom.samples()) mix(&v, sizeof v);
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

// ------------------------------------------------------------- reporting

std::string fs_name(const std::string& path) {
  struct statfs st{};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%lx", static_cast<unsigned long>(st.f_type));
  return hex;
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ",";
    out += mkos::sim::json_number(values[i]);
  }
  return out + "]";
}

struct Samples {
  std::map<std::string, std::vector<double>> per_pass;  ///< metric -> one value a pass
  std::vector<std::vector<double>> cell_ms;  ///< per pass, simulated cells
  std::map<std::string, double> counts;  ///< first traced pass only
  std::map<std::string, int> check_failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer counts of one replica pass, read from the cells' ledgers and
/// the replica's cache/store counters.
void record_counts(Samples& s, const std::vector<mc::CellResult>& cells,
                   const perfbench::ReplicaCampaign& cold, const mc::CellStoreCounters& now,
                   const mc::CellStoreCounters& before, double ledger_bytes) {
  const auto total = [&cells](const char* counter) {
    double sum = 0.0;
    for (const mc::CellResult& cell : cells) {
      // Cache hits repeat a cell counted where it was simulated.
      if (!cell.from_cache) sum += static_cast<double>(cell.stats.ledger.counter(counter));
    }
    return sum;
  };
  const auto hit_frac = [&total](const char* hits, const char* misses) {
    const double h = total(hits);
    return ratio(h, h + total(misses));
  };
  std::map<std::string, double>& c = s.counts;
  c["runtime.heap_replay_frac"] =
      hit_frac("engine.heap_fast_lanes", "engine.heap_slow_lanes");
  c["runtime.coll_cache_hit_frac"] =
      hit_frac("engine.coll_cache_hits", "engine.coll_cache_misses");
  c["runtime.msg_cache_hit_frac"] = hit_frac("engine.msg_cache_hits", "engine.msg_cache_misses");
  c["runtime.noise_draws"] =
      total("engine.noise_analytic_sums") + total("engine.noise_exact_events") +
      total("engine.noise_analytic_maxima") + total("engine.noise_gumbel_draws");
  for (const char* counter : {"heap.brk_calls", "mem.faults", "alloc.vmem_allocs",
                              "alloc.depot_loads", "alloc.slab_creates"}) {
    c[counter] = total(counter);
  }
  c["alloc.magazine_hit_frac"] = hit_frac("alloc.magazine_hits", "alloc.magazine_misses");
  c["core.reps_simulated"] = static_cast<double>(cold.reps_simulated());
  c["core.cache_hit_frac"] = ratio(static_cast<double>(cold.memory_hits()),
                                   static_cast<double>(cold.cells()));
  const double hits = static_cast<double>(now.hits - before.hits);
  c["core.store_hit_frac"] = ratio(hits, hits + static_cast<double>(now.misses - before.misses));
  c["core.store_bytes_written"] = static_cast<double>(now.bytes_written - before.bytes_written);
  c["core.store_bytes_read"] = static_cast<double>(now.bytes_read - before.bytes_read);
  c["obs.ledger_bytes"] = ledger_bytes;
}

/// One traced replica pass over the same grid as `reference`'s cold pass:
/// cold, the cells written to `store`, and warm from the store. Unlike the
/// untraced passes it writes every pass, so each pass has store spans.
/// Checks every replica cell against the reference and returns the traced
/// wall time of the two campaign passes.
double traced_pass(const Options& o, std::uint64_t seed, int pass, mc::CellStore& store,
                   perfbench::Tracer& tracer, const SerialPass& reference,
                   std::vector<bool>& bad, Samples& s) {
  tracer.set_pass(pass);
  const std::vector<mc::CampaignSpec> phases = phases_of(o.workload, seed);
  const auto run = [&phases](perfbench::ReplicaCampaign& campaign) {
    std::vector<mc::CellResult> cells;
    for (const mc::CampaignSpec& spec : phases) {
      std::vector<mc::CellResult> part = campaign.run(spec, static_cast<int>(cells.size()));
      cells.insert(cells.end(), part.begin(), part.end());
    }
    return cells;
  };
  perfbench::ReplicaCampaign cold(&tracer, nullptr);
  perfbench::ReplicaCampaign warm(&tracer, &store);
  std::vector<mc::CellResult> cells;
  std::vector<mc::CellResult> warm_cells;
  const mc::CellStoreCounters before = store.counters();
  double cold_s = 0.0;
  double warm_s = 0.0;
  // On a pool thread, as Campaign::run's serial passes are: the main
  // thread's heap arena, used by all the checks, is slower to allocate from.
  mkos::sim::ThreadPool pool(1);
  mkos::sim::parallel_for(pool, 1, [&](std::size_t) {
    const Clock::time_point c0 = Clock::now();
    cells = run(cold);
    cold_s = seconds_between(c0, Clock::now());
    save_cells(store, phases, cells, &tracer);
    const Clock::time_point w0 = Clock::now();
    warm_cells = run(warm);
    warm_s = seconds_between(w0, Clock::now());
  });

  // The serialization every consumer of the pass pays (and the check reads).
  double ledger_bytes = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string json = perfbench::traced(
        &tracer, Layer::kToJson, static_cast<int>(i),
        [&] { return cells[i].stats.ledger.to_json(); });
    ledger_bytes += static_cast<double>(json.size());
  }
  s.check_failures["replica"] += mark_mismatches(reference.cold, cells, bad);
  s.check_failures["replica"] += mark_mismatches(reference.cold, warm_cells, bad);
  if (warm.reps_simulated() != 0) {
    ++s.check_failures["replica"];
    std::fill(bad.begin(), bad.end(), true);
  }
  if (pass == 0) record_counts(s, cells, cold, store.counters(), before, ledger_bytes);
  return cold_s + warm_s;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  const int nproc = static_cast<int>(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN)));
  const int threads = std::min(4, nproc);
  std::error_code ec;
  std::filesystem::create_directories(o.out, ec);
  if (ec) usage("cannot create --out directory");

  Samples s;
  perfbench::Tracer tracer;
  // --out is a fresh directory (run.py gives each process its own).
  const auto store = std::make_unique<mc::CellStore>(o.out + "/store");
  const std::unique_ptr<mc::CellStore> traced_store =
      o.trace ? std::make_unique<mc::CellStore>(o.out + "/store-traced") : nullptr;

  // Golden pass (cold only): the recorded FOM digest belongs to the default
  // seed. Its first dispatch ends the process's set-up; it also warms
  // lazily built state before any timing.
  const SerialPass golden = serial_pass(o, kGoldenSeed, kGoldenSeed, nullptr);
  const std::string golden_digest = fom_digest(golden.cold);

  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(o.seconds));
  // Every warm pass of the run reads the cells of its first pass's seed.
  const std::uint64_t warm_seed = o.seed * 1000;
  std::vector<mc::CellResult> warm_reference;
  int pass = 0;
  while (Clock::now() < deadline) {
    const std::uint64_t seed = o.seed * 1000 + static_cast<std::uint64_t>(pass);
    const SerialPass serial = serial_pass(o, seed, warm_seed, store.get());
    if (pass == 0) warm_reference = serial.cold;
    std::vector<bool> bad(serial.cold.size(), false);

    // Warm cells equal the cold cells of their seed, and a warm pass
    // simulates nothing.
    s.check_failures["warm_vs_cold"] += mark_mismatches(warm_reference, serial.warm, bad);
    if (serial.warm_simulated != 0) {
      ++s.check_failures["warm_vs_cold"];
      std::fill(bad.begin(), bad.end(), true);
    }

    // Pooled cells and the pooled pass ledger (host stripped) equal serial.
    const PooledPass pooled = pooled_pass(o, seed, threads);
    s.check_failures["pooled_vs_serial"] += mark_mismatches(serial.cold, pooled.cells, bad);
    if (merged_ledger(serial.cold, 1, serial.cold_s) !=
        merged_ledger(pooled.cells, threads, pooled.wall_s)) {
      ++s.check_failures["pooled_vs_serial"];
      std::fill(bad.begin(), bad.end(), true);
    }

    if (o.trace) {
      const double traced_s = traced_pass(o, seed, pass, *traced_store, tracer, serial, bad, s);
      s.per_pass["untraced_s"].push_back(serial.cold_s + serial.warm_s);
      s.per_pass["traced_s"].push_back(traced_s);
      s.per_pass["busy_frac"].push_back(pooled.busy_frac);
    } else {
      // Replica of one simulated cell a pass (rotating), untraced.
      std::vector<std::size_t> simulated;
      for (std::size_t i = 0; i < serial.cold.size(); ++i) {
        if (!serial.cold[i].from_cache) simulated.push_back(i);
      }
      const std::size_t i = simulated[static_cast<std::size_t>(pass) % simulated.size()];
      const mc::CellResult& want = serial.cold[i];
      const std::vector<mc::CampaignSpec> phases = phases_of(o.workload, seed);
      const mc::SystemConfig* config = config_of(phases, want.config_fp);
      mc::CellResult got = want;
      if (config != nullptr) {
        got.stats = perfbench::replica_run_app(want.app, *config, want.nodes,
                                               phases.front().reps, seed, nullptr,
                                               static_cast<int>(i));
      }
      if (config == nullptr || !same_cell(want, got)) {
        bad[i] = true;
        ++s.check_failures["replica"];
      }
      s.per_pass["campaign_s"].push_back(serial.cold_s);
      s.per_pass["campaign_pooled_s"].push_back(pooled.wall_s);
      s.per_pass["warm_s"].push_back(serial.warm_s);
      std::vector<double>& cell_ms = s.cell_ms.emplace_back();
      for (const mc::CellResult& cell : serial.cold) {
        if (!cell.from_cache) cell_ms.push_back(cell.wall_ms);
      }
    }
    s.attempted += serial.cold.size();
    s.failed += static_cast<std::uint64_t>(std::count(bad.begin(), bad.end(), true));
    ++pass;
  }

  std::string spans_path;
  if (o.trace) {
    spans_path = o.out + "/spans.tsv";
    if (!tracer.write_tsv(spans_path)) usage("cannot write the span file");
  }

  struct rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);

  std::string out = "{";
  out += "\"host\": {\"nproc\": " + std::to_string(nproc) +
         ", \"pool_threads\": " + std::to_string(threads) +
         ", \"compiler\": " + mkos::sim::json_quote(std::string("gcc ") + __VERSION__) +
         ", \"build_type\": " + mkos::sim::json_quote(MKOS_PERFBENCH_BUILD_TYPE) +
         ", \"store_fs\": " + mkos::sim::json_quote(fs_name(o.out)) +
         "}";
  out += ", \"passes\": " + std::to_string(pass);
  out += ", \"first_dispatch_ns\": " +
         std::to_string(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            golden.first_dispatch.time_since_epoch())
                            .count());
  out += ", \"attempted\": " + std::to_string(s.attempted + golden.cold.size());
  out += ", \"failed\": " + std::to_string(s.failed);
  out += ", \"golden\": {\"seed\": " + std::to_string(kGoldenSeed) +
         ", \"cells\": " + std::to_string(golden.cold.size()) +
         ", \"digest\": " + mkos::sim::json_quote(golden_digest) + "}";
  out += ", \"check_failures\": {";
  bool first = true;
  for (const char* name : {"warm_vs_cold", "pooled_vs_serial", "replica"}) {
    out += std::string(first ? "" : ", ") + mkos::sim::json_quote(name) + ": " +
           std::to_string(s.check_failures[name]);
    first = false;
  }
  out += "}, \"per_pass\": {";
  first = true;
  for (const auto& [name, values] : s.per_pass) {
    out += std::string(first ? "" : ", ") + mkos::sim::json_quote(name) + ": " +
           json_list(values);
    first = false;
  }
  out += "}, \"cell_ms\": [";
  for (std::size_t i = 0; i < s.cell_ms.size(); ++i) {
    out += (i == 0 ? "" : ",") + json_list(s.cell_ms[i]);
  }
  out += "]";
  out += ", \"counts\": {";
  first = true;
  for (const auto& [name, value] : s.counts) {
    out += std::string(first ? "" : ", ") + mkos::sim::json_quote(name) + ": " +
           mkos::sim::json_number(value);
    first = false;
  }
  out += "}, \"peak_rss_mb\": " + mkos::sim::json_number(static_cast<double>(ru.ru_maxrss) / 1024.0);
  out += ", \"spans\": " + mkos::sim::json_quote(spans_path) + "}";
  std::printf("%s\n", out.c_str());
  return 0;
}
