// Unit tests: the hot-path sampling engine — truncated-moment closed forms,
// Gamma/normal batched sums, inverse-CDF maxima, lane classes and the heap
// cycle replay, cost caches, and the determinism contract that fast and slow
// paths (and serial vs pooled execution) produce byte-identical results.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/campaign.hpp"
#include "core/config.hpp"
#include "core/obs_glue.hpp"
#include "kernel/noise.hpp"
#include "runtime/shm.hpp"
#include "runtime/simmpi.hpp"
#include "workloads/app.hpp"

namespace {

using namespace mkos;
using namespace mkos::runtime;
using kernel::NoiseComponent;
using mkos::core::SystemConfig;
using mkos::sim::MiB;

/// One raw (capped) event draw — the reference the analytic forms replace.
double draw_event_ns(const NoiseComponent& c, sim::Rng& rng) {
  double d = 0.0;
  switch (c.dist) {
    case NoiseComponent::Dist::kFixed:
      d = static_cast<double>(c.duration.ns());
      break;
    case NoiseComponent::Dist::kExponential:
      d = rng.exponential(static_cast<double>(c.duration.ns()));
      break;
    case NoiseComponent::Dist::kPareto:
      d = rng.pareto(static_cast<double>(c.duration.ns()), c.pareto_alpha);
      break;
  }
  if (c.cap.ns() > 0) d = std::min(d, static_cast<double>(c.cap.ns()));
  return d;
}

struct Empirical {
  double mean = 0.0;
  double var = 0.0;
};

Empirical empirical_of(const std::vector<double>& xs) {
  Empirical e;
  for (double x : xs) e.mean += x;
  e.mean /= static_cast<double>(xs.size());
  for (double x : xs) e.var += (x - e.mean) * (x - e.mean);
  e.var /= static_cast<double>(xs.size() - 1);
  return e;
}

// ------------------------------------------------------- truncated moments

TEST(ComponentMoments, MatchEmpiricalCappedExponential) {
  const NoiseComponent c{"exp", 1.0, sim::microseconds(4),
                         NoiseComponent::Dist::kExponential, 1.5, sim::microseconds(10)};
  const kernel::ComponentMoments m = kernel::component_moments(c);
  sim::Rng rng{7};
  std::vector<double> xs(200000);
  for (double& x : xs) x = draw_event_ns(c, rng);
  const Empirical e = empirical_of(xs);
  EXPECT_NEAR(e.mean, m.m1_ns, 0.02 * m.m1_ns);
  EXPECT_NEAR(e.var, m.m2_ns2 - m.m1_ns * m.m1_ns,
              0.03 * (m.m2_ns2 - m.m1_ns * m.m1_ns));
  EXPECT_TRUE(m.m2_finite);
}

TEST(ComponentMoments, MatchEmpiricalCappedPareto) {
  const NoiseComponent c{"par", 1.0, sim::milliseconds(1.5),
                         NoiseComponent::Dist::kPareto, 1.4, sim::milliseconds(20)};
  const kernel::ComponentMoments m = kernel::component_moments(c);
  sim::Rng rng{11};
  std::vector<double> xs(400000);
  for (double& x : xs) x = draw_event_ns(c, rng);
  const Empirical e = empirical_of(xs);
  EXPECT_NEAR(e.mean, m.m1_ns, 0.02 * m.m1_ns);
  EXPECT_NEAR(e.var, m.m2_ns2 - m.m1_ns * m.m1_ns,
              0.05 * (m.m2_ns2 - m.m1_ns * m.m1_ns));
}

TEST(ComponentMoments, UncappedParetoUsesClosedForm) {
  const NoiseComponent c{"par3", 1.0, sim::microseconds(700),
                         NoiseComponent::Dist::kPareto, 3.0, sim::TimeNs{0}};
  const kernel::ComponentMoments m = kernel::component_moments(c);
  const double xm = static_cast<double>(c.duration.ns());
  EXPECT_DOUBLE_EQ(m.m1_ns, 3.0 * xm / 2.0);
  EXPECT_DOUBLE_EQ(m.m2_ns2, 3.0 * xm * xm);
  EXPECT_TRUE(m.m2_finite);
}

TEST(ComponentMoments, HeavyTailUncappedParetoFlagsInfiniteVariance) {
  const NoiseComponent c{"heavy", 1.0, sim::microseconds(700),
                         NoiseComponent::Dist::kPareto, 1.5, sim::TimeNs{0}};
  const kernel::ComponentMoments m = kernel::component_moments(c);
  EXPECT_FALSE(m.m2_finite);
  EXPECT_GT(m.m1_ns, 0.0);
}

TEST(ComponentMoments, CapAtOrBelowScaleIsDeterministic) {
  const NoiseComponent c{"deg", 1.0, sim::microseconds(5),
                         NoiseComponent::Dist::kPareto, 1.5, sim::microseconds(5)};
  const kernel::ComponentMoments m = kernel::component_moments(c);
  const double cap = static_cast<double>(c.cap.ns());
  EXPECT_DOUBLE_EQ(m.m1_ns, cap);
  EXPECT_DOUBLE_EQ(m.m2_ns2, cap * cap);
}

// ------------------------------------------------------------ batched sums

TEST(BatchedSum, GammaMatchesNaiveSumOfExponentials) {
  const NoiseComponent c{"exp", 1.0, sim::microseconds(30),
                         NoiseComponent::Dist::kExponential, 1.5, sim::TimeNs{0}};
  const kernel::ComponentMoments m = kernel::component_moments(c);
  const std::uint64_t n = 40;
  const double mu = static_cast<double>(c.duration.ns());

  sim::Rng rng{13};
  std::vector<double> sums(20000);
  for (double& s : sums) s = kernel::sample_component_sum_ns(c, m, n, rng);
  const Empirical e = empirical_of(sums);
  EXPECT_NEAR(e.mean, static_cast<double>(n) * mu, 0.02 * static_cast<double>(n) * mu);
  EXPECT_NEAR(e.var, static_cast<double>(n) * mu * mu,
              0.05 * static_cast<double>(n) * mu * mu);
}

TEST(BatchedSum, NormalPathMatchesTruncatedMomentsAndSupport) {
  const NoiseComponent c{"par", 1.0, sim::milliseconds(1.5),
                         NoiseComponent::Dist::kPareto, 1.4, sim::milliseconds(20)};
  const kernel::ComponentMoments m = kernel::component_moments(c);
  const std::uint64_t n = 100;  // >= kNormalSumThreshold -> one normal draw
  const double xm = static_cast<double>(c.duration.ns());
  const double cap = static_cast<double>(c.cap.ns());

  sim::Rng rng{17};
  kernel::SampleCounters counters;
  std::vector<double> sums(20000);
  for (double& s : sums) s = kernel::sample_component_sum_ns(c, m, n, rng, &counters);
  EXPECT_EQ(counters.exact_events, 0u);
  EXPECT_EQ(counters.analytic_sums, sums.size());

  const Empirical e = empirical_of(sums);
  const double dn = static_cast<double>(n);
  EXPECT_NEAR(e.mean, dn * m.m1_ns, 0.01 * dn * m.m1_ns);
  EXPECT_NEAR(e.var, dn * (m.m2_ns2 - m.m1_ns * m.m1_ns),
              0.05 * dn * (m.m2_ns2 - m.m1_ns * m.m1_ns));
  for (double s : sums) {
    EXPECT_GE(s, dn * xm);  // every event is at least the Pareto scale
    EXPECT_LE(s, dn * cap);  // and at most the cap
  }
}

TEST(BatchedSum, SmallCountsFallBackToExactDraws) {
  const NoiseComponent c{"par", 1.0, sim::milliseconds(1.5),
                         NoiseComponent::Dist::kPareto, 1.4, sim::milliseconds(20)};
  const kernel::ComponentMoments m = kernel::component_moments(c);
  sim::Rng rng{19};
  kernel::SampleCounters counters;
  (void)kernel::sample_component_sum_ns(c, m, 5, rng, &counters);
  EXPECT_EQ(counters.exact_events, 5u);
  EXPECT_EQ(counters.analytic_sums, 0u);
}

TEST(BatchedSum, FixedComponentConsumesNoRandomness) {
  const NoiseComponent c{"tick", 1.0, sim::microseconds(3),
                         NoiseComponent::Dist::kFixed, 1.5, sim::TimeNs{0}};
  const kernel::ComponentMoments m = kernel::component_moments(c);
  sim::Rng rng{23};
  const std::uint64_t state_before = sim::Rng{23}.next_u64();
  const double s = kernel::sample_component_sum_ns(c, m, 1000, rng);
  EXPECT_DOUBLE_EQ(s, 1000.0 * static_cast<double>(c.duration.ns()));
  EXPECT_EQ(rng.next_u64(), state_before);  // stream untouched
}

// ------------------------------------------------------------- max draws

TEST(MaxDraw, MatchesNaiveMaximumDistribution) {
  const NoiseComponent c{"exp", 1.0, sim::microseconds(4),
                         NoiseComponent::Dist::kExponential, 1.5, sim::TimeNs{0}};
  const std::uint64_t n = 64;
  sim::Rng naive_rng{29};
  sim::Rng fast_rng{31};
  std::vector<double> naive(20000);
  std::vector<double> fast(20000);
  for (double& x : naive) {
    double best = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) best = std::max(best, draw_event_ns(c, naive_rng));
    x = best;
  }
  for (double& x : fast) x = kernel::sample_component_max_ns(c, n, fast_rng);
  const Empirical en = empirical_of(naive);
  const Empirical ef = empirical_of(fast);
  EXPECT_NEAR(ef.mean, en.mean, 0.03 * en.mean);
  EXPECT_NEAR(std::sqrt(ef.var), std::sqrt(en.var), 0.08 * std::sqrt(en.var));
}

TEST(MaxDraw, GrowsWithCountAndRespectsCap) {
  const NoiseComponent c{"par", 1.0, sim::milliseconds(1.5),
                         NoiseComponent::Dist::kPareto, 1.4, sim::milliseconds(20)};
  sim::Rng rng{37};
  double mean_small = 0.0;
  double mean_large = 0.0;
  for (int i = 0; i < 4000; ++i) {
    const double small = kernel::sample_component_max_ns(c, 4, rng);
    const double large = kernel::sample_component_max_ns(c, 4096, rng);
    EXPECT_LE(small, static_cast<double>(c.cap.ns()));
    EXPECT_LE(large, static_cast<double>(c.cap.ns()));
    mean_small += small;
    mean_large += large;
  }
  EXPECT_GT(mean_large, mean_small * 2.0);
}

// ----------------------------------------------- model-level sample parity

TEST(NoiseModelSample, TracksExpectedFractionOnLongSpans) {
  const kernel::NoiseModel model = kernel::noise_linux_co_tenant();
  sim::Rng rng{41};
  kernel::SampleCounters counters;
  const sim::TimeNs span = sim::seconds(10.0);
  double stolen = 0.0;
  const int samples = 3000;
  for (int i = 0; i < samples; ++i) {
    stolen += static_cast<double>(model.sample(span, rng, &counters).ns());
  }
  const double fraction =
      stolen / (static_cast<double>(samples) * static_cast<double>(span.ns()));
  EXPECT_NEAR(fraction, model.expected_fraction(), 0.05 * model.expected_fraction());
  // The high-rate components (housekeeping at lambda=250, tenant-preempt at
  // lambda=120) batch; only the sparse tails (kworker, daemon-tail,
  // tenant-burst at lambda <= 12) fall back to exact draws — a couple of
  // percent of the ~390 events/span a naive sampler would draw.
  EXPECT_GT(counters.analytic_sums, 0u);
  const std::uint64_t naive_events = static_cast<std::uint64_t>(
      model.expected_fraction() > 0.0 ? 390.0 * samples : 0.0);
  EXPECT_LT(counters.exact_events, naive_events / 20);
}

// --------------------------------------- fast-path / slow-path equivalence

/// Drive one world through a script covering every fast path: symmetric
/// heap cycles (replayable and state-changing), uniform and scaled compute,
/// cached collectives and messages, and a mid-run algorithm flip that must
/// invalidate the collective cache.
sim::TimeNs run_script(MpiWorld& world) {
  world.mpi_init();
  const std::int64_t grow = 8 * static_cast<std::int64_t>(MiB);
  const std::vector<std::int64_t> cycle{grow, 0, -grow};
  const std::vector<std::int64_t> net_growth{grow / 4};
  for (int step = 0; step < 6; ++step) {
    world.heap_cycle(cycle);
    world.compute_bytes(32 * MiB);
    world.compute_bytes_scaled(16 * MiB, {1.0, 1.25});
    world.allreduce(64 * sim::KiB);
    world.halo_exchange(256 * sim::KiB, 6);
    if (step == 3) {
      world.heap_cycle(net_growth);  // state-changing: exercises the slow path
      world.collective_model().algo = AllreduceAlgo::kRing;
    }
  }
  world.barrier();
  return world.finish();
}

struct WorldOutcome {
  sim::TimeNs clock;
  MpiWorld::PhaseBreakdown breakdown;
  std::vector<mem::HeapStats> heap;
  MpiWorld::EngineCounters engine;
  std::size_t bandwidths = 0;  ///< distinct lane bandwidths the world starts with
};

WorldOutcome outcome_for(kernel::OsKind os, bool fast_paths, void (*setup)(Job&) = nullptr) {
  const Machine m = SystemConfig::for_os(os).machine(4);
  Job job{m, JobSpec{4, 8, 1}, 1};
  if (setup != nullptr) setup(job);
  MpiWorld world{job, 1234};
  world.set_fast_paths(fast_paths);
  WorldOutcome out;
  std::set<double> gbps;
  for (int i = 0; i < job.lane_count(); ++i) gbps.insert(job.lane_effective_gbps(i));
  out.bandwidths = gbps.size();
  out.clock = run_script(world);
  out.breakdown = world.breakdown();
  for (int i = 0; i < job.lane_count(); ++i) out.heap.push_back(job.lane(i).heap()->stats());
  out.engine = world.engine_counters();
  return out;
}

/// Bit-identical outputs: global clock, phase split, per-lane heap stats.
void expect_identical(const WorldOutcome& fast, const WorldOutcome& slow) {
  EXPECT_EQ(fast.clock.ns(), slow.clock.ns());
  EXPECT_EQ(fast.breakdown.compute.ns(), slow.breakdown.compute.ns());
  EXPECT_EQ(fast.breakdown.noise.ns(), slow.breakdown.noise.ns());
  EXPECT_EQ(fast.breakdown.comm.ns(), slow.breakdown.comm.ns());
  ASSERT_EQ(fast.heap.size(), slow.heap.size());
  for (std::size_t i = 0; i < fast.heap.size(); ++i) {
    EXPECT_EQ(fast.heap[i].queries, slow.heap[i].queries) << "lane " << i;
    EXPECT_EQ(fast.heap[i].grows, slow.heap[i].grows) << "lane " << i;
    EXPECT_EQ(fast.heap[i].shrinks, slow.heap[i].shrinks) << "lane " << i;
    EXPECT_EQ(fast.heap[i].current, slow.heap[i].current) << "lane " << i;
    EXPECT_EQ(fast.heap[i].max_break, slow.heap[i].max_break) << "lane " << i;
    EXPECT_EQ(fast.heap[i].cum_growth, slow.heap[i].cum_growth) << "lane " << i;
    EXPECT_EQ(fast.heap[i].faults, slow.heap[i].faults) << "lane " << i;
    EXPECT_EQ(fast.heap[i].zeroed, slow.heap[i].zeroed) << "lane " << i;
  }
}

void expect_equivalent(kernel::OsKind os) {
  const WorldOutcome fast = outcome_for(os, true);
  const WorldOutcome slow = outcome_for(os, false);
  expect_identical(fast, slow);

  // The fast world actually took the fast paths; the slow one never did.
  EXPECT_GT(fast.engine.heap_fast_lanes, 0u);
  EXPECT_GT(fast.engine.compute_uniform_fast, 0u);
  EXPECT_GT(fast.engine.coll_cache_hits, 0u);
  EXPECT_GT(fast.engine.msg_cache_hits, 0u);
  EXPECT_EQ(slow.engine.heap_fast_lanes, 0u);
  EXPECT_EQ(slow.engine.compute_uniform_fast, 0u);
  EXPECT_EQ(slow.engine.coll_cache_hits, 0u);
  EXPECT_EQ(slow.engine.msg_cache_hits, 0u);
  // The state-changing cycle fell back to per-lane simulation on both.
  EXPECT_GT(fast.engine.heap_slow_lanes, 0u);
}

/// Every Linux lane prefers the first MCDRAM domain and first-touches its
/// working set after the previous lane: the early lanes fit in that domain,
/// the later ones spill into DDR4 — more than one bandwidth class.
void spill_mcdram(Job& job) {
  kernel::Kernel& k = job.kernel();
  const hw::DomainId hbm0 = job.node().topo().domains_of_kind(hw::MemKind::kMcdram).front();
  for (int i = 0; i < job.lane_count(); ++i) {
    kernel::Process& p = job.lane(i);
    const auto r =
        k.sys_mmap(p, 1536 * MiB, mem::VmaKind::kAnon, mem::MemPolicy::preferred(hbm0));
    ASSERT_EQ(r.err, kernel::kOk);
    (void)k.touch(p, *r.vma, 1536 * MiB, 1);
  }
}

TEST(FastPaths, LinuxWorldBitIdenticalToSlowPaths) {
  expect_equivalent(kernel::OsKind::kLinux);
}

TEST(FastPaths, McKernelWorldBitIdenticalToSlowPaths) {
  expect_equivalent(kernel::OsKind::kMcKernel);
}

TEST(FastPaths, MosWorldBitIdenticalToSlowPaths) {
  expect_equivalent(kernel::OsKind::kMos);
}

TEST(FastPaths, SplitBandwidthClassesBitIdenticalToSlowPaths) {
  const WorldOutcome fast = outcome_for(kernel::OsKind::kLinux, true, spill_mcdram);
  const WorldOutcome slow = outcome_for(kernel::OsKind::kLinux, false, spill_mcdram);
  ASSERT_GE(fast.bandwidths, 2u);
  expect_identical(fast, slow);
  // Compute was priced per class, and heap cycles still replayed across
  // lanes of different bandwidth classes (they share one heap state).
  EXPECT_GT(fast.engine.compute_lane_loops, 0u);
  EXPECT_GT(fast.engine.heap_fast_lanes, 0u);
  EXPECT_EQ(fast.engine.heap_fast_lanes + fast.engine.heap_slow_lanes,
            slow.engine.heap_slow_lanes);
}

/// Linux lanes whose breaks differ but were never touched: the same (zero)
/// heap residency, hence one bandwidth, but a different heap state per lane.
void stagger_breaks(Job& job) {
  for (int i = 0; i < job.lane_count(); ++i) {
    (void)job.kernel().sys_brk(job.lane(i), static_cast<std::int64_t>(i) * 3 * MiB / 2);
  }
}

TEST(FastPaths, DivergentHeapStatesAreNeverReplayed) {
  const WorldOutcome fast = outcome_for(kernel::OsKind::kLinux, true, stagger_breaks);
  const WorldOutcome slow = outcome_for(kernel::OsKind::kLinux, false, stagger_breaks);
  ASSERT_EQ(fast.bandwidths, 1u);
  expect_identical(fast, slow);
  // The lanes' heap states never converge, so no cycle may be replayed.
  EXPECT_EQ(fast.engine.heap_fast_lanes, 0u);
  EXPECT_GT(fast.engine.compute_uniform_fast, 0u);
}

TEST(LaneClasses, RegroupingKeepsPendingWork) {
  // Work is order-free within a window: per-class compute pending when a
  // state-changing heap cycle regroups the lanes must survive the regroup.
  const Machine m = SystemConfig::linux_default().machine(4);
  const std::vector<std::int64_t> net_growth{4 * static_cast<std::int64_t>(MiB)};
  auto run = [&](bool compute_first) {
    Job job{m, JobSpec{4, 8, 1}, 1};
    spill_mcdram(job);
    MpiWorld world{job, 77};
    if (compute_first) world.compute_bytes(64 * MiB);
    world.heap_cycle(net_growth);
    if (!compute_first) world.compute_bytes(64 * MiB);
    world.allreduce(8);
    EXPECT_GT(world.engine_counters().compute_lane_loops, 0u);
    return world.finish().ns();
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(LaneClasses, ShmSetupChangesNoLaneKey) {
  // MpiWorld::mpi_init() keeps the lane classes it built at construction:
  // lane bandwidth excludes the kShm VMAs the segment maps, and the shm
  // set-up leaves the heaps alone. Pin both over the fig4 grid: each app's
  // own node counts among 1, 16, 256 and 2,048, on all three kernels.
  const std::vector<SystemConfig> configs{SystemConfig::linux_default(),
                                          SystemConfig::mckernel(), SystemConfig::mos()};
  int worlds = 0;
  for (const std::string& name : workloads::fig4_app_names()) {
    for (const SystemConfig& config : configs) {
      for (const int nodes : {1, 16, 256, 2048}) {
        const auto app = workloads::make_app(name);
        ASSERT_NE(app, nullptr) << name;
        const std::vector<int> counts = app->node_counts();
        if (std::find(counts.begin(), counts.end(), nodes) == counts.end()) continue;
        const Machine m = config.machine(nodes);
        Job job{m, app->spec(nodes), 5};
        app->setup(job);
        const auto lane_keys = [&job] {
          std::vector<std::pair<double, std::uint64_t>> keys;
          for (int i = 0; i < job.lane_count(); ++i) {
            keys.emplace_back(job.lane_effective_gbps(i),
                              job.lane(i).heap()->state_fingerprint());
          }
          return keys;
        };
        const auto before = lane_keys();
        (void)setup_mpi_shm(job, 128 * MiB);  // mpi_init()'s default segment
        EXPECT_EQ(lane_keys(), before) << name << " on " << config.label() << " at "
                                       << nodes << " nodes";
        ++worlds;
      }
    }
  }
  // 25 (app, node count) cells: LAMMPS starts at 16 nodes, MiniFE at 16
  // and stops at 1,024.
  EXPECT_EQ(worlds, 25 * 3);
}

TEST(FastPaths, FreshWorldBandwidthSentinelNeverLeaks) {
  // A fresh world with nothing resident prices every lane at the DDR4
  // fallback: streamed bytes must take real (positive) time, and the same
  // time on the uniform and per-lane paths.
  const Machine m = SystemConfig::linux_default().machine(1);
  Job job{m, JobSpec{1, 8, 1}, 1};
  MpiWorld world{job, 99};
  world.refresh_lanes();
  world.compute_bytes(512 * MiB);
  const sim::TimeNs fast_clock = world.finish();
  EXPECT_GT(fast_clock.ns(), 0);

  Job slow_job{m, JobSpec{1, 8, 1}, 1};
  MpiWorld slow_world{slow_job, 99};
  slow_world.set_fast_paths(false);
  slow_world.compute_bytes(512 * MiB);
  EXPECT_EQ(slow_world.finish().ns(), fast_clock.ns());
}

// ------------------------------------------- serial vs pooled ledger bytes

TEST(LedgerDeterminism, SerialAndPooledCampaignsRenderIdenticalJson) {
  core::CampaignSpec spec;
  spec.apps = {"MiniFE", "Lulesh2.0"};
  spec.configs = {SystemConfig::linux_default(), SystemConfig::mos()};
  spec.reps = 2;
  spec.seed = 4242;
  spec.max_nodes = 16;

  auto render = [&spec](int threads) {
    sim::ThreadPool pool(threads);
    core::CellCache cache;
    core::Campaign campaign(pool, cache);
    const auto cells = campaign.run(spec);
    obs::RunLedger ledger = core::bench_ledger("determinism_probe", "test", spec.seed);
    for (const core::CellResult& cell : cells) {
      core::record_run_stats(
          ledger, cell.app + "." + cell.config_label + ".n" + std::to_string(cell.nodes),
          cell.stats);
    }
    return ledger.to_json();  // no host section written -> fully deterministic
  };

  const std::string serial = render(1);
  const std::string pooled = render(8);
  EXPECT_EQ(serial, pooled);
}

}  // namespace
