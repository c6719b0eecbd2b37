// Unit tests for mkos::alloc — the VMem interval arena (and the batched
// carve/free it serves slab runs with, checked against one call per range),
// the per-CPU magazine SlabCache (refill cascade, resize hysteresis, drain,
// slab runs at the arena stride), the DomainAllocator traffic hook that
// attributes kernel-heap refills per lane, the per-kernel personality
// separation, and the inert-by-default contract (an AllocSpec{} config keeps
// its pre-subsystem fingerprint/digest), and ledger identity between a serial
// sweep and a pooled campaign with the model enabled.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "alloc/model.hpp"
#include "alloc/slab.hpp"
#include "alloc/spec.hpp"
#include "alloc/vmem.hpp"
#include "core/campaign.hpp"
#include "core/config.hpp"
#include "core/experiment.hpp"
#include "hw/knl.hpp"
#include "mem/phys_allocator.hpp"
#include "sim/thread_pool.hpp"
#include "sim/units.hpp"
#include "workloads/app.hpp"

namespace {

using namespace mkos;

// ----------------------------------------------------------------- VmemArena

alloc::AllocSpec enabled_spec() {
  alloc::AllocSpec spec;
  spec.model_allocator = true;
  return spec;
}

alloc::VmemArena make_arena(sim::Bytes backing,
                            sim::Bytes quantum = 4 * sim::KiB,
                            sim::Bytes import_quantum = 64 * sim::KiB) {
  // Import grants in import_quantum multiples until `backing` runs out.
  auto import = [backing, granted = sim::Bytes{0}](sim::Bytes want) mutable {
    const sim::Bytes left = backing > granted ? backing - granted : 0;
    const sim::Bytes give = want <= left ? want : 0;
    granted += give;
    return give;
  };
  return alloc::VmemArena("test", quantum, import_quantum, import,
                          sim::TimeNs{50}, sim::TimeNs{400});
}

TEST(VmemArena, AllocImportsAndQuantumCacheServesTheFree) {
  alloc::VmemArena arena = make_arena(sim::Bytes{1} * sim::MiB);
  const alloc::VmemAlloc a = arena.alloc(4 * sim::KiB);
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(arena.stats().imports, 1u);      // empty arena imported first
  EXPECT_EQ(a.cost.ns(), 400 + 50);          // one import plus one segment op
  EXPECT_EQ(arena.span_bytes(), 64 * sim::KiB);

  (void)arena.free(a.offset, 4 * sim::KiB);  // lands in the quantum cache
  const alloc::VmemAlloc b = arena.alloc(4 * sim::KiB);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(b.offset, a.offset);             // constant-time pop of the same slot
  EXPECT_EQ(b.cost.ns(), 50);
  EXPECT_EQ(arena.stats().qcache_hits, 1u);
  EXPECT_EQ(arena.stats().allocs, 2u);
  EXPECT_EQ(arena.stats().frees, 1u);
}

TEST(VmemArena, FreeCoalescesNeighborsBackToOneSegment) {
  alloc::VmemArena arena = make_arena(sim::Bytes{1} * sim::MiB);
  // 5 quanta = 20 KiB: above the quantum-cache classes, so frees take the
  // segment path and must coalesce.
  const sim::Bytes sz = 20 * sim::KiB;
  const alloc::VmemAlloc a = arena.alloc(sz);
  const alloc::VmemAlloc b = arena.alloc(sz);
  const alloc::VmemAlloc c = arena.alloc(sz);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  ASSERT_TRUE(c.ok);
  ASSERT_EQ(arena.free_segment_count(), 1u);  // one tail remainder
  // Free out of order: middle, head, tail — ends fully coalesced.
  (void)arena.free(b.offset, sz);
  EXPECT_EQ(arena.free_segment_count(), 2u);
  (void)arena.free(a.offset, sz);
  EXPECT_EQ(arena.free_segment_count(), 2u);  // a+b merged, tail separate
  (void)arena.free(c.offset, sz);
  EXPECT_EQ(arena.free_segment_count(), 1u);  // whole span free again
}

TEST(VmemArena, ExhaustedSourceFailsTheAllocAndCountsIt) {
  alloc::VmemArena arena = make_arena(sim::Bytes{0});  // source grants nothing
  const alloc::VmemAlloc a = arena.alloc(4 * sim::KiB);
  EXPECT_FALSE(a.ok);
  EXPECT_EQ(a.cost.ns(), 400);  // the failed import attempt is still paid
  EXPECT_EQ(arena.stats().import_fails, 1u);
  EXPECT_EQ(arena.span_bytes(), 0u);  // short grants must not grow the span
  EXPECT_EQ(arena.stats().allocs, 0u);
}

// ------------------------------------------- batched carve and free runs

constexpr sim::Bytes kQ = 4 * sim::KiB;  // quantum of the equivalence arenas

struct Carve {
  std::vector<sim::Bytes> offsets;
  sim::TimeNs cost{0};
};

// Leave holes of assorted lengths in the segment list and offsets in the
// quantum caches, so a batch meets more than one fresh segment.
void prime(alloc::VmemArena& arena, sim::Bytes size) {
  const sim::Bytes sizes[] = {size, 3 * kQ, 6 * kQ, size, 11 * kQ};
  std::vector<std::pair<sim::Bytes, sim::Bytes>> live;
  for (int i = 0; i < 20; ++i) {
    const sim::Bytes b = sizes[i % 5];
    const alloc::VmemAlloc a = arena.alloc(b);
    ASSERT_TRUE(a.ok);
    live.emplace_back(a.offset, b);
  }
  for (std::size_t i = 0; i < live.size(); i += 2) {
    (void)arena.free(live[i].first, live[i].second);
  }
}

Carve carve_singles(alloc::VmemArena& arena, sim::Bytes size,
                    std::uint64_t count) {
  Carve out;
  for (std::uint64_t i = 0; i < count; ++i) {
    const alloc::VmemAlloc a = arena.alloc(size);
    out.cost += a.cost;
    if (!a.ok) break;
    out.offsets.push_back(a.offset);
  }
  return out;
}

Carve carve_batch(alloc::VmemArena& arena, sim::Bytes size,
                  std::uint64_t count, std::vector<alloc::VmemRun>& runs) {
  Carve out;
  const std::uint64_t granted = arena.alloc_n(size, count, out.cost, runs);
  const sim::Bytes stride = sim::align_up(size, arena.quantum());
  for (const alloc::VmemRun& run : runs) {
    for (std::uint64_t i = 0; i < run.count; ++i) {
      out.offsets.push_back(run.offset + i * stride);
    }
  }
  EXPECT_EQ(out.offsets.size(), granted);
  return out;
}

void expect_same_arena(const alloc::VmemArena& a, const alloc::VmemArena& b) {
  EXPECT_EQ(a.stats().allocs, b.stats().allocs);
  EXPECT_EQ(a.stats().frees, b.stats().frees);
  EXPECT_EQ(a.stats().qcache_hits, b.stats().qcache_hits);
  EXPECT_EQ(a.stats().imports, b.stats().imports);
  EXPECT_EQ(a.stats().import_fails, b.stats().import_fails);
  EXPECT_EQ(a.stats().import_bytes, b.stats().import_bytes);
  EXPECT_EQ(a.free_segment_count(), b.free_segment_count());
  EXPECT_EQ(a.span_bytes(), b.span_bytes());
}

// Free the newest `trim` slabs, one range at a time from the back.
sim::TimeNs trim_singles(alloc::VmemArena& arena, sim::Bytes size,
                         std::vector<sim::Bytes>& offsets, std::uint64_t trim) {
  sim::TimeNs cost{0};
  for (; trim > 0; --trim) {
    cost += arena.free(offsets.back(), size);
    offsets.pop_back();
  }
  return cost;
}

// The same trim as SlabCache::reclaim makes it: one free_n per run touched.
sim::TimeNs trim_runs(alloc::VmemArena& arena, sim::Bytes size,
                      std::vector<alloc::VmemRun>& runs, std::uint64_t trim) {
  const sim::Bytes stride = sim::align_up(size, arena.quantum());
  sim::TimeNs cost{0};
  while (trim > 0) {
    alloc::VmemRun& run = runs.back();
    const std::uint64_t n = std::min(trim, run.count);
    run.count -= n;
    cost += arena.free_n(run.offset + run.count * stride, size, n);
    if (run.count == 0) runs.pop_back();
    trim -= n;
  }
  return cost;
}

// Several single carves after the batch expose any difference left in the
// quantum caches or the segment list.
void expect_same_future(alloc::VmemArena& a, alloc::VmemArena& b,
                        sim::Bytes size) {
  for (const sim::Bytes probe : {size, kQ, 2 * kQ, 7 * kQ}) {
    const Carve pa = carve_singles(a, probe, 6);
    const Carve pb = carve_singles(b, probe, 6);
    EXPECT_EQ(pa.offsets, pb.offsets);
    EXPECT_EQ(pa.cost.ns(), pb.cost.ns());
  }
  expect_same_arena(a, b);
}

// Carve `count` ranges of `quanta` quanta into two identically primed
// arenas, one call per range against one batch, then trim part of the last
// run and later all but one range, comparing after every step.
void check_batch_matches_singles(std::uint64_t quanta, std::uint64_t count,
                                 sim::Bytes backing, bool expect_dry) {
  SCOPED_TRACE(::testing::Message() << quanta << " quanta x " << count);
  const sim::Bytes size = quanta * kQ;
  alloc::VmemArena single = make_arena(backing);
  alloc::VmemArena batch = make_arena(backing);
  prime(single, size);
  prime(batch, size);
  ASSERT_NO_FATAL_FAILURE(expect_same_arena(single, batch));
  const std::uint64_t imports_before = batch.stats().imports;
  const std::uint64_t fails_before = batch.stats().import_fails;

  Carve s = carve_singles(single, size, count);
  std::vector<alloc::VmemRun> runs;
  const Carve b = carve_batch(batch, size, count, runs);
  EXPECT_EQ(s.offsets, b.offsets);
  EXPECT_EQ(s.cost.ns(), b.cost.ns());
  expect_same_arena(single, batch);
  if (expect_dry) {
    EXPECT_LT(b.offsets.size(), count);
    EXPECT_EQ(batch.stats().import_fails, fails_before + 1);
  } else {
    EXPECT_EQ(b.offsets.size(), count);
    EXPECT_EQ(batch.stats().import_fails, fails_before);
  }
  if (count > 100) {
    EXPECT_GT(batch.stats().imports, imports_before);
  }

  if (!runs.empty()) {
    const std::uint64_t part = (runs.back().count + 1) / 2;
    EXPECT_EQ(trim_singles(single, size, s.offsets, part).ns(),
              trim_runs(batch, size, runs, part).ns());
    expect_same_arena(single, batch);
    const std::uint64_t rest = s.offsets.empty() ? 0 : s.offsets.size() - 1;
    EXPECT_EQ(trim_singles(single, size, s.offsets, rest).ns(),
              trim_runs(batch, size, runs, rest).ns());
    expect_same_arena(single, batch);
  }
  expect_same_future(single, batch, size);
}

class VmemBatch : public ::testing::TestWithParam<int> {};

TEST_P(VmemBatch, BatchWithinTheSpanMatchesSingleCarves) {
  check_batch_matches_singles(static_cast<std::uint64_t>(GetParam()), 5,
                              64 * sim::MiB, false);
}

TEST_P(VmemBatch, BatchAcrossImportsMatchesSingleCarves) {
  check_batch_matches_singles(static_cast<std::uint64_t>(GetParam()), 200,
                              64 * sim::MiB, false);
}

TEST_P(VmemBatch, SourceRunningDryMidBatchFailsOnceAndStops) {
  check_batch_matches_singles(static_cast<std::uint64_t>(GetParam()), 1000,
                              1 * sim::MiB, true);
}

// 1–4 quanta take the quantum-cache classes; 5 and 9 the segment path.
INSTANTIATE_TEST_SUITE_P(Quanta, VmemBatch,
                         ::testing::Values(1, 2, 3, 4, 5, 9));

TEST(VmemArena, ZeroCountBatchIsANoOp) {
  alloc::VmemArena arena = make_arena(sim::Bytes{1} * sim::MiB);
  std::vector<alloc::VmemRun> runs;
  sim::TimeNs cost{0};
  EXPECT_EQ(arena.alloc_n(8 * sim::KiB, 0, cost, runs), 0u);
  EXPECT_TRUE(runs.empty());
  EXPECT_EQ(cost.ns(), 0);
  EXPECT_EQ(arena.stats().imports, 0u);
}

// ----------------------------------------------------------------- SlabCache

TEST(SlabCache, EmptyDepotCascadesToSlabConstruction) {
  alloc::VmemArena arena = make_arena(sim::Bytes{4} * sim::MiB);
  alloc::SlabCosts costs;
  costs.cpu_hit = sim::TimeNs{10};
  costs.depot_lock = sim::TimeNs{50};
  costs.zone_lock = sim::TimeNs{200};
  // 64 KiB slabs of 4 KiB objects = 16 rounds per slab.
  alloc::SlabCache cache(&arena, 4 * sim::KiB, 64 * sim::KiB, costs,
                         alloc::MagazinePolicy{}, /*cpus=*/2);

  const sim::TimeNs cost = cache.churn(0, 40, 1, 1.0, 1.0);
  // Nothing cached anywhere: every round misses through to fresh slabs.
  EXPECT_EQ(cache.stats().magazine_hits, 0u);
  EXPECT_EQ(cache.stats().magazine_misses, 40u);
  EXPECT_EQ(cache.stats().depot_loads, 0u);  // depot was empty
  EXPECT_EQ(cache.stats().slab_creates, 3u);  // ceil(40 / 16)
  EXPECT_GE(arena.stats().imports, 1u);       // cascade reached the source
  // The burst's 40 frees: the CPU keeps two magazines (16), rest unloads.
  EXPECT_EQ(cache.cached_rounds(0), 16u);
  EXPECT_EQ(cache.depot_rounds(), (3u * 16u - 40u) + 24u);
  EXPECT_GT(cost.ns(), (costs.cpu_hit * 80).ns());  // locks + arena on top

  // Second identical burst: the cache and depot now serve part of it.
  (void)cache.churn(0, 40, 1, 1.0, 1.0);
  EXPECT_EQ(cache.stats().magazine_hits, 16u);
  EXPECT_GT(cache.stats().depot_loads, 0u);
}

TEST(SlabCache, MagazineResizeGrowsUnderPressureAndShrinksWhenQuiet) {
  alloc::VmemArena arena = make_arena(sim::Bytes{16} * sim::MiB);
  alloc::MagazinePolicy policy;
  policy.min_rounds = 8;
  policy.max_rounds = 64;
  policy.grow_trip_threshold = 4;
  policy.shrink_quiet_bursts = 2;
  alloc::SlabCache cache(&arena, 4 * sim::KiB, 64 * sim::KiB,
                         alloc::SlabCosts{}, policy, 1);
  ASSERT_EQ(cache.magazine_rounds(0), 8);

  // A large burst forces many depot unload trips -> grow.
  (void)cache.churn(0, 200, 1, 1.0, 1.0);
  EXPECT_EQ(cache.magazine_rounds(0), 16);
  EXPECT_EQ(cache.stats().resizes_up, 1u);

  // Bursts served entirely from the per-CPU layer are depot-quiet; after
  // the configured streak the magazine halves again.
  (void)cache.churn(0, 8, 1, 1.0, 1.0);
  EXPECT_EQ(cache.magazine_rounds(0), 16);  // quiet streak not complete
  (void)cache.churn(0, 8, 1, 1.0, 1.0);
  EXPECT_EQ(cache.magazine_rounds(0), 8);
  EXPECT_EQ(cache.stats().resizes_down, 1u);
}

TEST(SlabCache, DrainReturnsPerCpuRoundsToTheDepot) {
  alloc::VmemArena arena = make_arena(sim::Bytes{4} * sim::MiB);
  alloc::SlabCache cache(&arena, 4 * sim::KiB, 64 * sim::KiB,
                         alloc::SlabCosts{}, alloc::MagazinePolicy{}, 2);
  (void)cache.churn(1, 40, 2, 1.0, 1.0);
  const std::uint64_t cached = cache.cached_rounds(1);
  ASSERT_GT(cached, 0u);
  const std::uint64_t depot = cache.depot_rounds();

  cache.drain(1);
  EXPECT_EQ(cache.cached_rounds(1), 0u);
  EXPECT_EQ(cache.depot_rounds(), depot + cached);
  const std::uint64_t unloads = cache.stats().depot_unloads;
  cache.drain(1);  // idempotent on an empty cache
  EXPECT_EQ(cache.stats().depot_unloads, unloads);
}

TEST(SlabCache, LockCostsScaleWithActiveCpus) {
  alloc::VmemArena a1 = make_arena(sim::Bytes{4} * sim::MiB);
  alloc::VmemArena a2 = make_arena(sim::Bytes{4} * sim::MiB);
  alloc::SlabCosts costs;
  costs.cpu_hit = sim::TimeNs{10};
  costs.depot_lock = sim::TimeNs{60};
  costs.zone_lock = sim::TimeNs{220};
  costs.lock_contention = 0.35;
  alloc::SlabCache alone(&a1, 4 * sim::KiB, 64 * sim::KiB, costs,
                         alloc::MagazinePolicy{}, 64);
  alloc::SlabCache crowded(&a2, 4 * sim::KiB, 64 * sim::KiB, costs,
                           alloc::MagazinePolicy{}, 64);
  const sim::TimeNs solo = alone.churn(0, 100, 1, 1.0, 1.0);
  const sim::TimeNs packed = crowded.churn(0, 100, 64, 1.0, 1.0);
  EXPECT_GT(packed.ns(), solo.ns());
}

TEST(SlabCache, OddSlabSpanRunsUseTheArenaStride) {
  // NodeAllocModel::cache_for gives a 70 KiB object a 70 KiB slab span on
  // Linux, which the 4 KiB-quantum arena rounds to 72 KiB. Partial trims
  // index into runs at that stride; any other stride frees the wrong ranges.
  const alloc::PersonalityParams p =
      alloc::params_for(kernel::OsKind::kLinux, enabled_spec());
  const sim::Bytes obj = 70 * sim::KiB;
  alloc::VmemArena arena = make_arena(sim::Bytes{64} * sim::MiB,
                                      p.vmem_quantum, p.import_quantum);
  alloc::SlabCache cache(&arena, obj, std::max(p.slab_span, obj),
                         alloc::SlabCosts{}, p.magazines, 2);
  for (int burst = 0; burst < 6; ++burst) {
    (void)cache.churn(burst % 2, 40 + 7 * static_cast<std::uint64_t>(burst),
                      2, 1.0, 1.0);
  }
  cache.drain(0);
  cache.drain(1);
  const std::uint64_t slabs = cache.stats().slab_creates;
  ASSERT_GT(slabs, 3u);
  ASSERT_EQ(cache.depot_rounds(), slabs);  // one 70 KiB round per slab

  while (cache.depot_rounds() > 0) (void)cache.reclaim(3);
  EXPECT_EQ(cache.stats().slab_frees, slabs);
  EXPECT_EQ(arena.stats().frees, slabs);
  EXPECT_EQ(arena.free_segment_count(), 1u);
  // The one segment is the whole span: carving it needs no import.
  const std::uint64_t imports = arena.stats().imports;
  EXPECT_TRUE(arena.alloc(arena.span_bytes()).ok);
  EXPECT_EQ(arena.stats().imports, imports);
}

// ------------------------------------------------- DomainAllocator traffic

TEST(TrafficHook, AttributesBestEffortAllocationsToTheTaggedCaller) {
  const hw::NodeTopology topo = hw::knl_snc4_flat();
  mem::PhysMemory phys(topo);
  const hw::DomainId d = topo.domains_of_kind(hw::MemKind::kDdr4).front();
  mem::DomainAllocator& da = phys.domain(d);

  std::vector<std::pair<int, sim::Bytes>> seen;
  da.set_traffic_hook([&seen](int caller, sim::Bytes length) {
    seen.emplace_back(caller, length);
  });
  ASSERT_TRUE(da.has_traffic_hook());

  (void)da.alloc_best_effort(2 * sim::MiB, 4 * sim::KiB);  // unattributed
  da.set_traffic_caller(3);
  (void)da.alloc_best_effort(1 * sim::MiB, 4 * sim::KiB);
  da.set_traffic_caller(-1);
  (void)da.alloc_best_effort(4 * sim::KiB, 4 * sim::KiB);

  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<int, sim::Bytes>{-1, 2 * sim::MiB}));
  EXPECT_EQ(seen[1], (std::pair<int, sim::Bytes>{3, 1 * sim::MiB}));
  EXPECT_EQ(seen[2], (std::pair<int, sim::Bytes>{-1, 4 * sim::KiB}));
}

// ------------------------------------------------------------ NodeAllocModel

TEST(NodeAllocModel, LinuxChurnCostsMoreThanTheLwkAtScale) {
  const hw::NodeTopology topo = hw::knl_snc4_flat();
  mem::PhysMemory phys_linux(topo);
  mem::PhysMemory phys_mos(topo);
  constexpr int kLanes = 64;
  alloc::NodeAllocModel linux_model(topo, phys_linux, kernel::OsKind::kLinux,
                                    enabled_spec(), kLanes);
  alloc::NodeAllocModel mos_model(topo, phys_mos, kernel::OsKind::kMos,
                                  enabled_spec(), kLanes);

  sim::TimeNs linux_cost{0};
  sim::TimeNs mos_cost{0};
  for (int burst = 0; burst < 4; ++burst) {
    linux_cost += linux_model.churn(0, 4000, 4 * sim::KiB);
    mos_cost += mos_model.churn(0, 4000, 4 * sim::KiB);
  }
  // Zone/depot lock contention across 64 lanes is the Linux differentiator.
  EXPECT_GT(linux_cost.ns(), 2 * mos_cost.ns());

  const alloc::AllocCounters c = linux_model.counters();
  EXPECT_GT(c.magazine_misses, 0u);
  EXPECT_GT(c.slab_creates, 0u);
  EXPECT_GT(c.vmem_imports, 0u);
  EXPECT_GT(c.refill_bytes, 0u);
  EXPECT_GT(linux_model.lane_refill_bytes(0), 0u);
}

TEST(NodeAllocModel, ChurnSequenceIsDeterministic) {
  const hw::NodeTopology topo = hw::knl_snc4_flat();
  mem::PhysMemory phys_a(topo);
  mem::PhysMemory phys_b(topo);
  alloc::NodeAllocModel a(topo, phys_a, kernel::OsKind::kMcKernel,
                          enabled_spec(), 8);
  alloc::NodeAllocModel b(topo, phys_b, kernel::OsKind::kMcKernel,
                          enabled_spec(), 8);
  for (int i = 0; i < 16; ++i) {
    const int lane = i % 8;
    EXPECT_EQ(a.churn(lane, 500 + i, 4 * sim::KiB).ns(),
              b.churn(lane, 500 + i, 4 * sim::KiB).ns());
  }
  a.drain_lanes();
  b.drain_lanes();
  EXPECT_EQ(a.counters().depot_unloads, b.counters().depot_unloads);
  EXPECT_EQ(a.counters().vmem_import_bytes, b.counters().vmem_import_bytes);
}

TEST(NodeAllocModel, LinuxReclaimDaemonTrimsTheDepot) {
  const hw::NodeTopology topo = hw::knl_snc4_flat();
  mem::PhysMemory phys(topo);
  alloc::NodeAllocModel model(topo, phys, kernel::OsKind::kLinux,
                              enabled_spec(), 4);
  // One huge burst floods the depot well past the reclaim threshold.
  (void)model.churn(0, 60000, 4 * sim::KiB);
  const alloc::AllocCounters c = model.counters();
  EXPECT_GE(c.reclaims, 1u);
  EXPECT_GE(c.reclaimed_slabs, 1u);
  EXPECT_EQ(c.reclaimed_slabs, c.slab_frees);
}

TEST(NodeAllocModel, LwkPersonalitiesNeverRunAReclaimDaemon) {
  const hw::NodeTopology topo = hw::knl_snc4_flat();
  mem::PhysMemory phys(topo);
  alloc::NodeAllocModel model(topo, phys, kernel::OsKind::kMos,
                              enabled_spec(), 4);
  (void)model.churn(0, 60000, 4 * sim::KiB);
  EXPECT_EQ(model.counters().reclaims, 0u);
}

// ------------------------------------------------------------ the contracts

TEST(AllocSpec, InertSpecKeepsFingerprintAndDigest) {
  const core::SystemConfig base = core::SystemConfig::mos();
  // Knob changes on a DISABLED spec must not perturb cache keys: the spec
  // only folds in when enabled(), like fault::Spec.
  core::SystemConfig tweaked = core::SystemConfig::mos();
  tweaked.alloc.contention_scale = 7.0;
  tweaked.alloc.magazine_cap = 32;
  EXPECT_EQ(base.fingerprint(), tweaked.fingerprint());
  EXPECT_EQ(base.digest(), tweaked.digest());
  // And the digest of an inert config must not even mention the subsystem —
  // an unconditional "alloc=off" token would invalidate every stored cell.
  EXPECT_EQ(base.digest().find("alloc"), std::string::npos);

  core::SystemConfig on = core::SystemConfig::mos();
  on.alloc.model_allocator = true;
  EXPECT_NE(on.fingerprint(), base.fingerprint());
  EXPECT_NE(on.digest().find("alloc="), std::string::npos);

  on.alloc.contention_scale = 0.5;
  EXPECT_NE(on.fingerprint(), core::SystemConfig::mos().fingerprint());
}

TEST(AllocModel, SerialAndPooledSweepLedgersAreByteIdentical) {
  // The model's vmem/magazine state is per rep, so fanning the sweep's cells
  // over a pool must not move a single alloc.* counter.
  core::SystemConfig config = core::SystemConfig::mos();
  config.alloc.model_allocator = true;
  constexpr int kReps = 2;
  constexpr std::uint64_t kSeed = 99;
  constexpr int kMaxNodes = 16;

  auto app = workloads::make_xsbench_interleave();
  obs::RunLedger serial;
  const auto sweep = core::scaling_sweep(*app, config, kReps, kSeed, kMaxNodes, &serial);

  core::CampaignSpec spec;
  spec.apps = {"XSBench/interleave"};
  spec.configs = {config};
  for (const core::ScalingPoint& p : sweep) spec.nodes.push_back(p.nodes);
  spec.reps = kReps;
  spec.seed = kSeed;
  sim::ThreadPool pool{4};
  core::CellCache cache;
  core::Campaign campaign(pool, cache);
  const std::vector<core::CellResult> cells = campaign.run(spec);
  ASSERT_EQ(cells.size(), sweep.size());
  obs::RunLedger pooled;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].nodes, sweep[i].nodes);
    EXPECT_EQ(cells[i].stats.median(), sweep[i].median);
    pooled.merge(cells[i].stats.ledger);
  }

  const std::string json = serial.to_json();
  EXPECT_EQ(json, pooled.to_json());
  // The enabled model must surface its counter group in the merged ledger.
  EXPECT_NE(json.find("\"alloc.magazine_hits\""), std::string::npos);
  EXPECT_NE(json.find("\"alloc.vmem_imports\""), std::string::npos);
}

}  // namespace
