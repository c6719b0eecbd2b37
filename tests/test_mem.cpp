// Unit tests: physical allocator, address space, placement engine.

#include <gtest/gtest.h>

#include <array>

#include "hw/knl.hpp"
#include "mem/address_space.hpp"
#include "mem/phys_allocator.hpp"
#include "mem/placement.hpp"

namespace {

using namespace mkos;
using namespace mkos::mem;
using mkos::sim::Bytes;
using mkos::sim::GiB;
using mkos::sim::KiB;
using mkos::sim::MiB;

// -------------------------------------------------------- DomainAllocator

TEST(DomainAllocator, ContiguousAllocFreeRoundTrip) {
  DomainAllocator a{0, 1 * GiB};
  EXPECT_EQ(a.free_bytes(), 1 * GiB);
  auto e = a.alloc_contiguous(100 * MiB, 2 * MiB);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->length, 100 * MiB);
  EXPECT_TRUE(sim::is_aligned(e->start, 2 * MiB));
  EXPECT_EQ(a.free_bytes(), 1 * GiB - 100 * MiB);
  a.free(*e);
  EXPECT_EQ(a.free_bytes(), 1 * GiB);
  EXPECT_EQ(a.free_extent_count(), 1u);  // coalesced back to one run
}

TEST(DomainAllocator, AlignmentWasteIsReturnedAsFreeSpace) {
  DomainAllocator a{0, 16 * MiB};
  auto first = a.alloc_contiguous(4 * KiB, 4 * KiB);  // offset 0
  ASSERT_TRUE(first.has_value());
  auto big = a.alloc_contiguous(2 * MiB, 2 * MiB);  // must skip to 2 MiB boundary
  ASSERT_TRUE(big.has_value());
  EXPECT_TRUE(sim::is_aligned(big->start, 2 * MiB));
  // The gap between 4 KiB and 2 MiB is still allocatable.
  auto gap = a.alloc_contiguous(1 * MiB, 4 * KiB);
  ASSERT_TRUE(gap.has_value());
  EXPECT_LT(gap->start, big->start);
}

TEST(DomainAllocator, ContiguousFailsWhenFragmented) {
  DomainAllocator a{0, 64 * MiB};
  // Allocate everything as 1 MiB pieces, free every other one.
  std::vector<Extent> pieces;
  for (int i = 0; i < 64; ++i) {
    auto e = a.alloc_contiguous(1 * MiB, 1 * MiB);
    ASSERT_TRUE(e.has_value());
    pieces.push_back(*e);
  }
  for (std::size_t i = 0; i < pieces.size(); i += 2) a.free(pieces[i]);
  EXPECT_EQ(a.free_bytes(), 32 * MiB);
  EXPECT_FALSE(a.alloc_contiguous(2 * MiB, 1 * MiB).has_value());
  EXPECT_EQ(a.largest_free_extent(), 1 * MiB);
}

TEST(DomainAllocator, BestEffortCollectsFragments) {
  DomainAllocator a{0, 8 * MiB};
  auto hold = a.alloc_contiguous(3 * MiB, 1 * MiB);
  ASSERT_TRUE(hold.has_value());
  auto got = a.alloc_best_effort(16 * MiB, 4 * KiB);  // asks for more than exists
  Bytes total = 0;
  for (const auto& e : got) total += e.length;
  EXPECT_EQ(total, 5 * MiB);  // everything that was left
  EXPECT_EQ(a.free_bytes(), 0u);
}

TEST(DomainAllocator, BestEffortHonorsGranule) {
  DomainAllocator a{0, 7 * MiB};
  auto got = a.alloc_best_effort(7 * MiB, 2 * MiB);
  Bytes total = 0;
  for (const auto& e : got) {
    EXPECT_TRUE(sim::is_aligned(e.start, 2 * MiB));
    EXPECT_TRUE(sim::is_aligned(e.length, 2 * MiB));
    total += e.length;
  }
  EXPECT_EQ(total, 6 * MiB);  // 7 MiB rounds down to three 2 MiB granules
}

TEST(DomainAllocator, PinUnmovableDestroysContiguity) {
  DomainAllocator a{0, 24 * GiB};
  sim::Rng rng{5};
  EXPECT_EQ(a.largest_free_extent(), 24 * GiB);
  const Bytes pinned = a.pin_unmovable(192 * MiB, 24, rng);
  EXPECT_GT(pinned, 0u);
  EXPECT_LT(a.largest_free_extent(), 24 * GiB);
  EXPECT_GT(a.free_extent_count(), 8u);
}

TEST(DomainAllocator, DoubleFreeAborts) {
  DomainAllocator a{0, 1 * GiB};
  auto e = a.alloc_contiguous(1 * MiB, 4 * KiB);
  ASSERT_TRUE(e.has_value());
  a.free(*e);
  EXPECT_DEATH(a.free(*e), "precondition");
}

// ------------------------------------------------------------ AddressSpace

TEST(AddressSpace, MapAssignsDisjointRanges) {
  AddressSpace as;
  Vma& a = as.map(1 * MiB, VmaKind::kAnon, MemPolicy::standard());
  Vma& b = as.map(2 * MiB, VmaKind::kAnon, MemPolicy::standard());
  EXPECT_GE(b.start, a.end());
  EXPECT_EQ(as.vma_count(), 2u);
  EXPECT_EQ(as.mapped_bytes(), 3 * MiB);
}

TEST(AddressSpace, LengthRoundsToPage) {
  AddressSpace as;
  Vma& v = as.map(100, VmaKind::kAnon, MemPolicy::standard());
  EXPECT_EQ(v.length, 4 * KiB);
}

TEST(AddressSpace, FindLocatesContainingVma) {
  AddressSpace as;
  Vma& v = as.map(1 * MiB, VmaKind::kHeap, MemPolicy::standard());
  EXPECT_EQ(as.find(v.start), &v);
  EXPECT_EQ(as.find(v.start + v.length / 2), &v);
  EXPECT_EQ(as.find(v.end()), nullptr);
  EXPECT_EQ(as.find(v.start - 1), nullptr);
}

TEST(AddressSpace, UnmapReturnsVmaWithExtents) {
  AddressSpace as;
  Vma& v = as.map(1 * MiB, VmaKind::kAnon, MemPolicy::standard());
  Placement backing;
  backing.add(0, PageSize::k4K, 1 * MiB);
  as.attach(v, backing, {Extent{0, 0, 1 * MiB}});
  EXPECT_EQ(as.resident_bytes(), 1 * MiB);
  auto out = as.unmap(v.start);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->extents().size(), 1u);
  EXPECT_EQ(as.resident_bytes(), 0u);
  EXPECT_EQ(as.vma_count(), 0u);
  EXPECT_FALSE(as.unmap(0x1234).has_value());
}

TEST(Placement, FractionAccounting) {
  const hw::NodeTopology topo = hw::knl_snc4_flat();
  Placement p;
  p.add(4, PageSize::k2M, 12 * MiB);  // MCDRAM
  p.add(0, PageSize::k4K, 4 * MiB);   // DDR4
  EXPECT_EQ(p.total(), 16 * MiB);
  EXPECT_DOUBLE_EQ(p.fraction_in_kind(topo, hw::MemKind::kMcdram), 0.75);
  EXPECT_EQ(p.bytes_with_page(PageSize::k4K), 4 * MiB);
  // Same (domain, page) chunks merge.
  p.add(4, PageSize::k2M, 2 * MiB);
  EXPECT_EQ(p.chunks().size(), 2u);
}

TEST(Placement, ChunksKeepFirstAddOrderAcrossInterleavedAdds) {
  Placement p;
  p.add(5, PageSize::k2M, 2 * MiB);
  p.add(0, PageSize::k4K, 8 * KiB);
  p.add(5, PageSize::k4K, 4 * KiB);
  p.add(0, PageSize::k4K, 4 * KiB);  // merges into the second chunk
  p.add(7, PageSize::k1G, 1 * GiB);
  p.add(5, PageSize::k2M, 4 * MiB);  // merges into the first chunk
  p.add(3, PageSize::k4K, 0);        // empty adds record nothing
  const auto chunks = p.chunks();
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_EQ(chunks[0].domain, 5);
  EXPECT_EQ(chunks[0].page, PageSize::k2M);
  EXPECT_EQ(chunks[0].bytes, 6 * MiB);
  EXPECT_EQ(chunks[1].domain, 0);
  EXPECT_EQ(chunks[1].page, PageSize::k4K);
  EXPECT_EQ(chunks[1].bytes, 12 * KiB);
  EXPECT_EQ(chunks[2].domain, 5);
  EXPECT_EQ(chunks[2].page, PageSize::k4K);
  EXPECT_EQ(chunks[3].domain, 7);
  EXPECT_EQ(chunks[3].page, PageSize::k1G);
}

TEST(Placement, AggregatesEqualChunkSums) {
  const hw::NodeTopology& topo = hw::knl_snc4_flat();
  Placement p;
  // Every (domain, page) pair the record can hold, several times over, in
  // a scrambled order: the inline capacity is exactly kMaxDomains x 3.
  for (int i = 0; i < 100; ++i) {
    const int d = (i * 5) % static_cast<int>(Placement::kMaxDomains);
    const auto page = static_cast<PageSize>((i * 7) % 3);
    p.add(d, page, static_cast<Bytes>(i + 1) * 4 * KiB);
  }
  EXPECT_EQ(p.chunks().size(), Placement::kMaxDomains * 3);
  Bytes total = 0;
  std::array<Bytes, 3> by_page{};
  Bytes mcdram = 0;
  Bytes ddr = 0;
  for (const auto& c : p.chunks()) {
    total += c.bytes;
    by_page[static_cast<std::size_t>(c.page)] += c.bytes;
    (topo.domain(c.domain).kind == hw::MemKind::kMcdram ? mcdram : ddr) += c.bytes;
  }
  EXPECT_EQ(p.total(), total);
  for (PageSize page : {PageSize::k4K, PageSize::k2M, PageSize::k1G}) {
    EXPECT_EQ(p.bytes_with_page(page), by_page[static_cast<std::size_t>(page)]);
  }
  EXPECT_EQ(p.bytes_in_kind(topo, hw::MemKind::kMcdram), mcdram);
  EXPECT_EQ(p.bytes_in_kind(topo, hw::MemKind::kDdr4), ddr);
  EXPECT_GT(mcdram, 0u);
  EXPECT_GT(ddr, 0u);
}

TEST(Placement, ClearEmptiesTheRecord) {
  const hw::NodeTopology& topo = hw::knl_snc4_flat();
  Placement p;
  p.add(4, PageSize::k2M, 2 * MiB);
  p.add(1, PageSize::k4K, 4 * KiB);
  p.clear();
  EXPECT_EQ(p.total(), 0u);
  EXPECT_TRUE(p.chunks().empty());
  EXPECT_EQ(p.bytes_with_page(PageSize::k2M), 0u);
  EXPECT_EQ(p.bytes_in_kind(topo, hw::MemKind::kMcdram), 0u);
  // A cleared record starts a fresh chunk order.
  p.add(1, PageSize::k4K, 4 * KiB);
  ASSERT_EQ(p.chunks().size(), 1u);
  EXPECT_EQ(p.chunks()[0].domain, 1);
  EXPECT_EQ(p.chunks()[0].bytes, 4 * KiB);
}

TEST(Placement, AddBeyondTheDomainBoundAborts) {
  Placement p;
  EXPECT_DEATH(p.add(static_cast<hw::DomainId>(Placement::kMaxDomains), PageSize::k4K, 4 * KiB),
               "precondition");
}

// --------------------------------------------------------------- placement

class PlacementTest : public ::testing::Test {
 protected:
  hw::NodeTopology topo_ = hw::knl_snc4_flat();
  PhysMemory phys_{topo_};
  MemCostModel cost_;
};

TEST_F(PlacementTest, LwkOrderIsMcdramFirstThenDdr) {
  const auto order = lwk_domain_order(topo_, 1, true);
  ASSERT_EQ(order.size(), 8u);
  EXPECT_EQ(order[0], 5);  // local quadrant MCDRAM
  EXPECT_EQ(topo_.domain(order[1]).kind, hw::MemKind::kMcdram);
  EXPECT_EQ(order[4], 1);  // then local DDR
}

TEST_F(PlacementTest, LwkPlacesUpfrontWithLargePages) {
  PlaceRequest req;
  req.bytes = 64 * MiB;
  req.home_quadrant = 0;
  const PlaceResult r = place_lwk(phys_, topo_, cost_, req);
  EXPECT_EQ(r.err, 0);
  EXPECT_EQ(r.backed, 64 * MiB);
  EXPECT_EQ(r.deferred, 0u);
  EXPECT_EQ(r.placement.bytes_with_page(PageSize::k4K), 0u);
  EXPECT_DOUBLE_EQ(r.placement.fraction_in_kind(topo_, hw::MemKind::kMcdram), 1.0);
  EXPECT_GT(r.map_cost.ns(), 0);
}

TEST_F(PlacementTest, LwkUsesGigabytePagesWhenPossible) {
  PlaceRequest req;
  req.bytes = 2 * GiB;
  req.home_quadrant = 0;
  const PlaceResult r = place_lwk(phys_, topo_, cost_, req);
  EXPECT_GT(r.placement.bytes_with_page(PageSize::k1G), 0u);
}

TEST_F(PlacementTest, LwkSpillsToDdrWhenMcdramExhausted) {
  PlaceRequest req;
  req.bytes = 20 * GiB;  // > 16 GiB of MCDRAM
  req.home_quadrant = 0;
  const PlaceResult r = place_lwk(phys_, topo_, cost_, req);
  EXPECT_EQ(r.backed, 20 * GiB);
  const Bytes in_hbm = r.placement.bytes_in_kind(topo_, hw::MemKind::kMcdram);
  EXPECT_GT(in_hbm, 15 * GiB);  // essentially all MCDRAM used...
  EXPECT_GT(r.placement.bytes_in_kind(topo_, hw::MemKind::kDdr4), 3 * GiB);
}

TEST_F(PlacementTest, McdramQuotaCapsHbmUse) {
  PlaceRequest req;
  req.bytes = 8 * GiB;
  req.home_quadrant = 0;
  req.mcdram_quota = 1 * GiB;
  const PlaceResult r = place_lwk(phys_, topo_, cost_, req);
  EXPECT_EQ(r.backed, 8 * GiB);
  EXPECT_LE(r.placement.bytes_in_kind(topo_, hw::MemKind::kMcdram), 1 * GiB);
  EXPECT_EQ(r.mcdram_taken, r.placement.bytes_in_kind(topo_, hw::MemKind::kMcdram));
}

TEST_F(PlacementTest, RigidFailsWithEnomemOnExhaustion) {
  PlaceRequest req;
  req.bytes = 200 * GiB;  // more than the node has
  req.home_quadrant = 0;
  req.rigid = true;
  const PlaceResult r = place_lwk(phys_, topo_, cost_, req);
  EXPECT_EQ(r.err, 12);  // ENOMEM
}

TEST_F(PlacementTest, DemandFallbackDefersInsteadOfFailing) {
  PlaceRequest req;
  req.bytes = 200 * GiB;
  req.home_quadrant = 0;
  req.demand_fallback = true;
  const PlaceResult r = place_lwk(phys_, topo_, cost_, req);
  EXPECT_EQ(r.err, 0);
  EXPECT_TRUE(r.used_demand_fallback);
  EXPECT_GT(r.deferred, 0u);
}

TEST_F(PlacementTest, LinuxMapDefersEverything) {
  AddressSpace as;
  Vma& vma = as.map(64 * MiB, VmaKind::kAnon, MemPolicy::standard());
  PlaceRequest req;
  req.bytes = 64 * MiB;
  req.home_quadrant = 0;
  const PlaceResult r = place_linux(topo_, cost_, req, vma, true);
  EXPECT_EQ(r.backed, 0u);
  EXPECT_EQ(r.deferred, 64 * MiB);
  EXPECT_TRUE(vma.demand_paged);
  EXPECT_EQ(vma.touch_page, PageSize::k2M);  // THP for large anon
}

TEST_F(PlacementTest, LinuxSmallOrShmMapsGet4k) {
  AddressSpace as;
  Vma& small = as.map(1 * MiB, VmaKind::kAnon, MemPolicy::standard());
  PlaceRequest req;
  req.bytes = 1 * MiB;
  (void)place_linux(topo_, cost_, req, small, true);
  EXPECT_EQ(small.touch_page, PageSize::k4K);

  Vma& shm = as.map(64 * MiB, VmaKind::kShm, MemPolicy::standard());
  req.bytes = 64 * MiB;
  (void)place_linux(topo_, cost_, req, shm, true);
  EXPECT_EQ(shm.touch_page, PageSize::k4K);
}

TEST_F(PlacementTest, TouchDefaultPolicyLandsInDdrNotMcdram) {
  AddressSpace as;
  Vma& vma = as.map(64 * MiB, VmaKind::kAnon, MemPolicy::standard());
  PlaceRequest req;
  req.bytes = 64 * MiB;
  req.home_quadrant = 2;
  (void)place_linux(topo_, cost_, req, vma, true);
  const TouchResult t = touch(phys_, topo_, cost_, as, vma, 64 * MiB, 2, 1);
  EXPECT_EQ(t.newly_backed, 64 * MiB);
  EXPECT_GT(t.faults, 0u);
  // Linux first-touch walks DDR first in SNC-4 — the paper's CCS-QCD story.
  EXPECT_DOUBLE_EQ(vma.placement().fraction_in_kind(topo_, hw::MemKind::kMcdram), 0.0);
}

TEST_F(PlacementTest, TouchBindPolicyStaysInMcdram) {
  AddressSpace as;
  const auto hbm = topo_.domains_of_kind(hw::MemKind::kMcdram);
  Vma& vma = as.map(64 * MiB, VmaKind::kAnon, MemPolicy::bind(hbm));
  PlaceRequest req;
  req.bytes = 64 * MiB;
  (void)place_linux(topo_, cost_, req, vma, true);
  const TouchResult t = touch(phys_, topo_, cost_, as, vma, 64 * MiB, 0, 1);
  EXPECT_EQ(t.newly_backed, 64 * MiB);
  EXPECT_DOUBLE_EQ(vma.placement().fraction_in_kind(topo_, hw::MemKind::kMcdram), 1.0);
}

TEST_F(PlacementTest, TouchLwkOrderFillsMcdramFirst) {
  AddressSpace as;
  Vma& vma = as.map(64 * MiB, VmaKind::kAnon, MemPolicy::standard());
  vma.demand_paged = true;
  vma.touch_page = PageSize::k2M;
  vma.touch_lwk_order = true;
  const TouchResult t = touch(phys_, topo_, cost_, as, vma, 64 * MiB, 0, 1);
  EXPECT_EQ(t.newly_backed, 64 * MiB);
  EXPECT_DOUBLE_EQ(vma.placement().fraction_in_kind(topo_, hw::MemKind::kMcdram), 1.0);
}

TEST_F(PlacementTest, ContentionMultipliesFaultCost) {
  AddressSpace as;
  Vma& a = as.map(16 * MiB, VmaKind::kAnon, MemPolicy::standard());
  Vma& b = as.map(16 * MiB, VmaKind::kAnon, MemPolicy::standard());
  PlaceRequest req;
  req.bytes = 16 * MiB;
  (void)place_linux(topo_, cost_, req, a, false);  // force 4K
  (void)place_linux(topo_, cost_, req, b, false);
  const TouchResult alone = touch(phys_, topo_, cost_, as, a, 16 * MiB, 0, 1);
  const TouchResult crowded = touch(phys_, topo_, cost_, as, b, 16 * MiB, 0, 64);
  EXPECT_GT(crowded.cost.ns(), alone.cost.ns());
}

}  // namespace
