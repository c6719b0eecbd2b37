// Unit tests: hardware substrate (topology, KNL presets, network, cluster).

#include <gtest/gtest.h>

#include <array>
#include <thread>
#include <type_traits>

#include "core/config.hpp"
#include "hw/cluster.hpp"
#include "hw/knl.hpp"
#include "hw/network.hpp"
#include "hw/topology.hpp"

namespace {

using namespace mkos::hw;
using mkos::sim::GiB;

TEST(KnlSnc4, ShapeMatchesOakforestPacsNode) {
  const NodeTopology t = knl_snc4_flat();
  EXPECT_EQ(t.core_count(), 68);
  EXPECT_EQ(t.quadrant_count(), 4);
  ASSERT_EQ(t.domains().size(), 8u);
  EXPECT_EQ(t.total_capacity(MemKind::kMcdram), 16 * GiB);
  EXPECT_EQ(t.total_capacity(MemKind::kDdr4), 96 * GiB);
  EXPECT_DOUBLE_EQ(t.total_bandwidth_gbps(MemKind::kMcdram), 480.0);
  EXPECT_DOUBLE_EQ(t.total_bandwidth_gbps(MemKind::kDdr4), 90.0);
  EXPECT_EQ(t.core(0).smt_threads, 4);
}

TEST(KnlSnc4, DomainsSplitByQuadrant) {
  const NodeTopology t = knl_snc4_flat();
  for (int q = 0; q < 4; ++q) {
    const DomainId ddr = t.domain_in_quadrant(q, MemKind::kDdr4);
    const DomainId hbm = t.domain_in_quadrant(q, MemKind::kMcdram);
    ASSERT_GE(ddr, 0);
    ASSERT_GE(hbm, 0);
    EXPECT_EQ(t.domain(ddr).capacity, 24 * GiB);
    EXPECT_EQ(t.domain(hbm).capacity, 4 * GiB);
  }
  EXPECT_EQ(t.domains_of_kind(MemKind::kMcdram).size(), 4u);
}

TEST(KnlSnc4, SlitDistancesMatchLinuxConvention) {
  const NodeTopology t = knl_snc4_flat();
  EXPECT_EQ(t.distance(0, 0), 10);  // local DDR
  EXPECT_EQ(t.distance(0, 1), 21);  // remote DDR
  EXPECT_EQ(t.distance(0, 4), 31);  // local MCDRAM
  EXPECT_EQ(t.distance(0, 5), 41);  // remote MCDRAM
}

// The reproduction-critical property: Linux's default zonelist walks remote
// DDR4 *before* any MCDRAM — first-touch with no policy never lands in HBM.
TEST(KnlSnc4, FallbackOrderPrefersAllDdrOverMcdram) {
  const NodeTopology t = knl_snc4_flat();
  const auto order = t.fallback_order(0);
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(t.domain(order[static_cast<std::size_t>(i)]).kind, MemKind::kDdr4)
        << "position " << i;
  }
  EXPECT_EQ(order[0], 0);  // local DDR first
  EXPECT_EQ(order[4], 4);  // then local MCDRAM before remote MCDRAM
}

TEST(KnlQuadrant, TwoDomains) {
  const NodeTopology t = knl_quadrant_flat();
  ASSERT_EQ(t.domains().size(), 2u);
  EXPECT_EQ(t.quadrant_count(), 1);
  EXPECT_EQ(t.total_capacity(MemKind::kMcdram), 16 * GiB);
  EXPECT_EQ(t.domain_in_quadrant(0, MemKind::kMcdram), 1);
}

TEST(Network, WireTimeScalesWithSize) {
  const NetworkModel net = omni_path_100();
  const auto small = net.wire_time(1024, 1);
  const auto large = net.wire_time(1024 * 1024, 1);
  EXPECT_GT(large, small);
  // 1 MiB at 12.5 GB/s is ~84 us of serialization.
  EXPECT_NEAR(large.us(), 84.0, 15.0);
}

TEST(Network, RendezvousKicksInAboveEagerThreshold) {
  const NetworkModel net = omni_path_100();
  const auto just_below = net.wire_time(net.eager_threshold, 0);
  const auto just_above = net.wire_time(net.eager_threshold + 1, 0);
  EXPECT_GE((just_above - just_below).ns(), net.rendezvous_overhead.ns());
}

TEST(Network, HopCountGrowsWithMachineSize) {
  const NetworkModel net = omni_path_100();
  EXPECT_EQ(net.hop_count(0, 0, 4096), 0);
  EXPECT_EQ(net.hop_count(0, 1, 4096), 1);  // same leaf
  const int near = net.hop_count(0, 100, 128);
  const int far = net.hop_count(0, 4000, 8192);
  EXPECT_GT(far, near);
}

TEST(Network, UserSpaceVariantHasNoKernelOps) {
  EXPECT_GT(omni_path_100().kernel_involved_ops, 0.0);
  EXPECT_DOUBLE_EQ(omni_path_user_space().kernel_involved_ops, 0.0);
}

TEST(Cluster, OakforestPacsAggregates) {
  const Cluster c = oakforest_pacs(2048);
  EXPECT_EQ(c.node_count(), 2048);
  EXPECT_EQ(c.total_cores(), 2048 * 68);
  EXPECT_EQ(c.total_memory(), 2048ull * 112 * GiB);
}

TEST(Topology, FallbackOrderFromEachQuadrantStartsLocal) {
  const NodeTopology t = knl_snc4_flat();
  for (int q = 0; q < 4; ++q) {
    EXPECT_EQ(t.fallback_order(q)[0], t.domain_in_quadrant(q, MemKind::kDdr4));
  }
}

TEST(Topology, KnlFactoriesShareOneInstance) {
  const NodeTopology* snc4 = &knl_snc4_flat();
  const NodeTopology* quadrant = &knl_quadrant_flat();
  EXPECT_NE(snc4, quadrant);
  EXPECT_EQ(&knl_snc4_flat(), snc4);
  EXPECT_EQ(&knl_quadrant_flat(), quadrant);

  std::array<const NodeTopology*, 4> seen_snc4{};
  std::array<const NodeTopology*, 4> seen_quadrant{};
  std::array<std::thread, 4> threads;
  for (std::size_t i = 0; i < threads.size(); ++i) {
    threads[i] = std::thread([&, i] {
      seen_snc4[i] = &knl_snc4_flat();
      seen_quadrant[i] = &knl_quadrant_flat();
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < threads.size(); ++i) {
    EXPECT_EQ(seen_snc4[i], snc4);
    EXPECT_EQ(seen_quadrant[i], quadrant);
  }

  EXPECT_EQ(&oakforest_pacs(16).node(), snc4);
  const auto machine = mkos::core::SystemConfig::mckernel().machine(16);
  EXPECT_EQ(&machine.cluster.node(), snc4);
}

// Cluster, Node and Job keep a reference to their topology or machine; a
// temporary argument would dangle, so those overloads are deleted.
static_assert(std::is_constructible_v<Cluster, int, const NodeTopology&, NetworkModel>);
static_assert(!std::is_constructible_v<Cluster, int, NodeTopology&&, NetworkModel>);
static_assert(std::is_constructible_v<mkos::kernel::Node, const NodeTopology&,
                                      mkos::kernel::NodeOsConfig, std::uint64_t>);
static_assert(!std::is_constructible_v<mkos::kernel::Node, NodeTopology&&,
                                       mkos::kernel::NodeOsConfig, std::uint64_t>);
static_assert(std::is_constructible_v<mkos::runtime::Job, const mkos::runtime::Machine&,
                                      mkos::runtime::JobSpec, std::uint64_t>);
static_assert(!std::is_constructible_v<mkos::runtime::Job, mkos::runtime::Machine&&,
                                       mkos::runtime::JobSpec, std::uint64_t>);

}  // namespace
