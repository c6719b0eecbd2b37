// Unit tests: the FusedOS-style related-work kernel (Section V-C).

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "hw/knl.hpp"
#include "kernel/node.hpp"

namespace {

using namespace mkos;
using namespace mkos::kernel;
using mkos::sim::MiB;

class FusedOsFixture : public ::testing::Test {
 protected:
  Node fused_node_{hw::knl_snc4_flat(), NodeOsConfig::fusedos_default(), 1};
  Node mck_node_{hw::knl_snc4_flat(), NodeOsConfig::mckernel_default(), 2};
};

TEST_F(FusedOsFixture, EverythingOffloadsExceptTrivialReads) {
  Kernel& k = fused_node_.app_kernel();
  EXPECT_EQ(k.kind(), OsKind::kFusedOs);
  // "a stub that offloads all system calls" — even the memory calls the
  // multi-kernels keep local.
  for (Sys s : {Sys::kBrk, Sys::kMmap, Sys::kFutex, Sys::kSchedYield, Sys::kOpen,
                Sys::kWrite, Sys::kClone}) {
    EXPECT_EQ(k.disposition(s), Disposition::kOffloaded) << sys_name(s);
  }
  EXPECT_EQ(k.disposition(Sys::kGetpid), Disposition::kLocal);
  EXPECT_EQ(k.disposition(Sys::kFork), Disposition::kUnsupported);  // CNK scope
}

TEST_F(FusedOsFixture, MemoryCallsPayOffloadLatency) {
  Kernel& fused = fused_node_.app_kernel();
  Kernel& mck = mck_node_.app_kernel();
  EXPECT_GT(fused.priced(Sys::kBrk).ns(), mck.priced(Sys::kBrk).ns() * 5);
  EXPECT_GT(fused.priced(Sys::kMmap).ns(), mck.priced(Sys::kMmap).ns() * 5);
}

TEST_F(FusedOsFixture, QuietCoresLikeAnLwk) {
  EXPECT_LT(fused_node_.app_kernel().noise().expected_fraction(), 1e-5);
  EXPECT_DOUBLE_EQ(fused_node_.app_kernel().collective_noise().expected_fraction(), 0.0);
}

TEST_F(FusedOsFixture, StaticMappingBacksUpfrontWithLargePages) {
  Kernel& k = fused_node_.app_kernel();
  Process& p = k.create_process(0);
  auto r = k.sys_mmap(p, 64 * MiB, mem::VmaKind::kAnon, mem::MemPolicy::standard());
  ASSERT_EQ(r.err, kOk);
  EXPECT_EQ(r.vma->backed(), 64 * MiB);
  EXPECT_EQ(r.vma->placement().bytes_with_page(mem::PageSize::k4K), 0u);
  // ...but the call itself ran in the CL proxy.
  EXPECT_GT(r.cost.ns(), k.offload_cost(128).ns() - 1);
}

TEST_F(FusedOsFixture, SpawnsClProxyPerRank) {
  (void)fused_node_.launch_rank(0, 2);
  (void)fused_node_.launch_rank(1, 2);
  EXPECT_EQ(fused_node_.proxy_process_count(), 2);
}

TEST_F(FusedOsFixture, EndToEndMatchesDesignIntuition) {
  // Quiet cores: FusedOS tracks the multi-kernels on a collective-bound app.
  auto minife = workloads::make_minife();
  const double fused =
      core::run_app(*minife, core::SystemConfig::for_os(OsKind::kFusedOs), 256, 3, 5)
          .median();
  const double mck =
      core::run_app(*minife, core::SystemConfig::mckernel(), 256, 3, 5).median();
  EXPECT_GT(fused / mck, 0.9);
  EXPECT_LT(fused / mck, 1.15);
}

TEST_F(FusedOsFixture, BrkChurnIsExpensiveAtOffloadLatency) {
  Kernel& fused = fused_node_.app_kernel();
  Kernel& mck = mck_node_.app_kernel();
  Process& fp = fused.create_process(0);
  Process& mp = mck.create_process(0);
  sim::TimeNs fused_cost{0};
  sim::TimeNs mck_cost{0};
  for (int i = 0; i < 100; ++i) {
    fused_cost += fused.sys_brk(fp, 1 << 20).cost;
    fused_cost += fused.sys_brk(fp, -(1 << 20)).cost;
    mck_cost += mck.sys_brk(mp, 1 << 20).cost;
    mck_cost += mck.sys_brk(mp, -(1 << 20)).cost;
  }
  EXPECT_GT(fused_cost.ns(), mck_cost.ns() * 4);
}

}  // namespace
