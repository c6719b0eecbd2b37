// Unit tests: the extended functional syscall layer — mprotect, madvise,
// fork/clone, open/close bookkeeping, and per-kernel semantic differences.

#include <gtest/gtest.h>

#include "hw/knl.hpp"
#include "kernel/node.hpp"

namespace {

using namespace mkos;
using namespace mkos::kernel;
using mkos::sim::MiB;

class SyscallFixture : public ::testing::Test {
 protected:
  Node linux_node_{hw::knl_snc4_flat(), NodeOsConfig::linux_default(), 1};
  Node mck_node_{hw::knl_snc4_flat(), NodeOsConfig::mckernel_default(), 2};
  Node mos_node_{hw::knl_snc4_flat(), NodeOsConfig::mos_default(), 3};

  static mem::Vma* mapped(Kernel& k, Process& p, sim::Bytes len) {
    auto r = k.sys_mmap(p, len, mem::VmaKind::kAnon, mem::MemPolicy::standard());
    EXPECT_EQ(r.err, kOk);
    return r.vma;
  }
};

// ----------------------------------------------------------------- mprotect

TEST_F(SyscallFixture, MprotectChangesVmaProtections) {
  Kernel& k = linux_node_.app_kernel();
  Process& p = k.create_process(0);
  mem::Vma* vma = mapped(k, p, 4 * MiB);
  ASSERT_NE(vma, nullptr);
  EXPECT_EQ(vma->prot, mem::kProtRead | mem::kProtWrite);
  const auto r = k.sys_mprotect(p, vma->start, mem::kProtRead);
  EXPECT_EQ(r.err, kOk);
  EXPECT_EQ(vma->prot, mem::kProtRead);
  EXPECT_GT(r.cost.ns(), k.local_syscall_cost().ns());  // PTE rewrite priced
}

TEST_F(SyscallFixture, MprotectOnUnmappedAddressFails) {
  Kernel& k = mck_node_.app_kernel();
  Process& p = k.create_process(0);
  EXPECT_EQ(k.sys_mprotect(p, 0xdead000, mem::kProtRead).err, kEINVAL);
}

// ------------------------------------------------------------------ madvise

TEST_F(SyscallFixture, MadviseDontneedReleasesOnLinux) {
  Kernel& k = linux_node_.app_kernel();
  Process& p = k.create_process(0);
  mem::Vma* vma = mapped(k, p, 8 * MiB);
  (void)k.touch(p, *vma, 8 * MiB, 1);
  ASSERT_EQ(vma->backed(), 8 * MiB);
  const sim::Bytes free_before = k.phys().domain(0).free_bytes();

  EXPECT_EQ(k.sys_madvise(p, vma->start, Kernel::Madvise::kDontNeed).err, kOk);
  EXPECT_EQ(vma->backed(), 0u);
  EXPECT_TRUE(vma->demand_paged);
  EXPECT_GT(k.phys().domain(0).free_bytes(), free_before);

  // The next touch refaults the range.
  const auto t = k.touch(p, *vma, 8 * MiB, 1);
  EXPECT_GT(t.faults, 0u);
  EXPECT_EQ(vma->backed(), 8 * MiB);
}

TEST_F(SyscallFixture, MadviseDontneedIsAHintOnLwks) {
  for (Node* node : {&mck_node_, &mos_node_}) {
    Kernel& k = node->app_kernel();
    Process& p = k.create_process(0);
    mem::Vma* vma = mapped(k, p, 8 * MiB);
    ASSERT_EQ(vma->backed(), 8 * MiB);  // upfront backing
    EXPECT_EQ(k.sys_madvise(p, vma->start, Kernel::Madvise::kDontNeed).err, kOk);
    EXPECT_EQ(vma->backed(), 8 * MiB) << k.name() << " must keep the pages";
  }
}

TEST_F(SyscallFixture, MadviseInvalidAddress) {
  Kernel& k = linux_node_.app_kernel();
  Process& p = k.create_process(0);
  EXPECT_EQ(k.sys_madvise(p, 0x1234, Kernel::Madvise::kWillNeed).err, kEINVAL);
}

// --------------------------------------------------------------- fork/clone

TEST_F(SyscallFixture, ForkCreatesProcessOnLinuxAndMcKernel) {
  for (Node* node : {&linux_node_, &mck_node_}) {
    Kernel& k = node->app_kernel();
    Process& p = k.create_process(0);
    const auto n_before = k.processes().size();
    EXPECT_EQ(k.sys_fork(p).err, kOk) << k.name();
    EXPECT_EQ(k.processes().size(), n_before + 1);
  }
}

TEST_F(SyscallFixture, CloneAddsThread) {
  Kernel& k = mos_node_.app_kernel();
  Process& p = k.create_process(0);
  const int before = p.thread_count();
  EXPECT_EQ(k.sys_clone_thread(p, 5).err, kOk);
  EXPECT_EQ(p.thread_count(), before + 1);
}

// -------------------------------------------------------- descriptor table

TEST_F(SyscallFixture, FdLifecycle) {
  Kernel& k = linux_node_.app_kernel();
  Process& p = k.create_process(0);
  auto r = k.sys_open(p, "/tmp/a");
  ASSERT_EQ(r.err, kOk);
  EXPECT_EQ(p.open_fd_count(), 1u);
  ASSERT_NE(p.fd_path(3), nullptr);
  EXPECT_EQ(*p.fd_path(3), "/tmp/a");
  EXPECT_TRUE(p.close_fd(3));
  EXPECT_FALSE(p.close_fd(3));
  EXPECT_EQ(p.fd_path(3), nullptr);
}

TEST_F(SyscallFixture, OffloadedOpenStillSucceedsFunctionally) {
  Kernel& k = mck_node_.app_kernel();
  Process& p = k.create_process(0);
  const auto r = k.sys_open(p, "/scratch/input.dat");
  EXPECT_EQ(r.err, kOk);
  // ...but the paid latency is the proxy round trip.
  EXPECT_GE(r.cost.ns(), k.offload_cost(16).ns());
}

// --------------------------------------------------- co-tenancy extension

TEST_F(SyscallFixture, CoTenantInflatesOffloadOnlyOnLwk) {
  NodeOsConfig mck_cfg = NodeOsConfig::mckernel_default();
  mck_cfg.mckernel_opts.co_tenant_on_linux = true;
  Node tenant_node{hw::knl_snc4_flat(), mck_cfg, 11};
  Kernel& plain = mck_node_.app_kernel();
  Kernel& tenant = tenant_node.app_kernel();
  // The offloaded path contends with the tenant...
  EXPECT_GT(tenant.offload_cost(256).ns(), plain.offload_cost(256).ns());
  // ...while the LWK cores stay isolated: local costs and noise unchanged.
  EXPECT_EQ(tenant.local_syscall_cost().ns(), plain.local_syscall_cost().ns());
  EXPECT_DOUBLE_EQ(tenant.noise().expected_fraction(),
                   plain.noise().expected_fraction());
}

TEST_F(SyscallFixture, CoTenantOnLinuxRaisesNoise) {
  NodeOsConfig lin_cfg = NodeOsConfig::linux_default();
  lin_cfg.linux_opts.co_tenant = true;
  Node tenant_node{hw::knl_snc4_flat(), lin_cfg, 12};
  EXPECT_GT(tenant_node.app_kernel().noise().expected_fraction(),
            linux_node_.app_kernel().noise().expected_fraction() * 3);
  EXPECT_GT(tenant_node.app_kernel().collective_noise().expected_fraction(),
            linux_node_.app_kernel().collective_noise().expected_fraction());
}

}  // namespace
