#include "kernel/mos.hpp"

#include <optional>

namespace mkos::kernel {

namespace {
mem::MemCostModel mos_mem_costs() {
  // Leaner than Linux, slightly heavier than McKernel: the LWK path shares
  // Linux data structures and occasionally takes their locks.
  mem::MemCostModel c;
  c.syscall_entry = sim::TimeNs{300};
  c.fault_4k = sim::TimeNs{1900};
  c.fault_large = sim::TimeNs{1600};
  c.pte_per_page = sim::TimeNs{15};
  c.contention_slope = 0.10;
  return c;
}
}  // namespace

Mos::Mos(const hw::NodeTopology& topo, mem::PhysMemory& phys, MosOptions options)
    : Kernel(topo, phys),
      options_(options),
      noise_(noise_lwk_mos()),
      sched_(SchedulerModel::lwk_coop(false)),
      fs_(pseudofs_mos()),
      mem_costs_(mos_mem_costs()) {}

Disposition Mos::disposition(Sys s) const {
  switch (s) {
    case Sys::kBrk: case Sys::kMmap: case Sys::kMunmap: case Sys::kMprotect:
    case Sys::kMadvise: case Sys::kSetMempolicy: case Sys::kGetMempolicy:
    case Sys::kMbind: case Sys::kMlock: case Sys::kMunlock:
    case Sys::kShmget: case Sys::kShmat: case Sys::kShmdt:
    case Sys::kClone:
    case Sys::kExit: case Sys::kExitGroup:
    case Sys::kGetpid: case Sys::kGettid: case Sys::kGetppid:
    case Sys::kRtSigaction: case Sys::kRtSigprocmask: case Sys::kRtSigreturn:
    case Sys::kSchedYield: case Sys::kSchedSetaffinity: case Sys::kSchedGetaffinity:
    case Sys::kSetTidAddress: case Sys::kFutex: case Sys::kArchPrctl:
    case Sys::kGettimeofday: case Sys::kClockGettime:
      return Disposition::kLocal;
    // Not fully implemented yet in the evaluated version.
    case Sys::kFork: case Sys::kVfork:
      return Disposition::kUnsupported;
    case Sys::kMovePages: case Sys::kMigratePages: case Sys::kMremap:
    case Sys::kPtrace:  // works, but 4 of the 5 LTP cases fail
      return Disposition::kPartial;
    default:
      // Everything else runs on the Linux side via thread migration —
      // including /proc, /sys and the rest of the VFS, reused wholesale.
      return Disposition::kOffloaded;
  }
}

bool Mos::capable(Capability c) const {
  switch (c) {
    case Capability::kForkFull: return false;  // "fork() is not fully implemented yet"
    case Capability::kPtraceFull: return false;  // 4 of 5 LTP ptrace tests fail
    case Capability::kPtraceBasic: return true;  // "ptrace() is working in mOS"
    case Capability::kMovePages: return false;
    case Capability::kMigratePages: return false;
    case Capability::kCloneEsotericFlags: return false;
    case Capability::kBrkShrinkReleases: return !options_.hpc_brk;
    case Capability::kMremapFull: return false;
    case Capability::kTimersFull: return true;   // reuses Linux timers
    case Capability::kSignalsFull: return true;
    case Capability::kProcSelfComplete: return true;  // reused from Linux
    case Capability::kCpuHotplug: return false;
    case Capability::kPerfCounters: return true;
    case Capability::kTimeSharing: return false;  // strictly cooperative
    case Capability::kCount_: break;
  }
  return false;
}

MmapRet Mos::sys_mmap(Process& p, sim::Bytes length, mem::VmaKind kind,
                      mem::MemPolicy policy) {
  count_call(Disposition::kLocal);
  if (length == 0) return {kEINVAL, local_syscall_cost(), nullptr};
  mem::Vma& vma = p.address_space().map(length, kind, policy);

  mem::PlaceRequest req;
  req.bytes = length;
  req.policy = policy.mode == mem::PolicyMode::kDefault ? p.mempolicy() : policy;
  req.home_quadrant = p.home_quadrant();
  req.prefer_mcdram = options_.prefer_mcdram;
  req.use_large_pages = true;
  req.rigid = false;  // spilling MCDRAM -> DDR4 is transparent and allowed...
  req.demand_fallback = false;  // ...but no demand-paging escape hatch
  if (options_.partition_mcdram_per_rank) {
    req.mcdram_quota = p.mcdram_quota();
    req.mcdram_quota_used = p.mcdram_used();
  }
  vma.policy = req.policy;

  mem::PlaceResult pr = mem::place_lwk(phys_, topo_, mem_costs_, req);
  p.address_space().attach(vma, pr.placement, std::move(pr.extents));
  // Rigid allocation: whatever could not be physically backed is an error,
  // and the partial backing goes back to the domains uncharged.
  if (pr.backed < sim::align_up(length, 4 * sim::KiB)) {
    const std::optional<mem::Vma> dead = p.address_space().unmap(vma.start);
    for (const auto& e : dead->extents()) phys_.domain(e.domain).free(e);
    return {kENOMEM, local_syscall_cost() + pr.map_cost, nullptr};
  }
  p.add_mcdram_used(pr.mcdram_taken);
  return {kOk, local_syscall_cost() + pr.map_cost, &vma};
}

SyscallRet Mos::sys_fork(Process& p) {
  (void)p;
  count_call(Disposition::kUnsupported);
  return {kENOSYS, local_syscall_cost()};
}

sim::TimeNs Mos::local_syscall_cost() const { return sim::TimeNs{500}; }

sim::TimeNs Mos::offload_cost(sim::Bytes payload) const {
  // Thread migration: no message marshalling — the thread shows up on a
  // Linux core with its address space already shared, runs the Linux
  // handler, and migrates back. Payload size is irrelevant to transport.
  (void)payload;
  const sim::TimeNs t = local_syscall_cost() + migrate_to_linux() + sim::TimeNs{950} +
                        migrate_back() + cache_refill_penalty();
  // The migrated thread queues behind the tenant on the Linux cores.
  return options_.co_tenant_on_linux ? t.scaled(1.6) : t;
}

sim::TimeNs Mos::network_syscall_overhead() const { return offload_cost(512); }

std::unique_ptr<mem::HeapEngine> Mos::make_heap(Process& p) {
  mem::LwkHeapOptions opt;
  opt.hpc_mode = options_.hpc_brk;
  opt.prefer_mcdram = options_.prefer_mcdram;
  opt.zero_first_4k_only = true;
  return std::make_unique<mem::LwkHeap>(phys_, topo_, mem_costs_, opt, p.home_quadrant());
}

}  // namespace mkos::kernel
