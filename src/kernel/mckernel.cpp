#include "kernel/mckernel.hpp"

namespace mkos::kernel {

namespace {
/// LWK fault/trap handlers are leaner than Linux's: a short, straight-line
/// code path with no cgroup/LRU/auditing work.
mem::MemCostModel lwk_mem_costs() {
  mem::MemCostModel c;
  c.syscall_entry = sim::TimeNs{260};
  c.fault_4k = sim::TimeNs{1500};
  c.fault_large = sim::TimeNs{1400};
  c.pte_per_page = sim::TimeNs{14};
  c.contention_slope = 0.09;  // no mmap_sem-style global serialization
  return c;
}
}  // namespace

McKernel::McKernel(const hw::NodeTopology& topo, mem::PhysMemory& phys, IkcChannel ikc,
                   McKernelOptions options)
    : Kernel(topo, phys),
      options_(options),
      ikc_(ikc),
      noise_(noise_lwk()),
      sched_(SchedulerModel::lwk_coop(options.disable_sched_yield)),
      fs_(pseudofs_mckernel()),
      mem_costs_(lwk_mem_costs()) {}

Disposition McKernel::disposition(Sys s) const {
  switch (s) {
    // "McKernel provides its own memory management, it supports multi-
    // processing and multi-threading, it has a simple scheduler, and it
    // implements signaling. It also enables inter-process shared memory
    // mappings and ... standard interfaces to hardware performance counters."
    case Sys::kBrk: case Sys::kMmap: case Sys::kMunmap: case Sys::kMprotect:
    case Sys::kMadvise: case Sys::kSetMempolicy: case Sys::kGetMempolicy:
    case Sys::kMbind: case Sys::kMlock: case Sys::kMunlock:
    case Sys::kShmget: case Sys::kShmat: case Sys::kShmdt:
    case Sys::kClone: case Sys::kFork: case Sys::kVfork:
    case Sys::kExit: case Sys::kExitGroup:
    case Sys::kGetpid: case Sys::kGettid: case Sys::kGetppid:
    case Sys::kKill: case Sys::kTkill: case Sys::kTgkill:
    case Sys::kRtSigaction: case Sys::kRtSigprocmask: case Sys::kRtSigreturn:
    case Sys::kSigaltstack:
    case Sys::kSchedYield: case Sys::kSchedSetaffinity: case Sys::kSchedGetaffinity:
    case Sys::kSetTidAddress: case Sys::kFutex: case Sys::kArchPrctl:
    case Sys::kGetrlimit: case Sys::kGetrusage:
    case Sys::kGettimeofday: case Sys::kClockGettime:
    case Sys::kPerfEventOpen:
      return Disposition::kLocal;
    // Work in progress / deliberately deviating (LTP failures).
    case Sys::kMovePages: case Sys::kMigratePages: case Sys::kMremap:
    case Sys::kPtrace: case Sys::kPrctl:
    case Sys::kTimerCreate: case Sys::kTimerSettime:
    case Sys::kSchedSetscheduler: case Sys::kSchedGetscheduler:
      return Disposition::kPartial;
    default:
      // "The rest are offloaded to Linux."
      return Disposition::kOffloaded;
  }
}

bool McKernel::capable(Capability c) const {
  switch (c) {
    case Capability::kForkFull: return true;
    case Capability::kPtraceFull: return false;   // hard across the proxy split
    case Capability::kPtraceBasic: return true;
    case Capability::kMovePages: return false;    // "work in progress"
    case Capability::kMigratePages: return false;
    case Capability::kCloneEsotericFlags: return false;
    case Capability::kBrkShrinkReleases: return !options_.hpc_brk;
    case Capability::kMremapFull: return false;
    case Capability::kTimersFull: return false;
    case Capability::kSignalsFull: return true;
    case Capability::kProcSelfComplete: return false;  // reimplemented subset
    case Capability::kCpuHotplug: return false;
    case Capability::kPerfCounters: return true;
    case Capability::kTimeSharing: return options_.timeshare;
    case Capability::kCount_: break;
  }
  return false;
}

MmapRet McKernel::sys_mmap(Process& p, sim::Bytes length, mem::VmaKind kind,
                           mem::MemPolicy policy) {
  count_call(Disposition::kLocal);
  if (length == 0) return {kEINVAL, local_syscall_cost(), nullptr};
  mem::Vma& vma = p.address_space().map(length, kind, policy);

  if (kind == mem::VmaKind::kShm && !options_.mpol_shm_premap) {
    // MPI shared-memory sections are file-backed through the proxy; without
    // --mpol-shm-premap they are demand-paged like on Linux.
    mem::PlaceRequest lreq;
    lreq.bytes = length;
    lreq.policy = policy;
    lreq.home_quadrant = p.home_quadrant();
    vma.policy = policy;
    const mem::PlaceResult lpr = mem::place_linux(topo_, mem_costs_, lreq, vma, true);
    return {kOk, local_syscall_cost() + lpr.map_cost, &vma};
  }

  mem::PlaceRequest req;
  req.bytes = length;
  req.policy = policy.mode == mem::PolicyMode::kDefault ? p.mempolicy() : policy;
  req.home_quadrant = p.home_quadrant();
  req.prefer_mcdram = options_.prefer_mcdram;
  req.use_large_pages = true;
  req.demand_fallback = options_.demand_fallback;
  // McKernel "does not partition memory between LWK processes": no quota.
  vma.policy = req.policy;

  // "Both LWKs allocate physical memory at the time of the mapping request
  // ... when physical memory to back it entirely is available. McKernel has
  // an additional feature to automatically fall back to demand paging to
  // allow best effort allocation from the specific NUMA domain when enough
  // physical memory is not available." When the preferred kind (MCDRAM)
  // cannot back the whole mapping, the mapping is left to demand paging —
  // pages then fill remaining MCDRAM at touch time, interleaved fairly
  // across the ranks, before spilling to DDR4.
  const hw::DomainId local_hbm =
      topo_.domain_in_quadrant(p.home_quadrant(), hw::MemKind::kMcdram);
  if (options_.demand_fallback && options_.prefer_mcdram && local_hbm >= 0 &&
      req.policy.mode == mem::PolicyMode::kDefault &&
      phys_.domain(local_hbm).free_bytes() < sim::align_up(length, 4 * sim::KiB)) {
    vma.demand_paged = true;
    vma.touch_page = mem::PageSize::k2M;
    vma.touch_lwk_order = true;
    fallback_engaged_ = true;
    return {kOk, local_syscall_cost() + mem_costs_.pte_per_page, &vma};
  }

  mem::PlaceResult pr = mem::place_lwk(phys_, topo_, mem_costs_, req);
  p.address_space().attach(vma, pr.placement, std::move(pr.extents));
  if (pr.deferred > 0) {
    vma.demand_paged = true;
    vma.touch_page = mem::PageSize::k2M;  // fallback still uses large granules
    fallback_engaged_ = fallback_engaged_ || pr.used_demand_fallback;
  }
  return {pr.err, local_syscall_cost() + pr.map_cost, &vma};
}

sim::TimeNs McKernel::local_syscall_cost() const {
  return sim::TimeNs{450};  // minimal trap path, no auditing/seccomp layers
}

sim::TimeNs McKernel::offload_cost(sim::Bytes payload) const {
  // LWK-side trap + IKC round trip + Linux-side handler executed by the
  // proxy process (priced as a Linux syscall body).
  const sim::TimeNs t = local_syscall_cost() +
                        ikc_.offload_round_trip(64 + payload, 64) + sim::TimeNs{950};
  // A tenant on the Linux cores delays proxy scheduling, but only the
  // offloaded path — the LWK cores themselves are isolated.
  return options_.co_tenant_on_linux ? t.scaled(1.6) : t;
}

sim::TimeNs McKernel::network_syscall_overhead() const {
  // Device-file write for the Omni-Path send path — offloaded.
  return offload_cost(512);
}

std::unique_ptr<mem::HeapEngine> McKernel::make_heap(Process& p) {
  mem::LwkHeapOptions opt;
  opt.hpc_mode = options_.hpc_brk;
  opt.prefer_mcdram = options_.prefer_mcdram;
  opt.zero_first_4k_only = true;
  opt.aggressive_extension = options_.aggressive_heap_extension;
  return std::make_unique<mem::LwkHeap>(phys_, topo_, mem_costs_, opt, p.home_quadrant());
}

}  // namespace mkos::kernel
