#include "kernel/fusedos.hpp"

namespace mkos::kernel {

namespace {
mem::MemCostModel cnk_mem_costs() {
  // CNK-style static mapping: trivial in-stub accounting, but the calls
  // that *perform* it run in the CL proxy.
  mem::MemCostModel c;
  // brk()/mmap() are *offloaded* in FusedOS: the per-call entry here is the
  // full stub -> CL round trip, not a kernel trap.
  c.syscall_entry = sim::TimeNs{5000};
  c.fault_4k = sim::TimeNs{800};
  c.fault_large = sim::TimeNs{1200};
  c.pte_per_page = sim::TimeNs{12};
  c.contention_slope = 0.04;
  return c;
}
}  // namespace

FusedOs::FusedOs(const hw::NodeTopology& topo, mem::PhysMemory& phys, IkcChannel channel)
    : Kernel(topo, phys),
      channel_(channel),
      noise_(noise_lwk()),  // CNK heritage: the quietest cores in the study
      sched_(SchedulerModel::lwk_coop(false)),
      fs_(pseudofs_mckernel()),  // CL reimplements a partition-reflecting subset
      mem_costs_(cnk_mem_costs()) {}

Disposition FusedOs::disposition(Sys s) const {
  switch (s) {
    // Only the cheapest state reads stay in the user-level stub.
    case Sys::kGetpid: case Sys::kGettid:
    case Sys::kGettimeofday: case Sys::kClockGettime:
      return Disposition::kLocal;
    case Sys::kFork: case Sys::kVfork:
      return Disposition::kUnsupported;  // CNK functionality only
    case Sys::kMovePages: case Sys::kMigratePages: case Sys::kMremap:
    case Sys::kPtrace:
      return Disposition::kPartial;
    default:
      // "a stub that offloads all system calls" — including brk and mmap.
      return Disposition::kOffloaded;
  }
}

bool FusedOs::capable(Capability c) const {
  switch (c) {
    case Capability::kForkFull: return false;
    case Capability::kPtraceFull: return false;
    case Capability::kPtraceBasic: return true;
    case Capability::kBrkShrinkReleases: return false;  // CNK-style static heap
    case Capability::kSignalsFull: return true;
    case Capability::kPerfCounters: return true;
    default: return false;
  }
}

MmapRet FusedOs::sys_mmap(Process& p, sim::Bytes length, mem::VmaKind kind,
                          mem::MemPolicy policy) {
  count_call(Disposition::kOffloaded);
  if (length == 0) return {kEINVAL, offload_cost(64), nullptr};
  mem::Vma& vma = p.address_space().map(length, kind, policy);
  mem::PlaceRequest req;
  req.bytes = length;
  req.policy = policy.mode == mem::PolicyMode::kDefault ? p.mempolicy() : policy;
  req.home_quadrant = p.home_quadrant();
  req.prefer_mcdram = true;
  req.use_large_pages = true;  // CNK maps statically with big TLB entries
  vma.policy = req.policy;
  mem::PlaceResult pr = mem::place_lwk(phys_, topo_, mem_costs_, req);
  p.address_space().attach(vma, pr.placement, std::move(pr.extents));
  // The mapping work itself executed in the CL proxy.
  return {pr.err, offload_cost(128) + pr.map_cost, &vma};
}

sim::TimeNs FusedOs::local_syscall_cost() const {
  return sim::TimeNs{300};  // the stub's dispatch
}

sim::TimeNs FusedOs::offload_cost(sim::Bytes payload) const {
  // Stub trap + message to CL + CL handling (CL is a user-level process:
  // cheaper entry than a Linux syscall, but it must often re-enter Linux).
  return local_syscall_cost() + channel_.offload_round_trip(64 + payload, 64) +
         sim::TimeNs{1400};
}

sim::TimeNs FusedOs::network_syscall_overhead() const { return offload_cost(512); }

std::unique_ptr<mem::HeapEngine> FusedOs::make_heap(Process& p) {
  // CNK-style: statically grown, physically backed, shrinks ignored — the
  // original template for the multi-kernels' HPC brk().
  mem::LwkHeapOptions opt;
  opt.hpc_mode = true;
  opt.prefer_mcdram = true;
  opt.zero_first_4k_only = false;  // CNK zeroes fully at allocation
  return std::make_unique<mem::LwkHeap>(phys_, topo_, mem_costs_, opt, p.home_quadrant());
}

}  // namespace mkos::kernel
