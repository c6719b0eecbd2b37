#pragma once
// The kernel model interface.
//
// A Kernel owns processes, implements a *functional* system-call layer over
// the memory substrate (real VMAs, real physical placement), and exposes the
// pricing hooks the runtime uses: what a local vs offloaded call costs, how
// noisy application cores are, how the network send path is taxed.
//
// Four implementations: LinuxKernel (the baseline), McKernel (IHK proxy
// offloading), Mos (thread-migration offloading), and FusedOs (the
// related-work user-level LWK that offloads everything). Their behavioural
// differences are structural — encoded in placement flags, heap engines,
// offload transports and capability sets — not in per-benchmark special
// cases.

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "hw/topology.hpp"
#include "kernel/noise.hpp"
#include "kernel/process.hpp"
#include "kernel/pseudofs.hpp"
#include "kernel/scheduler.hpp"
#include "kernel/syscalls.hpp"
#include "mem/placement.hpp"

namespace mkos::kernel {

enum class OsKind : std::uint8_t { kLinux, kMcKernel, kMos, kFusedOs };

[[nodiscard]] std::string_view to_string(OsKind k);

struct SyscallRet {
  int err = kOk;
  sim::TimeNs cost{0};
};

struct MmapRet {
  int err = kOk;
  sim::TimeNs cost{0};
  mem::Vma* vma = nullptr;
};

/// Semantic capabilities the LTP-style compatibility suite probes. Each maps
/// to behaviour the paper's Section III-D discusses.
enum class Capability : std::uint8_t {
  kForkFull,               ///< full fork() semantics (mOS: not yet)
  kPtraceFull,             ///< complete ptrace() (McKernel proxy model: hard)
  kPtraceBasic,            ///< attach/peek works at all
  kMovePages,              ///< move_pages() (McKernel: work in progress)
  kMigratePages,
  kCloneEsotericFlags,     ///< unusual clone() flag combinations
  kBrkShrinkReleases,      ///< shrunk heap pages fault afterwards (HPC brk: no)
  kMremapFull,
  kTimersFull,             ///< POSIX interval timers
  kSignalsFull,            ///< complete signal edge cases (queued RT signals...)
  kProcSelfComplete,       ///< every /proc/self/* file tools expect
  kCpuHotplug,
  kPerfCounters,           ///< standard perf-counter interfaces
  kTimeSharing,            ///< preemptive time sharing available
  kCount_,
};

class Kernel {
 public:
  Kernel(const hw::NodeTopology& topo, mem::PhysMemory& phys);
  virtual ~Kernel() = default;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  [[nodiscard]] virtual OsKind kind() const = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual Disposition disposition(Sys s) const = 0;
  [[nodiscard]] virtual bool capable(Capability c) const = 0;

  // ------------------------------------------------------- process lifecycle
  /// Create a process homed on `home_quadrant`, with this kernel's heap
  /// engine attached. The returned reference is stable for the kernel's life.
  Process& create_process(int home_quadrant);
  [[nodiscard]] const std::vector<std::unique_ptr<Process>>& processes() const {
    return processes_;
  }

  // ------------------------------------------------- functional system calls
  [[nodiscard]] virtual MmapRet sys_mmap(Process& p, sim::Bytes length,
                                         mem::VmaKind kind, mem::MemPolicy policy) = 0;
  [[nodiscard]] SyscallRet sys_munmap(Process& p, sim::Bytes start);
  /// sbrk-style brk: delta in bytes (0 = query).
  [[nodiscard]] SyscallRet sys_brk(Process& p, std::int64_t delta);
  [[nodiscard]] virtual SyscallRet sys_set_mempolicy(Process& p, mem::MemPolicy policy);
  [[nodiscard]] virtual SyscallRet sys_fork(Process& p);
  [[nodiscard]] virtual SyscallRet sys_clone_thread(Process& p, hw::CoreId core);
  /// Change protections on the VMA containing `addr` (whole-VMA granularity).
  [[nodiscard]] SyscallRet sys_mprotect(Process& p, sim::Bytes addr, int prot);
  /// madvise(): kDontNeed releases backing on kernels that honor it (Linux);
  /// the LWKs keep the physical pages — HPC applications reuse them.
  enum class Madvise : std::uint8_t { kNormal, kWillNeed, kDontNeed };
  [[nodiscard]] virtual SyscallRet sys_madvise(Process& p, sim::Bytes addr, Madvise adv);
  [[nodiscard]] SyscallRet sys_sched_yield(Process& p);
  /// open() with pseudo-filesystem awareness; non-/proc//sys paths succeed
  /// through the (possibly offloaded) VFS.
  [[nodiscard]] SyscallRet sys_open(Process& p, std::string path);
  /// Any other call: priced and dispatched by disposition.
  [[nodiscard]] virtual SyscallRet sys_generic(Process& p, Sys s);

  /// First-touch `bytes` of a demand-paged VMA.
  [[nodiscard]] mem::TouchResult touch(Process& p, mem::Vma& vma, sim::Bytes bytes,
                                       int concurrent_faulters);
  /// Application touches heap bytes grown since the last call.
  [[nodiscard]] sim::TimeNs heap_touch(Process& p, int concurrent_faulters);

  // ------------------------------------------------------------ pricing hooks
  /// Entry + handling of a call implemented locally.
  [[nodiscard]] virtual sim::TimeNs local_syscall_cost() const = 0;
  /// Transport + remote handling for an offloaded call (0 payload = no-arg).
  [[nodiscard]] virtual sim::TimeNs offload_cost(sim::Bytes payload) const = 0;
  /// Price a call by its disposition on this kernel.
  [[nodiscard]] sim::TimeNs priced(Sys s, sim::Bytes payload = 256) const;
  /// Extra kernel-side cost of one kernel-involved network operation.
  [[nodiscard]] virtual sim::TimeNs network_syscall_overhead() const = 0;
  /// Effective network bandwidth factor (< 1 when the device path offloads).
  [[nodiscard]] virtual double network_bw_factor() const = 0;

  [[nodiscard]] virtual const NoiseModel& noise() const = 0;
  /// Noise source that couples to blocking collectives (empty on LWKs;
  /// heavy-tailed on Linux). Consumed by the collective cost model only.
  [[nodiscard]] virtual const NoiseModel& collective_noise() const;
  [[nodiscard]] virtual const SchedulerModel& scheduler_model() const = 0;
  [[nodiscard]] virtual const PseudoFs& pseudofs() const = 0;
  [[nodiscard]] virtual mem::MemCostModel mem_costs() const = 0;

  [[nodiscard]] const hw::NodeTopology& topo() const { return topo_; }
  [[nodiscard]] mem::PhysMemory& phys() { return phys_; }
  [[nodiscard]] const mem::PhysMemory& phys() const { return phys_; }

  [[nodiscard]] std::uint64_t offloaded_call_count() const { return offloaded_calls_; }
  [[nodiscard]] std::uint64_t local_call_count() const { return local_calls_; }
  /// Account brk calls replayed (not re-simulated) by MpiWorld's heap-cycle
  /// replay: sys_brk is always local, so the replicated lanes' calls land
  /// in the local counter exactly as the slow path would.
  void note_replayed_local_calls(std::uint64_t n) { local_calls_ += n; }
  /// IKC request/response round trips taken by offloaded calls. Zero on
  /// kernels whose offload path does not ride a message channel (Linux has
  /// no offloading; mOS migrates threads instead of posting messages).
  [[nodiscard]] virtual std::uint64_t ikc_round_trips() const { return 0; }

 protected:
  /// Build the heap engine attached to new processes.
  [[nodiscard]] virtual std::unique_ptr<mem::HeapEngine> make_heap(Process& p) = 0;
  /// Whether file descriptors live in the Linux proxy (McKernel).
  [[nodiscard]] virtual bool fds_proxy_managed() const { return false; }

  void count_call(Disposition d);

  const hw::NodeTopology& topo_;
  mem::PhysMemory& phys_;
  std::vector<std::unique_ptr<Process>> processes_;
  Pid next_pid_ = 2;
  std::uint64_t offloaded_calls_ = 0;
  std::uint64_t local_calls_ = 0;
};

}  // namespace mkos::kernel
