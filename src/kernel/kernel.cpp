#include "kernel/kernel.hpp"

#include "sim/contracts.hpp"

namespace mkos::kernel {

std::string_view to_string(OsKind k) {
  switch (k) {
    case OsKind::kLinux: return "Linux";
    case OsKind::kMcKernel: return "McKernel";
    case OsKind::kMos: return "mOS";
    case OsKind::kFusedOs: return "FusedOS";
  }
  return "?";
}

std::string_view sys_name(Sys s) {
  switch (s) {
    case Sys::kBrk: return "brk";
    case Sys::kMmap: return "mmap";
    case Sys::kMunmap: return "munmap";
    case Sys::kMprotect: return "mprotect";
    case Sys::kMremap: return "mremap";
    case Sys::kMadvise: return "madvise";
    case Sys::kSetMempolicy: return "set_mempolicy";
    case Sys::kGetMempolicy: return "get_mempolicy";
    case Sys::kMbind: return "mbind";
    case Sys::kMovePages: return "move_pages";
    case Sys::kMigratePages: return "migrate_pages";
    case Sys::kMlock: return "mlock";
    case Sys::kMunlock: return "munlock";
    case Sys::kShmget: return "shmget";
    case Sys::kShmat: return "shmat";
    case Sys::kShmdt: return "shmdt";
    case Sys::kClone: return "clone";
    case Sys::kFork: return "fork";
    case Sys::kVfork: return "vfork";
    case Sys::kExecve: return "execve";
    case Sys::kExit: return "exit";
    case Sys::kExitGroup: return "exit_group";
    case Sys::kWait4: return "wait4";
    case Sys::kWaitid: return "waitid";
    case Sys::kGetpid: return "getpid";
    case Sys::kGettid: return "gettid";
    case Sys::kGetppid: return "getppid";
    case Sys::kKill: return "kill";
    case Sys::kTkill: return "tkill";
    case Sys::kTgkill: return "tgkill";
    case Sys::kRtSigaction: return "rt_sigaction";
    case Sys::kRtSigprocmask: return "rt_sigprocmask";
    case Sys::kRtSigreturn: return "rt_sigreturn";
    case Sys::kSigaltstack: return "sigaltstack";
    case Sys::kSchedYield: return "sched_yield";
    case Sys::kSchedSetaffinity: return "sched_setaffinity";
    case Sys::kSchedGetaffinity: return "sched_getaffinity";
    case Sys::kSchedSetscheduler: return "sched_setscheduler";
    case Sys::kSchedGetscheduler: return "sched_getscheduler";
    case Sys::kSetpriority: return "setpriority";
    case Sys::kGetpriority: return "getpriority";
    case Sys::kPtrace: return "ptrace";
    case Sys::kPrctl: return "prctl";
    case Sys::kArchPrctl: return "arch_prctl";
    case Sys::kSetTidAddress: return "set_tid_address";
    case Sys::kFutex: return "futex";
    case Sys::kGetrlimit: return "getrlimit";
    case Sys::kSetrlimit: return "setrlimit";
    case Sys::kGetrusage: return "getrusage";
    case Sys::kTimes: return "times";
    case Sys::kOpen: return "open";
    case Sys::kOpenat: return "openat";
    case Sys::kClose: return "close";
    case Sys::kRead: return "read";
    case Sys::kWrite: return "write";
    case Sys::kPread64: return "pread64";
    case Sys::kPwrite64: return "pwrite64";
    case Sys::kReadv: return "readv";
    case Sys::kWritev: return "writev";
    case Sys::kLseek: return "lseek";
    case Sys::kStat: return "stat";
    case Sys::kFstat: return "fstat";
    case Sys::kLstat: return "lstat";
    case Sys::kAccess: return "access";
    case Sys::kDup: return "dup";
    case Sys::kDup2: return "dup2";
    case Sys::kPipe: return "pipe";
    case Sys::kFcntl: return "fcntl";
    case Sys::kIoctl: return "ioctl";
    case Sys::kMknod: return "mknod";
    case Sys::kUnlink: return "unlink";
    case Sys::kRename: return "rename";
    case Sys::kMkdir: return "mkdir";
    case Sys::kRmdir: return "rmdir";
    case Sys::kGetdents: return "getdents";
    case Sys::kChdir: return "chdir";
    case Sys::kGetcwd: return "getcwd";
    case Sys::kReadlink: return "readlink";
    case Sys::kChmod: return "chmod";
    case Sys::kChown: return "chown";
    case Sys::kUmask: return "umask";
    case Sys::kTruncate: return "truncate";
    case Sys::kFtruncate: return "ftruncate";
    case Sys::kFsync: return "fsync";
    case Sys::kStatfs: return "statfs";
    case Sys::kSocket: return "socket";
    case Sys::kConnect: return "connect";
    case Sys::kAccept: return "accept";
    case Sys::kBind: return "bind";
    case Sys::kListen: return "listen";
    case Sys::kSendto: return "sendto";
    case Sys::kRecvfrom: return "recvfrom";
    case Sys::kSendmsg: return "sendmsg";
    case Sys::kRecvmsg: return "recvmsg";
    case Sys::kShutdown: return "shutdown";
    case Sys::kGetsockname: return "getsockname";
    case Sys::kGetsockopt: return "getsockopt";
    case Sys::kSetsockopt: return "setsockopt";
    case Sys::kPoll: return "poll";
    case Sys::kSelect: return "select";
    case Sys::kEpollCreate: return "epoll_create";
    case Sys::kEpollCtl: return "epoll_ctl";
    case Sys::kEpollWait: return "epoll_wait";
    case Sys::kGettimeofday: return "gettimeofday";
    case Sys::kClockGettime: return "clock_gettime";
    case Sys::kClockNanosleep: return "clock_nanosleep";
    case Sys::kNanosleep: return "nanosleep";
    case Sys::kAlarm: return "alarm";
    case Sys::kTimerCreate: return "timer_create";
    case Sys::kTimerSettime: return "timer_settime";
    case Sys::kGetitimer: return "getitimer";
    case Sys::kSetitimer: return "setitimer";
    case Sys::kUname: return "uname";
    case Sys::kSysinfo: return "sysinfo";
    case Sys::kGetuid: return "getuid";
    case Sys::kGetgid: return "getgid";
    case Sys::kGeteuid: return "geteuid";
    case Sys::kGetegid: return "getegid";
    case Sys::kSetuid: return "setuid";
    case Sys::kSetgid: return "setgid";
    case Sys::kCapget: return "capget";
    case Sys::kCapset: return "capset";
    case Sys::kPerfEventOpen: return "perf_event_open";
    case Sys::kCount_: break;
  }
  return "?";
}

std::string_view to_string(Disposition d) {
  switch (d) {
    case Disposition::kLocal: return "local";
    case Disposition::kOffloaded: return "offloaded";
    case Disposition::kPartial: return "partial";
    case Disposition::kUnsupported: return "unsupported";
  }
  return "?";
}

Kernel::Kernel(const hw::NodeTopology& topo, mem::PhysMemory& phys)
    : topo_(topo), phys_(phys) {}

const NoiseModel& Kernel::collective_noise() const {
  // LWK default: no collective-coupled interference (strong partitioning).
  static const NoiseModel kNone{};
  return kNone;
}

void Kernel::count_call(Disposition d) {
  if (d == Disposition::kOffloaded) {
    ++offloaded_calls_;
  } else {
    ++local_calls_;
  }
}

Process& Kernel::create_process(int home_quadrant) {
  auto p = std::make_unique<Process>(next_pid_++, home_quadrant);
  p->set_heap(make_heap(*p));
  processes_.push_back(std::move(p));
  return *processes_.back();
}

SyscallRet Kernel::sys_munmap(Process& p, sim::Bytes start) {
  count_call(Disposition::kLocal);
  auto vma = p.address_space().unmap(start);
  if (!vma.has_value()) return {kEINVAL, local_syscall_cost()};
  sim::TimeNs cost = local_syscall_cost();
  const mem::MemCostModel mc = mem_costs();
  for (const auto& e : vma->extents()) {
    phys_.domain(e.domain).free(e);
    cost += mc.pte_per_page;  // coarse: teardown priced per extent
  }
  return {kOk, cost};
}

SyscallRet Kernel::sys_brk(Process& p, std::int64_t delta) {
  count_call(Disposition::kLocal);
  MKOS_EXPECTS(p.heap() != nullptr);
  return {kOk, p.heap()->sbrk(delta)};
}

SyscallRet Kernel::sys_set_mempolicy(Process& p, mem::MemPolicy policy) {
  count_call(Disposition::kLocal);
  if (p.heap() != nullptr) p.heap()->set_policy(policy);
  p.set_mempolicy(std::move(policy));
  return {kOk, local_syscall_cost()};
}

SyscallRet Kernel::sys_fork(Process& p) {
  // Default: supported locally; concrete kernels override (mOS: ENOSYS).
  count_call(Disposition::kLocal);
  Process& child = create_process(p.home_quadrant());
  (void)child;
  return {kOk, local_syscall_cost() + sim::microseconds(60)};
}

SyscallRet Kernel::sys_clone_thread(Process& p, hw::CoreId core) {
  (void)core;  // binding is not modelled: the pricing is core-independent
  count_call(Disposition::kLocal);
  p.add_thread();
  return {kOk, local_syscall_cost() + sim::microseconds(12)};
}

SyscallRet Kernel::sys_mprotect(Process& p, sim::Bytes addr, int prot) {
  count_call(Disposition::kLocal);
  mem::Vma* vma = p.address_space().find(addr);
  if (vma == nullptr) return {kEINVAL, local_syscall_cost()};
  vma->prot = prot;
  // PTE permission rewrite, priced per page at the VMA's granule.
  const mem::MemCostModel mc = mem_costs();
  const sim::TimeNs cost =
      local_syscall_cost() +
      mc.pte_per_page * static_cast<std::int64_t>(
                            mem::pages_for(vma->length, vma->touch_page));
  return {kOk, cost};
}

SyscallRet Kernel::sys_madvise(Process& p, sim::Bytes addr, Madvise adv) {
  count_call(Disposition::kLocal);
  mem::Vma* vma = p.address_space().find(addr);
  if (vma == nullptr) return {kEINVAL, local_syscall_cost()};
  sim::TimeNs cost = local_syscall_cost();
  if (adv == Madvise::kDontNeed && kind() == OsKind::kLinux) {
    // Linux drops the backing; the next touch refaults.
    for (const auto& e : p.address_space().release(*vma)) phys_.domain(e.domain).free(e);
    vma->demand_paged = true;
    cost += mem_costs().pte_per_page *
            static_cast<std::int64_t>(mem::pages_for(vma->length, vma->touch_page));
  }
  // The LWKs accept the hint and keep the memory: reclaiming pages an HPC
  // application will reuse is exactly the churn the HPC heap avoids.
  return {kOk, cost};
}

SyscallRet Kernel::sys_sched_yield(Process& p) {
  (void)p;
  count_call(Disposition::kLocal);
  return {kOk, scheduler_model().sched_yield_cost()};
}

SyscallRet Kernel::sys_open(Process& p, std::string path) {
  const bool pseudo = path.rfind("/proc", 0) == 0 || path.rfind("/sys", 0) == 0;
  if (pseudo && !pseudofs().readable(path)) {
    count_call(Disposition::kUnsupported);
    return {kENOSYS, local_syscall_cost()};
  }
  const Disposition d = disposition(Sys::kOpen);
  count_call(d);
  const sim::TimeNs cost =
      d == Disposition::kOffloaded ? offload_cost(static_cast<sim::Bytes>(path.size()))
                                   : local_syscall_cost();
  p.open_fd(std::move(path), fds_proxy_managed());
  return {kOk, cost};
}

SyscallRet Kernel::sys_generic(Process& p, Sys s) {
  (void)p;
  const Disposition d = disposition(s);
  count_call(d);
  switch (d) {
    case Disposition::kLocal:
    case Disposition::kPartial:
      return {kOk, local_syscall_cost()};
    case Disposition::kOffloaded:
      return {kOk, offload_cost(256)};
    case Disposition::kUnsupported:
      return {kENOSYS, local_syscall_cost()};
  }
  return {kENOSYS, local_syscall_cost()};
}

sim::TimeNs Kernel::priced(Sys s, sim::Bytes payload) const {
  switch (disposition(s)) {
    case Disposition::kLocal:
    case Disposition::kPartial:
    case Disposition::kUnsupported:
      return local_syscall_cost();
    case Disposition::kOffloaded:
      return offload_cost(payload);
  }
  return local_syscall_cost();
}

mem::TouchResult Kernel::touch(Process& p, mem::Vma& vma, sim::Bytes bytes,
                               int concurrent_faulters) {
  return mem::touch(phys_, topo_, mem_costs(), p.address_space(), vma, bytes,
                    p.home_quadrant(), concurrent_faulters);
}

sim::TimeNs Kernel::heap_touch(Process& p, int concurrent_faulters) {
  MKOS_EXPECTS(p.heap() != nullptr);
  return p.heap()->touch_new(concurrent_faulters);
}

}  // namespace mkos::kernel
