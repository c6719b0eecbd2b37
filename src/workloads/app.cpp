#include "workloads/app.hpp"

#include "kernel/kernel.hpp"
#include "sim/contracts.hpp"

namespace mkos::workloads {

std::vector<int> App::node_counts() const { return fig4_node_counts(); }

std::vector<int> fig4_node_counts() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048};
}

void tune_linux_mcdram_bind(runtime::Job& job) {
  kernel::Kernel& k = job.kernel();
  if (k.kind() != kernel::OsKind::kLinux) return;
  const mem::MemPolicy bind =
      mem::MemPolicy::bind(job.node().topo().domains_of_kind(hw::MemKind::kMcdram));
  if (bind.domains.empty()) return;
  for (int i = 0; i < job.lane_count(); ++i) {
    const auto r = k.sys_set_mempolicy(job.lane(i), bind);
    MKOS_ASSERT(r.err == kernel::kOk);
  }
}

void alloc_working_set(runtime::Job& job, sim::Bytes bytes,
                       const std::vector<double>& per_lane_scale) {
  kernel::Kernel& k = job.kernel();
  const int lanes = job.lane_count();
  // Allocation happens roughly in lockstep across ranks at startup; touching
  // proceeds in slices, interleaved across lanes, which is what lets
  // McKernel's demand-paging fallback pack MCDRAM evenly.
  struct Pending {
    mem::Vma* vma;
    kernel::Process* p;
    sim::Bytes left;
  };
  std::vector<Pending> pending;
  for (int i = 0; i < lanes; ++i) {
    sim::Bytes b = bytes;
    if (!per_lane_scale.empty()) {
      const double s = per_lane_scale[static_cast<std::size_t>(i) % per_lane_scale.size()];
      b = static_cast<sim::Bytes>(static_cast<double>(bytes) * s);
    }
    if (b == 0) continue;
    kernel::Process& p = job.lane(i);
    const auto r = k.sys_mmap(p, b, mem::VmaKind::kAnon, mem::MemPolicy::standard());
    MKOS_ASSERT(r.err == kernel::kOk);
    if (r.vma != nullptr && r.vma->demand_paged) {
      pending.push_back(Pending{r.vma, &p, b});
    }
  }
  // Interleaved first touch, 64 MiB slices per round.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto& pend : pending) {
      if (pend.left == 0) continue;
      const sim::Bytes slice = std::min<sim::Bytes>(pend.left, 64 * sim::MiB);
      (void)k.touch(*pend.p, *pend.vma, slice, lanes);
      pend.left -= slice;
      progressed = true;
    }
  }
}

void init_heap(runtime::Job& job, sim::Bytes bytes) {
  kernel::Kernel& k = job.kernel();
  for (int i = 0; i < job.lane_count(); ++i) {
    kernel::Process& p = job.lane(i);
    (void)k.sys_brk(p, static_cast<std::int64_t>(bytes));
    (void)k.heap_touch(p, job.lane_count());
  }
}

}  // namespace mkos::workloads
