#pragma once
// Placement engine: how each kernel backs a mapping with physical memory.
//
//  * place_lwk()   — upfront physical allocation in the LWK preference order
//                    (local MCDRAM -> remote MCDRAM -> local DDR4 -> remote
//                    DDR4), largest page size the extent allows (1G / 2M),
//                    optional per-rank MCDRAM quota (mOS launch partitioning)
//                    and optional demand-paging fallback (McKernel).
//  * place_linux() — demand paging: no physical backing at map time; the
//                    fault granule is chosen here (THP for large anon maps,
//                    4K otherwise).
//  * touch()       — first-touch simulation: back `bytes` of a demand-paged
//                    VMA according to its policy, charging fault + zeroing
//                    costs with a fault-handler contention multiplier.

#include <cstdint>
#include <span>

#include "mem/address_space.hpp"
#include "mem/numa_policy.hpp"
#include "mem/phys_allocator.hpp"
#include "sim/time.hpp"

namespace mkos::mem {

/// Cost constants a kernel charges for memory-management work. Each kernel
/// model owns an instance; the defaults are Linux-on-KNL-class numbers
/// (KNL cores are slow: ~1.4 GHz, no out-of-order depth to hide traps).
struct MemCostModel {
  sim::TimeNs syscall_entry{400};      ///< trap + dispatch + return
  sim::TimeNs fault_4k{2400};          ///< minor-fault handler, 4 KiB
  sim::TimeNs fault_large{2600};       ///< fault handler for 2M/1G granule
  sim::TimeNs pte_per_page{18};        ///< page-table population per page at map time
  double zero_gbps = 18.0;             ///< single-thread memset bandwidth
  double contention_slope = 0.18;      ///< extra handler cost per concurrent faulter

  [[nodiscard]] sim::TimeNs zero_cost(sim::Bytes bytes) const {
    return sim::from_double_ns(static_cast<double>(bytes) / (zero_gbps * 1e9) * 1e9);
  }
  [[nodiscard]] double contention(int concurrent_faulters) const {
    return 1.0 + contention_slope * static_cast<double>(concurrent_faulters > 0 ? concurrent_faulters - 1 : 0);
  }
};

struct PlaceRequest {
  sim::Bytes bytes = 0;
  MemPolicy policy;          ///< explicit application policy (if any)
  int home_quadrant = 0;     ///< quadrant of the faulting / calling CPU
  bool prefer_mcdram = true; ///< LWK default placement order
  bool use_large_pages = true;
  /// mOS-style per-process MCDRAM budget; kNoQuota disables the cap.
  sim::Bytes mcdram_quota = kNoQuota;
  sim::Bytes mcdram_quota_used = 0;
  /// McKernel: fall back to demand paging instead of failing/spilling when
  /// physically contiguous memory of the preferred kind is unavailable.
  bool demand_fallback = false;
  /// mOS: rigid — only physically available memory; ENOMEM when exhausted.
  bool rigid = false;

  static constexpr sim::Bytes kNoQuota = ~sim::Bytes{0};
};

struct PlaceResult {
  Placement placement;          ///< what got backed now
  ExtentList extents;           ///< physical extents to attach to the VMA
  sim::Bytes backed = 0;
  sim::Bytes deferred = 0;      ///< left to demand paging
  bool used_demand_fallback = false;
  sim::TimeNs map_cost{0};      ///< PTE population + zeroing charged at map
  int err = 0;                  ///< 0 or ENOMEM
  sim::Bytes mcdram_taken = 0;  ///< for quota accounting by the caller
};

/// Upfront placement used by McKernel and mOS.
[[nodiscard]] PlaceResult place_lwk(PhysMemory& phys, const hw::NodeTopology& topo,
                                    const MemCostModel& cost, const PlaceRequest& req);

/// Linux mapping: record the fault granule; no physical backing yet.
/// `thp_enabled` models transparent huge pages for anon mappings >= 2 MiB.
[[nodiscard]] PlaceResult place_linux(const hw::NodeTopology& topo,
                                      const MemCostModel& cost, const PlaceRequest& req,
                                      Vma& vma, bool thp_enabled);

struct TouchResult {
  std::uint64_t faults = 0;
  sim::Bytes newly_backed = 0;
  sim::TimeNs cost{0};
};

/// First-touch `bytes` of a demand-paged VMA of `as`: allocate physical
/// pages in policy order, charge fault handling + zeroing. `concurrent_faulters`
/// is the number of ranks on the node concurrently inside the fault path.
[[nodiscard]] TouchResult touch(PhysMemory& phys, const hw::NodeTopology& topo,
                                const MemCostModel& cost, AddressSpace& as, Vma& vma,
                                sim::Bytes bytes, int home_quadrant, int concurrent_faulters);

/// Domain order a Linux first-touch walks for the given policy. Views the
/// topology's precomputed tables (or the policy's own domain list for
/// Bind/Interleave, so `policy` must outlive the view).
[[nodiscard]] std::span<const hw::DomainId> linux_domain_order(
    const hw::NodeTopology& topo, const MemPolicy& policy, int home_quadrant);

/// Domain order an LWK placement walks (MCDRAM-first spill order). Views
/// the topology's precomputed tables.
[[nodiscard]] std::span<const hw::DomainId> lwk_domain_order(
    const hw::NodeTopology& topo, int home_quadrant, bool prefer_mcdram);

}  // namespace mkos::mem
