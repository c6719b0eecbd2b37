#include "mem/placement.hpp"

#include <algorithm>

#include "sim/contracts.hpp"

namespace mkos::mem {

namespace {

/// Fraction of an eligible anon range transparent huge pages actually cover
/// on this Linux vintage (khugepaged lag, alignment holes).
constexpr double kThpCoverage = 0.65;

/// Largest page size usable for a run of `bytes` in a domain whose largest
/// free aligned extent is `largest`.
PageSize best_page(sim::Bytes bytes, sim::Bytes largest, bool use_large) {
  if (!use_large) return PageSize::k4K;
  if (bytes >= sim::GiB && largest >= sim::GiB) return PageSize::k1G;
  if (bytes >= 2 * sim::MiB && largest >= 2 * sim::MiB) return PageSize::k2M;
  return PageSize::k4K;
}

sim::TimeNs pte_cost(const MemCostModel& cost, sim::Bytes bytes, PageSize page) {
  return cost.pte_per_page * static_cast<std::int64_t>(pages_for(bytes, page));
}

/// Per-domain byte share of an INTERLEAVE request: the round-robin page
/// stripe collapses to an even split of the range across the listed domains
/// (page granularity rounding aside). 0 for every other mode.
sim::Bytes interleave_share(const MemPolicy& policy, sim::Bytes total) {
  if (policy.mode != PolicyMode::kInterleave || policy.domains.empty()) return 0;
  const auto n = static_cast<sim::Bytes>(policy.domains.size());
  return sim::align_up(std::max<sim::Bytes>(total / n, 4 * sim::KiB), 4 * sim::KiB);
}

}  // namespace

std::span<const hw::DomainId> lwk_domain_order(const hw::NodeTopology& topo,
                                               int home_quadrant, bool prefer_mcdram) {
  return topo.kind_major_order(
      home_quadrant, prefer_mcdram ? hw::MemKind::kMcdram : hw::MemKind::kDdr4);
}

std::span<const hw::DomainId> linux_domain_order(const hw::NodeTopology& topo,
                                                 const MemPolicy& policy, int home_quadrant) {
  switch (policy.mode) {
    case PolicyMode::kBind:
    case PolicyMode::kInterleave:
      return policy.domains;
    case PolicyMode::kPreferred:
      MKOS_EXPECTS(policy.domains.size() == 1);  // the Linux limitation
      return topo.fallback_order_from(home_quadrant, policy.domains[0]);
    case PolicyMode::kDefault:
      return topo.fallback_order(home_quadrant);
  }
  return topo.fallback_order(home_quadrant);
}

PlaceResult place_lwk(PhysMemory& phys, const hw::NodeTopology& topo,
                      const MemCostModel& cost, const PlaceRequest& req) {
  MKOS_EXPECTS(req.bytes > 0);
  PlaceResult res;

  DomainList merged;
  std::span<const hw::DomainId> order;
  if (req.policy.mode == PolicyMode::kDefault) {
    order = lwk_domain_order(topo, req.home_quadrant, req.prefer_mcdram);
  } else {
    // McKernel "implements the standard NUMA APIs" — an explicit policy wins
    // over the LWK spill order, but the LWK still appends a DDR4 fallback so
    // it can "silently fall back to DDR4 RAM once they run out of MCDRAM".
    // Both orders name distinct domains of one topology, so the merge fits
    // a DomainList.
    merged = DomainList{linux_domain_order(topo, req.policy, req.home_quadrant)};
    if (req.policy.mode != PolicyMode::kBind) {
      for (hw::DomainId d : lwk_domain_order(topo, req.home_quadrant, false)) {
        if (!merged.contains(d)) merged.push_back(d);
      }
    }
    order = merged;
  }

  sim::Bytes remaining = sim::align_up(req.bytes, 4 * sim::KiB);
  sim::Bytes quota_left = req.mcdram_quota == PlaceRequest::kNoQuota
                              ? PlaceRequest::kNoQuota
                              : (req.mcdram_quota > req.mcdram_quota_used
                                     ? req.mcdram_quota - req.mcdram_quota_used
                                     : 0);

  // INTERLEAVE stripes pages round-robin over the policy domains; at mmap
  // granularity that collapses to an even per-domain share. Pass 0 honors the
  // shares; pass 1 places whatever exhausted domains rejected via the normal
  // fallback walk (matching Linux, which skips full domains in the stripe).
  const sim::Bytes stripe_share = interleave_share(req.policy, remaining);
  const int passes = stripe_share > 0 ? 2 : 1;
  for (int pass = 0; pass < passes && remaining > 0; ++pass) {
    for (hw::DomainId d : order) {
      if (remaining == 0) break;
      auto& alloc = phys.domain(d);
      const bool is_mcdram = topo.domain(d).kind == hw::MemKind::kMcdram;

      sim::Bytes want = remaining;
      if (pass == 0 && stripe_share > 0 && req.policy.domains.contains(d)) {
        want = std::min(want, stripe_share);
      }
      if (is_mcdram && quota_left != PlaceRequest::kNoQuota) {
        want = std::min(want, quota_left);
        if (want == 0) continue;
      }

      // Try progressively smaller page granules within this domain.
      for (PageSize page : {PageSize::k1G, PageSize::k2M, PageSize::k4K}) {
        if (want == 0) break;
        const PageSize usable =
            best_page(want, alloc.largest_free_extent(), req.use_large_pages);
        // Skip granules larger than what the request/extents support.
        if (page_bytes(page) > page_bytes(usable)) continue;
        const sim::Bytes granule = page_bytes(page);
        const sim::Bytes ask = sim::align_down(want, granule);
        if (ask == 0) continue;
        const auto& extents = alloc.alloc_best_effort(ask, granule);
        for (const auto& e : extents) {
          res.extents.push_back(e);
          res.placement.add(d, page, e.length);
          res.map_cost += pte_cost(cost, e.length, page);
          // LWKs hand out pre-zeroed memory at map time so no fault ever hits
          // the application; the zeroing bill is paid here, once.
          res.map_cost += cost.zero_cost(e.length);
          remaining -= e.length;
          want -= e.length;
          if (is_mcdram) {
            res.mcdram_taken += e.length;
            if (quota_left != PlaceRequest::kNoQuota) quota_left -= e.length;
          }
        }
      }
    }
  }

  res.backed = res.placement.total();
  if (remaining > 0) {
    if (req.demand_fallback) {
      // McKernel: "automatically fall back to demand paging to allow best
      // effort allocation ... when enough physical memory is not available".
      res.deferred = remaining;
      res.used_demand_fallback = true;
    } else if (req.rigid) {
      // mOS: "Only physically available memory can be allocated."
      res.err = 12;  // ENOMEM
    } else {
      res.deferred = remaining;
    }
  }
  return res;
}

PlaceResult place_linux(const hw::NodeTopology& topo, const MemCostModel& cost,
                        const PlaceRequest& req, Vma& vma, bool thp_enabled) {
  MKOS_EXPECTS(req.bytes > 0);
  (void)topo;
  PlaceResult res;
  res.deferred = sim::align_up(req.bytes, 4 * sim::KiB);
  // THP: private anon mappings of >= 2 MiB get a 2 MiB fault granule. The
  // heap is handled separately (LinuxHeap: brk alignment rarely allows THP)
  // and tmpfs/shm segments stay at 4 KiB (shmem THP is off on this vintage).
  vma.touch_page = (thp_enabled && req.bytes >= 2 * sim::MiB && vma.kind == VmaKind::kAnon)
                       ? PageSize::k2M
                       : PageSize::k4K;
  vma.demand_paged = true;
  res.map_cost = cost.pte_per_page;  // VMA bookkeeping only
  return res;
}

TouchResult touch(PhysMemory& phys, const hw::NodeTopology& topo, const MemCostModel& cost,
                  AddressSpace& as, Vma& vma, sim::Bytes bytes, int home_quadrant,
                  int concurrent_faulters) {
  TouchResult res;
  if (!vma.demand_paged) return res;
  sim::Bytes remaining = std::min(bytes, vma.unbacked());
  if (remaining == 0) return res;

  const std::span<const hw::DomainId> order =
      vma.touch_lwk_order ? lwk_domain_order(topo, home_quadrant, true)
                          : linux_domain_order(topo, vma.policy, home_quadrant);
  const double contention = cost.contention(concurrent_faulters);

  // INTERLEAVE faults land round-robin over the policy domains; per touch
  // slice that is an even per-domain share (pass 0), with anything an
  // exhausted domain rejected spilling down the walk order (pass 1).
  const sim::Bytes stripe_share =
      vma.touch_lwk_order ? 0 : interleave_share(vma.policy, remaining);
  const int passes = stripe_share > 0 ? 2 : 1;
  for (int pass = 0; pass < passes && remaining > 0; ++pass) {
    for (hw::DomainId d : order) {
      if (remaining == 0) break;
      auto& alloc = phys.domain(d);
      if (vma.policy.mode == PolicyMode::kBind && !vma.policy.domains.contains(d)) continue;
      sim::Bytes budget = remaining;
      if (pass == 0 && stripe_share > 0 && vma.policy.domains.contains(d)) {
        budget = std::min(budget, stripe_share);
      }
      // Fault granule: the VMA's granule when extents allow, else 4K. THP is
      // opportunistic on Linux — khugepaged only collapses part of an anon
      // range into huge pages (alignment holes, partial ranges, scan lag) —
      // while the LWK fallback path always fills whole 2 MiB granules.
      sim::Bytes thp_budget =
          vma.touch_lwk_order
              ? remaining
              : sim::align_down(
                    static_cast<sim::Bytes>(static_cast<double>(remaining) * kThpCoverage),
                    page_bytes(PageSize::k2M));
      while (remaining > 0 && budget > 0) {
        PageSize page = vma.touch_page;
        if (page == PageSize::k2M && thp_budget == 0) page = PageSize::k4K;
        if (page_bytes(page) > remaining || alloc.largest_free_extent() < page_bytes(page)) {
          page = PageSize::k4K;
        }
        const sim::Bytes granule = page_bytes(page);
        sim::Bytes ask = sim::align_up(
            std::min({remaining, budget, sim::Bytes{64} * sim::MiB}), granule);
        if (page == PageSize::k2M) ask = std::min(ask, thp_budget);
        const auto& extents = alloc.alloc_best_effort(ask, granule);
        if (extents.empty()) break;  // domain exhausted; next in fallback order
        for (const auto& e : extents) {
          as.back(vma, d, page, e);
          const std::uint64_t n = pages_for(e.length, page);
          res.faults += n;
          const sim::TimeNs handler = page == PageSize::k4K ? cost.fault_4k : cost.fault_large;
          res.cost += (handler * static_cast<std::int64_t>(n)).scaled(contention);
          // Linux zeroes each page inside the fault (write to the CoW zero page).
          res.cost += cost.zero_cost(e.length);
          res.newly_backed += e.length;
          remaining -= std::min(remaining, e.length);
          budget -= std::min(budget, e.length);
          if (page == PageSize::k2M) thp_budget -= std::min(thp_budget, e.length);
        }
      }
    }
  }
  as.note_faults(vma, res.faults);
  if (vma.unbacked() == 0) vma.demand_paged = vma.kind == VmaKind::kHeap;  // heap can grow again
  return res;
}

}  // namespace mkos::mem
