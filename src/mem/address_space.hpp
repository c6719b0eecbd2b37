#pragma once
// Per-process virtual memory: VMAs, physical placement records, residency
// accounting. The executor asks an address space "what fraction of this
// process's working set sits in MCDRAM?" — the answer drives the roofline
// compute model, so placement records are exact, not sampled.

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <span>

#include "hw/topology.hpp"
#include "mem/numa_policy.hpp"
#include "mem/page.hpp"
#include "mem/phys_allocator.hpp"

namespace mkos::mem {

enum class VmaKind : std::uint8_t { kText, kBss, kHeap, kStack, kAnon, kShm, kFile };

[[nodiscard]] constexpr const char* to_string(VmaKind k) {
  switch (k) {
    case VmaKind::kText: return "text";
    case VmaKind::kBss: return "bss";
    case VmaKind::kHeap: return "heap";
    case VmaKind::kStack: return "stack";
    case VmaKind::kAnon: return "anon";
    case VmaKind::kShm: return "shm";
    case VmaKind::kFile: return "file";
  }
  return "?";
}

/// Where a mapping's resident pages physically live.
///
/// The record is bounded — at most one chunk per (domain, page size) — so it
/// lives inline and never touches the heap: every VMA, placement result and
/// LWK heap carries one, and per-rep set-up creates them by the million.
class Placement {
 public:
  /// Domain ids a record can hold (mem::kMaxDomains).
  static constexpr std::size_t kMaxDomains = mem::kMaxDomains;

  struct Chunk {
    hw::DomainId domain;
    PageSize page;
    sim::Bytes bytes;
  };

  /// Requires 0 <= domain < kMaxDomains.
  void add(hw::DomainId domain, PageSize page, sim::Bytes bytes);
  void clear() { *this = Placement{}; }

  [[nodiscard]] sim::Bytes total() const { return total_; }
  [[nodiscard]] sim::Bytes bytes_in_kind(const hw::NodeTopology& topo, hw::MemKind kind) const {
    return sum_in_kind(by_domain_, topo, kind);
  }
  /// Sum of per-domain byte counts over the domains of `topo` of `kind`.
  [[nodiscard]] static sim::Bytes sum_in_kind(const std::array<sim::Bytes, kMaxDomains>& by_domain,
                                              const hw::NodeTopology& topo, hw::MemKind kind) {
    const std::size_t n = std::min(kMaxDomains, topo.domains().size());
    sim::Bytes b = 0;
    for (std::size_t d = 0; d < n; ++d) {
      if (topo.domain(static_cast<hw::DomainId>(d)).kind == kind) b += by_domain[d];
    }
    return b;
  }
  [[nodiscard]] double fraction_in_kind(const hw::NodeTopology& topo, hw::MemKind kind) const {
    if (total_ == 0) return 0.0;
    return static_cast<double>(bytes_in_kind(topo, kind)) / static_cast<double>(total_);
  }
  [[nodiscard]] sim::Bytes bytes_with_page(PageSize p) const {
    return by_page_[static_cast<std::size_t>(p)];
  }
  /// Bytes in domain `d`; requires 0 <= d < kMaxDomains.
  [[nodiscard]] sim::Bytes bytes_in_domain(hw::DomainId d) const {
    return by_domain_[static_cast<std::size_t>(d)];
  }
  /// One chunk per (domain, page) pair added so far, in first-add order.
  /// Consumers that sum doubles over it (average_walk_depth) depend on
  /// that order, so it is part of the contract.
  [[nodiscard]] std::span<const Chunk> chunks() const { return {chunks_.data(), chunk_count_}; }

 private:
  static constexpr std::size_t kPageSizes = 3;  ///< PageSize values
  static constexpr std::size_t kMaxChunks = kMaxDomains * kPageSizes;

  std::array<Chunk, kMaxChunks> chunks_{};
  std::size_t chunk_count_ = 0;
  sim::Bytes total_ = 0;
  // Incremental aggregates maintained by add(): the engine reads
  // per-page-size and per-domain volumes between every heap cycle, so the
  // chunk-list scans those reads used to pay are folded into the writes.
  std::array<sim::Bytes, kPageSizes> by_page_{};    ///< indexed by PageSize
  std::array<sim::Bytes, kMaxDomains> by_domain_{};  ///< indexed by DomainId
  /// (domain, page) -> 1 + index into chunks_, 0 when absent; turns add()'s
  /// find-matching-chunk scan into one lookup.
  std::array<std::uint8_t, kMaxChunks> chunk_slot_{};
};

/// Running byte totals over a set of placements: what summing each
/// member's total(), bytes_in_kind() and bytes_with_page() would return,
/// read in O(1). The sums are integers, so they are independent of the
/// order members were added or removed in.
class Residency {
 public:
  void add(hw::DomainId domain, PageSize page, sim::Bytes bytes);
  void add(const Placement& p);
  /// Requires `p` to have been added before (no total goes negative).
  void remove(const Placement& p);

  [[nodiscard]] sim::Bytes total() const { return total_; }
  [[nodiscard]] sim::Bytes bytes_with_page(PageSize p) const {
    return by_page_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] sim::Bytes bytes_in_kind(const hw::NodeTopology& topo, hw::MemKind kind) const {
    return Placement::sum_in_kind(by_domain_, topo, kind);
  }

  friend bool operator==(const Residency&, const Residency&) = default;

 private:
  std::array<sim::Bytes, Placement::kMaxDomains> by_domain_{};
  std::array<sim::Bytes, 3> by_page_{};  ///< indexed by PageSize
  sim::Bytes total_ = 0;
};

/// Protection bits (PROT_* subset).
inline constexpr int kProtRead = 1;
inline constexpr int kProtWrite = 2;
inline constexpr int kProtExec = 4;

/// A mapping. Its physical backing (placement, extents, fault count) is
/// read-only here: every write goes through the owning AddressSpace, which
/// keeps its residency totals in step with it.
struct Vma {
  sim::Bytes start = 0;
  sim::Bytes length = 0;
  VmaKind kind = VmaKind::kAnon;
  MemPolicy policy;
  int prot = kProtRead | kProtWrite;

  PageSize touch_page = PageSize::k4K;  ///< granule used for demand faults
  bool demand_paged = false;    ///< unbacked remainder faults on first touch
  /// Demand faults walk the LWK spill order (MCDRAM-first) instead of the
  /// Linux policy order — McKernel's demand-paging fallback.
  bool touch_lwk_order = false;

  /// Physically backed portion.
  [[nodiscard]] const Placement& placement() const { return placement_; }
  /// Owned physical extents (freed on unmap).
  [[nodiscard]] const ExtentList& extents() const { return extents_; }
  [[nodiscard]] std::uint64_t fault_count() const { return fault_count_; }

  [[nodiscard]] sim::Bytes end() const { return start + length; }
  [[nodiscard]] sim::Bytes backed() const { return placement_.total(); }
  [[nodiscard]] sim::Bytes unbacked() const { return length - backed(); }

 private:
  friend class AddressSpace;
  Placement placement_;
  ExtentList extents_;
  std::uint64_t fault_count_ = 0;
};

class AddressSpace {
 public:
  AddressSpace();

  /// Create a VMA of `length` bytes (rounded up to 4 KiB). The address is
  /// assigned from the mmap region. Returns a stable reference.
  Vma& map(sim::Bytes length, VmaKind kind, MemPolicy policy);

  /// Remove the VMA starting at `start`; returns it (with its extents) so
  /// the kernel can return physical memory. nullopt when no such VMA.
  std::optional<Vma> unmap(sim::Bytes start);

  // Backing writes. `vma` must belong to this address space; these are the
  // only writers of a VMA's placement, extents and fault count.
  /// Map-time (upfront) backing of a VMA that has none yet.
  void attach(Vma& vma, const Placement& placement, ExtentList extents);
  /// One demand-faulted extent of `vma`, backed at `page` granule in `domain`.
  void back(Vma& vma, hw::DomainId domain, PageSize page, const Extent& extent);
  void note_faults(Vma& vma, std::uint64_t faults);
  /// Drop all of `vma`'s backing; returns its extents for the caller to free.
  [[nodiscard]] ExtentList release(Vma& vma);

  [[nodiscard]] Vma* find(sim::Bytes addr);
  [[nodiscard]] const Vma* find(sim::Bytes addr) const;

  [[nodiscard]] std::size_t vma_count() const { return vmas_.size(); }

  /// Iterate over all VMAs (ordered by start address).
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& [start, vma] : vmas_) f(vma);
  }
  template <typename F>
  void for_each(F&& f) {
    for (auto& [start, vma] : vmas_) f(vma);
  }

  /// Running totals over every VMA's placement.
  [[nodiscard]] const Residency& residency() const { return resident_; }
  /// The same over every VMA except the MPI shared-memory (kShm) ones: the
  /// application's own working set.
  [[nodiscard]] const Residency& app_residency() const { return app_resident_; }

  [[nodiscard]] sim::Bytes resident_bytes() const { return resident_.total(); }
  [[nodiscard]] sim::Bytes mapped_bytes() const;
  [[nodiscard]] std::uint64_t total_faults() const { return faults_; }

 private:
  /// The running totals equal a fresh walk of the VMA map (MKOS_AUDIT).
  [[nodiscard]] bool totals_match_walk() const;

  std::map<sim::Bytes, Vma> vmas_;  // start -> vma
  sim::Bytes mmap_cursor_;
  Residency resident_;
  Residency app_resident_;
  std::uint64_t faults_ = 0;
};

}  // namespace mkos::mem
