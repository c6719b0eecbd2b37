#pragma once
// VmemArena — an interval allocator in the style of Bonwick & Adams' vmem:
// a sorted, coalescing free-segment list over an abstract [0, span) offset
// space, with power-of-two quantum caches in front of the segment path and
// an import callback that grows the span from a backing source (here:
// `mem::DomainAllocator` best-effort carving) when the arena runs dry.
//
// The arena does not hand out real memory — offsets are simulation handles.
// What it models is the *cost structure*: quantum-cache hits are cheap,
// segment-list operations cost `segment_op_cost`, and imports cost
// `import_cost` plus whatever the backing layer charges.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "sim/units.hpp"

namespace mkos::alloc {

/// Result of a VmemArena::alloc call.
struct VmemAlloc {
  bool ok = false;        ///< false when the arena and its source are exhausted
  sim::Bytes offset = 0;  ///< handle into the arena's offset space
  sim::TimeNs cost{0};    ///< modeled CPU time spent in the allocator
};

/// `count` equal-size ranges laid end to end from `offset`, in carve order.
/// The stride is the arena's aligned size, `align_up(bytes, quantum)`.
struct VmemRun {
  sim::Bytes offset = 0;
  std::uint64_t count = 0;
};

/// Counters kept by the arena; snapshotted into the `alloc.*` ledger group.
struct VmemStats {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t qcache_hits = 0;
  std::uint64_t imports = 0;
  std::uint64_t import_fails = 0;
  sim::Bytes import_bytes = 0;
};

class VmemArena {
 public:
  /// Import callback: asked for at least `want` bytes, returns the number of
  /// bytes actually granted (0 on exhaustion). The granted span is appended
  /// to the end of the arena's offset space.
  using ImportFn = std::function<sim::Bytes(sim::Bytes want)>;

  /// `quantum` — allocation granularity (requests round up to it).
  /// `import_quantum` — granularity of span growth from the source.
  /// `segment_op_cost` / `import_cost` — modeled CPU time per segment-list
  /// operation and per import round-trip respectively.
  VmemArena(std::string name, sim::Bytes quantum, sim::Bytes import_quantum,
            ImportFn import, sim::TimeNs segment_op_cost,
            sim::TimeNs import_cost);

  VmemArena(const VmemArena&) = delete;
  VmemArena& operator=(const VmemArena&) = delete;

  /// Allocate `bytes` (rounded up to the quantum): the count-1 case of
  /// alloc_n.
  [[nodiscard]] VmemAlloc alloc(sim::Bytes bytes);

  /// Carve `count` ranges of `bytes` each, exactly as `count` successive
  /// alloc(bytes) calls that stop after the first failure. Small requests
  /// (up to `kQuantumCacheClasses` quanta) pop the quantum cache first; the
  /// rest are first-fit over the segment list, which one walk serves by
  /// taking `length / size` ranges from each segment in order, importing
  /// from the source only once no segment fits. Granted offsets are appended
  /// to `runs` in carve order (extending its last run when contiguous, so
  /// every run in `runs` must be of this size); the modeled cost is added to
  /// `cost`. Returns the number of ranges granted.
  std::uint64_t alloc_n(sim::Bytes bytes, std::uint64_t count,
                        sim::TimeNs& cost, std::vector<VmemRun>& runs);

  /// Return a previously allocated range; coalesces with neighbors.
  /// Returns the modeled CPU cost of the free.
  sim::TimeNs free(sim::Bytes offset, sim::Bytes bytes);

  /// Return the contiguous run of `count` ranges of `bytes` starting at
  /// `offset`, exactly as freeing them one by one from the highest offset
  /// down. Returns the modeled CPU cost.
  sim::TimeNs free_n(sim::Bytes offset, sim::Bytes bytes, std::uint64_t count);

  [[nodiscard]] const VmemStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] sim::Bytes quantum() const { return quantum_; }
  [[nodiscard]] sim::Bytes span_bytes() const { return span_end_; }

  /// Number of discrete free segments (tests assert coalescing behavior).
  [[nodiscard]] std::size_t free_segment_count() const {
    return free_segments_.size();
  }

  /// Sizes up to this many quanta are fronted by quantum caches.
  static constexpr int kQuantumCacheClasses = 4;

 private:
  struct Segment {
    sim::Bytes offset = 0;
    sim::Bytes length = 0;
  };

  bool import_more(sim::Bytes want);
  void insert_free(sim::Bytes offset, sim::Bytes length);

  std::string name_;
  sim::Bytes quantum_;
  sim::Bytes import_quantum_;
  ImportFn import_;
  sim::TimeNs segment_op_cost_;
  sim::TimeNs import_cost_;

  sim::Bytes span_end_ = 0;             ///< arena offset space is [0, span_end_)
  std::vector<Segment> free_segments_;  ///< sorted by offset, fully coalesced
  /// quantum_caches_[k] holds free offsets of size (k+1)*quantum.
  std::vector<sim::Bytes> quantum_caches_[kQuantumCacheClasses];
  VmemStats stats_;
};

}  // namespace mkos::alloc
