#include "alloc/vmem.hpp"

#include <algorithm>
#include <utility>

#include "sim/contracts.hpp"

namespace mkos::alloc {

VmemArena::VmemArena(std::string name, sim::Bytes quantum,
                     sim::Bytes import_quantum, ImportFn import,
                     sim::TimeNs segment_op_cost, sim::TimeNs import_cost)
    : name_(std::move(name)),
      quantum_(quantum),
      import_quantum_(import_quantum),
      import_(std::move(import)),
      segment_op_cost_(segment_op_cost),
      import_cost_(import_cost) {
  MKOS_EXPECTS(quantum_ > 0);
  MKOS_EXPECTS(import_quantum_ >= quantum_);
}

VmemAlloc VmemArena::alloc(sim::Bytes bytes) {
  std::vector<VmemRun> runs;
  VmemAlloc out;
  out.ok = alloc_n(bytes, 1, out.cost, runs) == 1;
  if (out.ok) out.offset = runs.front().offset;
  return out;
}

std::uint64_t VmemArena::alloc_n(sim::Bytes bytes, std::uint64_t count,
                                 sim::TimeNs& cost,
                                 std::vector<VmemRun>& runs) {
  MKOS_EXPECTS(bytes > 0);
  const sim::Bytes size = sim::align_up(bytes, quantum_);
  std::uint64_t granted = 0;
  const auto take = [&](sim::Bytes offset, std::uint64_t n) {
    if (!runs.empty() &&
        runs.back().offset + runs.back().count * size == offset) {
      runs.back().count += n;
    } else {
      runs.push_back(VmemRun{offset, n});
    }
    granted += n;
  };

  // Quantum-cache front end: constant-time pops, no segment-list traffic.
  const sim::Bytes quanta = size / quantum_;
  if (quanta <= kQuantumCacheClasses) {
    auto& cache = quantum_caches_[quanta - 1];
    const std::uint64_t hits = std::min<std::uint64_t>(count, cache.size());
    for (std::uint64_t i = 0; i < hits; ++i) {
      take(cache.back(), 1);
      cache.pop_back();
    }
    stats_.qcache_hits += hits;
  }

  // Segment path: repeated first fit drains each segment in list order down
  // to a remainder below `size`, so one walk serves the whole batch. Drained
  // segments are compacted out in the same pass.
  std::size_t kept = 0;
  std::size_t walked = 0;
  for (; walked < free_segments_.size() && granted < count; ++walked) {
    Segment seg = free_segments_[walked];
    const std::uint64_t n = std::min(count - granted, seg.length / size);
    if (n > 0) {
      take(seg.offset, n);
      seg.offset += n * size;
      seg.length -= n * size;
    }
    if (seg.length > 0) free_segments_[kept++] = seg;
  }
  free_segments_.erase(
      free_segments_.begin() + static_cast<std::ptrdiff_t>(kept),
      free_segments_.begin() + static_cast<std::ptrdiff_t>(walked));

  // No segment fits any more: import. A successful import ends the span, so
  // only the last segment can fit.
  while (granted < count) {
    cost += import_cost_;
    if (!import_more(size)) {
      ++stats_.import_fails;
      break;  // arena and source both exhausted
    }
    Segment& last = free_segments_.back();
    const std::uint64_t n = std::min(count - granted, last.length / size);
    MKOS_ASSERT(n > 0);
    take(last.offset, n);
    last.offset += n * size;
    last.length -= n * size;
    if (last.length == 0) free_segments_.pop_back();
  }

  stats_.allocs += granted;
  cost += segment_op_cost_ * static_cast<std::int64_t>(granted);
  return granted;
}

sim::TimeNs VmemArena::free(sim::Bytes offset, sim::Bytes bytes) {
  return free_n(offset, bytes, 1);
}

sim::TimeNs VmemArena::free_n(sim::Bytes offset, sim::Bytes bytes,
                              std::uint64_t count) {
  MKOS_EXPECTS(bytes > 0);
  MKOS_EXPECTS(count > 0);
  const sim::Bytes size = sim::align_up(bytes, quantum_);
  MKOS_EXPECTS(offset + count * size <= span_end_);
  stats_.frees += count;

  const sim::Bytes quanta = size / quantum_;
  if (quanta <= kQuantumCacheClasses) {
    auto& cache = quantum_caches_[quanta - 1];
    for (std::uint64_t i = count; i-- > 0;) cache.push_back(offset + i * size);
  } else {
    // The list stays sorted and fully coalesced, so one insert of the whole
    // run leaves the same list as `count` single inserts.
    insert_free(offset, count * size);
  }
  return segment_op_cost_ * static_cast<std::int64_t>(count);
}

bool VmemArena::import_more(sim::Bytes want) {
  const sim::Bytes ask =
      sim::align_up(std::max(want, import_quantum_), import_quantum_);
  if (!import_) return false;
  const sim::Bytes granted = import_(ask);
  if (granted < want) {
    // A short grant can't satisfy the triggering request; don't grow the
    // span with an unusable stub (keeps exhaustion behavior crisp).
    return false;
  }
  ++stats_.imports;
  stats_.import_bytes += granted;
  insert_free(span_end_, granted);
  span_end_ += granted;
  return true;
}

void VmemArena::insert_free(sim::Bytes offset, sim::Bytes length) {
  // Sorted insert + bidirectional coalescing.
  auto it = std::lower_bound(
      free_segments_.begin(), free_segments_.end(), offset,
      [](const Segment& s, sim::Bytes off) { return s.offset < off; });
  const std::size_t idx =
      static_cast<std::size_t>(it - free_segments_.begin());

  // Merge with predecessor?
  if (idx > 0) {
    Segment& prev = free_segments_[idx - 1];
    MKOS_ASSERT(prev.offset + prev.length <= offset);
    if (prev.offset + prev.length == offset) {
      prev.length += length;
      // Merge predecessor with successor too?
      if (idx < free_segments_.size()) {
        Segment& next = free_segments_[idx];
        if (prev.offset + prev.length == next.offset) {
          prev.length += next.length;
          free_segments_.erase(free_segments_.begin() +
                               static_cast<std::ptrdiff_t>(idx));
        }
      }
      return;
    }
  }
  // Merge with successor?
  if (idx < free_segments_.size()) {
    Segment& next = free_segments_[idx];
    MKOS_ASSERT(offset + length <= next.offset);
    if (offset + length == next.offset) {
      next.offset = offset;
      next.length += length;
      return;
    }
  }
  free_segments_.insert(it, Segment{offset, length});
}

}  // namespace mkos::alloc
