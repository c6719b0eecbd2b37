#include "mem/address_space.hpp"

#include "sim/contracts.hpp"

namespace mkos::mem {

namespace {
// Virtual layout constants; only relative arithmetic matters to the models.
constexpr sim::Bytes kMmapBase = 0x7f0000000000ULL;
}  // namespace

void Placement::add(hw::DomainId domain, PageSize page, sim::Bytes bytes) {
  MKOS_EXPECTS(domain >= 0 && static_cast<std::size_t>(domain) < kMaxDomains);
  if (bytes == 0) return;
  by_page_[static_cast<std::size_t>(page)] += bytes;
  const auto d = static_cast<std::size_t>(domain);
  by_domain_[d] += bytes;
  total_ += bytes;
  std::uint8_t& slot = chunk_slot_[d * kPageSizes + static_cast<std::size_t>(page)];
  if (slot != 0) {
    chunks_[slot - 1u].bytes += bytes;
    return;
  }
  chunks_[chunk_count_] = Chunk{domain, page, bytes};
  slot = static_cast<std::uint8_t>(++chunk_count_);
}

void Residency::add(hw::DomainId domain, PageSize page, sim::Bytes bytes) {
  MKOS_EXPECTS(domain >= 0 && static_cast<std::size_t>(domain) < Placement::kMaxDomains);
  by_domain_[static_cast<std::size_t>(domain)] += bytes;
  by_page_[static_cast<std::size_t>(page)] += bytes;
  total_ += bytes;
}

void Residency::add(const Placement& p) {
  for (std::size_t d = 0; d < Placement::kMaxDomains; ++d) {
    by_domain_[d] += p.bytes_in_domain(static_cast<hw::DomainId>(d));
  }
  for (const PageSize page : {PageSize::k4K, PageSize::k2M, PageSize::k1G}) {
    by_page_[static_cast<std::size_t>(page)] += p.bytes_with_page(page);
  }
  total_ += p.total();
}

void Residency::remove(const Placement& p) {
  MKOS_EXPECTS(p.total() <= total_);
  for (std::size_t d = 0; d < Placement::kMaxDomains; ++d) {
    by_domain_[d] -= p.bytes_in_domain(static_cast<hw::DomainId>(d));
  }
  for (const PageSize page : {PageSize::k4K, PageSize::k2M, PageSize::k1G}) {
    by_page_[static_cast<std::size_t>(page)] -= p.bytes_with_page(page);
  }
  total_ -= p.total();
}

AddressSpace::AddressSpace() : mmap_cursor_(kMmapBase) {}

Vma& AddressSpace::map(sim::Bytes length, VmaKind kind, MemPolicy policy) {
  MKOS_EXPECTS(length > 0);
  const sim::Bytes len = sim::align_up(length, 4 * sim::KiB);
  Vma vma;
  vma.start = mmap_cursor_;
  vma.length = len;
  vma.kind = kind;
  vma.policy = std::move(policy);
  // Leave a guard gap so adjacent mappings never merge accidentally.
  mmap_cursor_ += len + 64 * sim::KiB;
  // The cursor is strictly increasing, so insertion is always at the end.
  const std::size_t before = vmas_.size();
  auto it = vmas_.emplace_hint(vmas_.end(), vma.start, std::move(vma));
  MKOS_ENSURES(vmas_.size() == before + 1);
  return it->second;
}

std::optional<Vma> AddressSpace::unmap(sim::Bytes start) {
  auto it = vmas_.find(start);
  if (it == vmas_.end()) return std::nullopt;
  Vma out = std::move(it->second);
  vmas_.erase(it);
  resident_.remove(out.placement_);
  if (out.kind != VmaKind::kShm) app_resident_.remove(out.placement_);
  faults_ -= out.fault_count_;
  MKOS_AUDIT(totals_match_walk());
  return out;
}

void AddressSpace::attach(Vma& vma, const Placement& placement, ExtentList extents) {
  MKOS_EXPECTS(vma.backed() == 0 && vma.extents_.empty());
  vma.placement_ = placement;
  vma.extents_ = std::move(extents);
  resident_.add(placement);
  if (vma.kind != VmaKind::kShm) app_resident_.add(placement);
  MKOS_AUDIT(totals_match_walk());
}

void AddressSpace::back(Vma& vma, hw::DomainId domain, PageSize page, const Extent& extent) {
  vma.extents_.push_back(extent);
  vma.placement_.add(domain, page, extent.length);
  resident_.add(domain, page, extent.length);
  if (vma.kind != VmaKind::kShm) app_resident_.add(domain, page, extent.length);
}

void AddressSpace::note_faults(Vma& vma, std::uint64_t faults) {
  vma.fault_count_ += faults;
  faults_ += faults;
  MKOS_AUDIT(totals_match_walk());
}

ExtentList AddressSpace::release(Vma& vma) {
  resident_.remove(vma.placement_);
  if (vma.kind != VmaKind::kShm) app_resident_.remove(vma.placement_);
  vma.placement_.clear();
  ExtentList out = std::move(vma.extents_);  // leaves vma.extents_ empty
  MKOS_AUDIT(totals_match_walk());
  return out;
}

bool AddressSpace::totals_match_walk() const {
  Residency all;
  Residency app;
  std::uint64_t faults = 0;
  for (const auto& [s, v] : vmas_) {
    all.add(v.placement_);
    if (v.kind != VmaKind::kShm) app.add(v.placement_);
    faults += v.fault_count_;
  }
  return all == resident_ && app == app_resident_ && faults == faults_;
}

Vma* AddressSpace::find(sim::Bytes addr) {
  auto it = vmas_.upper_bound(addr);
  if (it == vmas_.begin()) return nullptr;
  --it;
  Vma& v = it->second;
  return addr >= v.start && addr < v.end() ? &v : nullptr;
}

const Vma* AddressSpace::find(sim::Bytes addr) const {
  return const_cast<AddressSpace*>(this)->find(addr);
}

sim::Bytes AddressSpace::mapped_bytes() const {
  sim::Bytes b = 0;
  for (const auto& [s, v] : vmas_) b += v.length;
  return b;
}

}  // namespace mkos::mem
