#include "runtime/simmpi.hpp"

#include <algorithm>
#include <cmath>

#include "alloc/model.hpp"
#include "runtime/resilience.hpp"
#include "sim/contracts.hpp"

namespace mkos::runtime {

namespace {

std::uint64_t phys_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 31);
}

/// Fingerprint of the shared physical-memory state the heap cost model can
/// observe: per-domain free volume and free-map shape (each domain's own
/// O(1) fingerprint). A brk cycle that is net-neutral against this
/// fingerprint left the allocator where it found it, so an identical lane
/// replays to identical costs.
std::uint64_t phys_fingerprint(const mem::PhysMemory& phys) {
  std::uint64_t h = 0x082efa98ec4e6c89ULL;
  for (int d = 0; d < phys.domain_count(); ++d) {
    h = phys_mix(h, phys.domain(static_cast<hw::DomainId>(d)).state_fingerprint());
  }
  return h;
}

/// Time to stream `bytes` at `gbps` GB/s.
sim::TimeNs stream_time(double bytes, double gbps) {
  return sim::from_double_ns(bytes / (gbps * 1e9) * 1e9);
}

}  // namespace

MpiWorld::MpiWorld(Job& job, std::uint64_t noise_seed)
    : job_(job),
      extremes_(job.kernel().noise()),
      coll_extremes_(job.kernel().collective_noise()),
      rng_(noise_seed) {
  lanes_.pending_ns.assign(static_cast<std::size_t>(job.lane_count()), 0);
  const auto& net = job_.machine().cluster.network();
  // Average hop count for a random peer — constant for the job's node count,
  // so computed once instead of on every halo/shift message.
  avg_hops_ = net.hop_count(0, std::max(1, job_.spec().nodes / 2), job_.spec().nodes);
  refresh_lanes();
}

void MpiWorld::refresh_lanes() {
  const auto n = static_cast<std::size_t>(job_.lane_count());
  lanes_.gbps.resize(n);
  lanes_.heaps.resize(n);
  // Neighbouring lanes usually stream the same mix (SPMD working sets):
  // price each run of equal mixes once.
  Job::StreamMix prev_mix;
  double prev_gbps = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Job::StreamMix mix = job_.lane_stream_mix(static_cast<int>(i));
    if (i == 0 || !(mix == prev_mix)) {
      prev_mix = mix;
      prev_gbps = job_.effective_gbps(mix);
    }
    lanes_.gbps[i] = prev_gbps;
    MKOS_ENSURES(lanes_.gbps[i] > 0.0);
    lanes_.heaps[i] = job_.lane(static_cast<int>(i)).heap();
    MKOS_ENSURES(lanes_.heaps[i] != nullptr);
  }
  rebuild_classes();
}

void MpiWorld::settle_replays() {
  for (std::size_t i = 1; i < lanes_.size(); ++i) {
    lanes_.heaps[i]->apply_replay_delta(replay_owed_);
  }
  replay_owed_ = mem::HeapStats{};
}

void MpiWorld::rebuild_classes() {
  settle_replays();
  // Class-pending work belongs to every lane of the old class: move it into
  // the lane slots so regrouping loses none of it.
  if (!classes_.empty()) {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      const std::int64_t owed = classes_[lanes_.class_of[i]].pending_ns;
      lanes_.pending_ns[i] += owed;
      lane_pending_dirty_ = lane_pending_dirty_ || owed != 0;
    }
  }
  classes_.clear();
  lanes_.class_of.resize(lanes_.size());
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const LaneClass key{lanes_.gbps[i], lanes_.heaps[i]->state_fingerprint()};
    // With fast paths off every lane opens its own class.
    std::size_t k = fast_paths_ ? 0 : classes_.size();
    while (k < classes_.size() &&
           !(classes_[k].gbps == key.gbps && classes_[k].heap_fp == key.heap_fp)) {
      ++k;
    }
    if (k == classes_.size()) classes_.push_back(key);
    lanes_.class_of[i] = static_cast<std::uint32_t>(k);
  }
}

bool MpiWorld::one_bandwidth() const {
  return std::all_of(classes_.begin(), classes_.end(),
                     [&](const LaneClass& c) { return c.gbps == classes_[0].gbps; });
}

bool MpiWorld::one_heap_state() const {
  return std::all_of(classes_.begin(), classes_.end(),
                     [&](const LaneClass& c) { return c.heap_fp == classes_[0].heap_fp; });
}

bool MpiWorld::classes_match_lanes() const {
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const LaneClass& c = classes_[lanes_.class_of[i]];
    if (c.gbps != lanes_.gbps[i] || c.heap_fp != lanes_.heaps[i]->state_fingerprint()) {
      return false;
    }
  }
  return true;
}

void MpiWorld::set_fast_paths(bool on) {
  fast_paths_ = on;
  coll_cache_.clear();
  msg_cache_.clear();
  heap_memo_.clear();
  rebuild_classes();
}

void MpiWorld::mpi_init(sim::Bytes shm_segment_bytes) {
  shm_ = setup_mpi_shm(job_, shm_segment_bytes);
  pending_uniform_ += shm_.per_rank_cost;
}

std::uint64_t MpiWorld::global_cores() const {
  return static_cast<std::uint64_t>(job_.spec().nodes) *
         static_cast<std::uint64_t>(job_.node().app_core_count());
}

void MpiWorld::stream_bytes(double bytes_per_rank) {
  if (classes_.empty()) return;
  if (fast_paths_ && one_bandwidth()) {
    // Every lane gets the same increment, so the per-sync maximum shifts by
    // exactly that increment: fold it into the uniform accumulator. The ns
    // expression matches the per-class one bit-for-bit (same operands).
    pending_uniform_ += stream_time(bytes_per_rank, classes_[0].gbps);
    ++engine_.compute_uniform_fast;
    return;
  }
  ++engine_.compute_lane_loops;
  for (LaneClass& c : classes_) c.pending_ns += stream_time(bytes_per_rank, c.gbps).ns();
}

void MpiWorld::compute_bytes(sim::Bytes bytes_per_rank) {
  stream_bytes(static_cast<double>(bytes_per_rank));
}

void MpiWorld::compute_bytes_scaled(sim::Bytes bytes_per_rank,
                                    const std::vector<double>& lane_scale) {
  MKOS_EXPECTS(!lane_scale.empty());
  const bool flat = std::all_of(lane_scale.begin(), lane_scale.end(),
                                [&](double s) { return s == lane_scale[0]; });
  if (flat) {
    stream_bytes(static_cast<double>(bytes_per_rank) * lane_scale[0]);
    return;
  }
  if (classes_.empty()) return;
  // Lane i streams bytes * scale[i % size]: price each (class, scale entry)
  // pair once, then hand every lane its entry.
  const std::size_t n_scale = lane_scale.size();
  std::vector<std::int64_t> priced(classes_.size() * n_scale);
  for (std::size_t k = 0; k < classes_.size(); ++k) {
    for (std::size_t j = 0; j < n_scale; ++j) {
      priced[k * n_scale + j] =
          stream_time(static_cast<double>(bytes_per_rank) * lane_scale[j], classes_[k].gbps)
              .ns();
    }
  }
  ++engine_.compute_lane_loops;
  lane_pending_dirty_ = true;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    lanes_.pending_ns[i] += priced[lanes_.class_of[i] * n_scale + i % n_scale];
  }
}

void MpiWorld::compute_time(sim::TimeNs per_rank) { pending_uniform_ += per_rank; }

void MpiWorld::compute_flops(double flops_per_rank) {
  // KNL per-core sustained scalar+vector rate for real codes (not peak):
  // ~12 GF/s per core over threads_per_rank-covered cores.
  const double gflops = 12.0 * job_.spec().threads_per_rank;
  pending_uniform_ += sim::from_double_ns(flops_per_rank / (gflops * 1e9) * 1e9);
}

void MpiWorld::sched_yields(int count_per_rank) {
  const sim::TimeNs per = job_.kernel().scheduler_model().sched_yield_cost();
  pending_uniform_ += per * count_per_rank;
}

void MpiWorld::syscall(kernel::Sys s, int count_per_rank, sim::Bytes payload) {
  pending_uniform_ += job_.kernel().priced(s, payload) * count_per_rank;
}

void MpiWorld::alloc_churn(std::uint64_t pairs_per_rank, sim::Bytes obj_bytes) {
  if (alloc_model_ == nullptr || pairs_per_rank == 0) return;
  const int lanes = job_.lane_count();
  if (lanes == 0) return;
  // Lane costs diverge (whoever churns first eats the refill cascade; later
  // lanes hit the warmed depot), so this always lands in the per-lane
  // pending array, never in pending_uniform_.
  lane_pending_dirty_ = true;
  for (int i = 0; i < lanes; ++i) {
    lanes_.pending_ns[static_cast<std::size_t>(i)] +=
        alloc_model_->churn(i, pairs_per_rank, obj_bytes).ns();
  }
}

const MpiWorld::HeapCycleMemo* MpiWorld::find_heap_memo(
    std::span<const std::int64_t> deltas, std::uint64_t fp0,
    std::uint64_t phys_fp, int faulters) const {
  for (const HeapCycleMemo& m : heap_memo_) {
    if (m.fp0 == fp0 && m.phys_fp == phys_fp && m.faulters == faulters &&
        m.deltas.size() == deltas.size() &&
        std::equal(m.deltas.begin(), m.deltas.end(), deltas.begin())) {
      return &m;
    }
  }
  return nullptr;
}

sim::TimeNs MpiWorld::simulate_heap_cycle(int lane, std::span<const std::int64_t> deltas,
                                          int faulters) {
  kernel::Kernel& k = job_.kernel();
  kernel::Process& p = job_.lane(lane);
  sim::TimeNs cost{0};
  for (const std::int64_t d : deltas) {
    cost += k.sys_brk(p, d).cost;
    if (d > 0) cost += k.heap_touch(p, faulters);
  }
  return cost;
}

void MpiWorld::heap_cycle(std::span<const std::int64_t> deltas) {
  kernel::Kernel& k = job_.kernel();
  const int lanes = job_.lane_count();
  if (lanes == 0 || deltas.empty()) return;
  // Heap faults of distinct rank processes contend only on the per-domain
  // zone allocator, not on a shared mmap_sem (unlike the shm segment), so
  // the effective concurrency in the fault handler is a fraction of the
  // rank count.
  const int faulters = 1 + lanes / 8;
  MKOS_AUDIT(classes_match_lanes());

  // In the common SPMD steady state every lane's heap is in the same
  // (cost-relevant) state — one heap class — so lane 0 prices the cycle
  // for all of them.
  if (fast_paths_ && lanes > 1 && one_heap_state()) {
    mem::HeapEngine& heap0 = *lanes_.heaps[0];
    const std::uint64_t fp0 = heap0.state_fingerprint();
    const std::uint64_t phys_before = phys_fingerprint(k.phys());

    // Whole-cycle memo: this exact delta sequence already ran from this
    // exact (heap, phys) fingerprint state and proved state-neutral, so the
    // heaps and the allocator end where they started and the cost and
    // counter deltas replay verbatim — for lane 0 too. The brk path draws
    // no randomness, so skipping the simulation perturbs no RNG stream, and
    // the engine/kernel counters advance exactly as the simulate-one /
    // replay-rest path below would have.
    if (const HeapCycleMemo* m = find_heap_memo(deltas, fp0, phys_before, faulters)) {
      heap0.apply_replay_delta(m->delta);
      replay_owed_.add_counters(m->delta);
      // The replayed cost is uniform across lanes, and a uniform increment
      // commutes with synchronize()'s max reduction.
      pending_uniform_ += m->cost0;
      k.note_replayed_local_calls(static_cast<std::uint64_t>(deltas.size()) *
                                  static_cast<std::uint64_t>(lanes));
      ++engine_.heap_slow_lanes;
      engine_.heap_fast_lanes += static_cast<std::uint64_t>(lanes - 1);
      return;
    }

    const mem::HeapStats stats_before = heap0.stats();
    const sim::TimeNs cost0 = simulate_heap_cycle(0, deltas, faulters);
    ++engine_.heap_slow_lanes;

    // Replay is exact only if the cycle was state-neutral: lane 0's heap
    // returned to its pre-cycle fingerprint AND the shared physical
    // allocator is back where it started. Then every other lane starts from
    // the same heap scalars, moves the same byte counts through per-byte
    // costs that never depend on which domain supplies the pages, and —
    // when the cycle did engage the allocator — returns everything it drew,
    // so the restored free maps serve every lane the same total. The
    // replicated cost and counter deltas are therefore exact.
    if (heap0.state_fingerprint() == fp0 && phys_fingerprint(k.phys()) == phys_before) {
      const mem::HeapStats delta = mem::HeapEngine::replay_delta(stats_before, heap0.stats());
      replay_owed_.add_counters(delta);
      pending_uniform_ += cost0;  // uniform across all lanes, lane 0 included
      k.note_replayed_local_calls(static_cast<std::uint64_t>(deltas.size()) *
                                  static_cast<std::uint64_t>(lanes - 1));
      engine_.heap_fast_lanes += static_cast<std::uint64_t>(lanes - 1);
      if (heap_memo_.size() < kHeapMemoCap) {
        HeapCycleMemo m;
        m.deltas.assign(deltas.begin(), deltas.end());
        m.fp0 = fp0;
        m.phys_fp = phys_before;
        m.faulters = faulters;
        m.cost0 = cost0;
        m.delta = delta;
        heap_memo_.push_back(std::move(m));
      }
      return;
    }
    lanes_.pending_ns[0] += cost0.ns();
  } else {
    lanes_.pending_ns[0] += simulate_heap_cycle(0, deltas, faulters).ns();
    ++engine_.heap_slow_lanes;
  }

  // Lanes diverge (or fast paths are off): simulate the rest one by one,
  // then regroup — their heap states may now differ.
  lane_pending_dirty_ = true;
  engine_.heap_slow_lanes += static_cast<std::uint64_t>(lanes - 1);
  for (int i = 1; i < lanes; ++i) {
    lanes_.pending_ns[static_cast<std::size_t>(i)] +=
        simulate_heap_cycle(i, deltas, faulters).ns();
  }
  rebuild_classes();
}

void MpiWorld::synchronize(std::uint64_t sync_cores, sim::TimeNs comm, SyncKind kind) {
  // The slowest lane's window: the uniform work plus the largest lane total
  // (lane slot + class pending). While every lane slot is still zero from
  // the previous sync, the maximum is over classes alone.
  std::int64_t max_lane = 0;
  if (lane_pending_dirty_) {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      max_lane = std::max(max_lane,
                          lanes_.pending_ns[i] + classes_[lanes_.class_of[i]].pending_ns);
    }
    std::fill(lanes_.pending_ns.begin(), lanes_.pending_ns.end(), std::int64_t{0});
    lane_pending_dirty_ = false;
  } else {
    for (const LaneClass& c : classes_) max_lane = std::max(max_lane, c.pending_ns);
  }
  for (LaneClass& c : classes_) c.pending_ns = 0;
  const sim::TimeNs span = pending_uniform_ + sim::TimeNs{max_lane};
  pending_uniform_ = sim::TimeNs{0};

  const NoiseWindow w = extremes_.sample(span, std::max<std::uint64_t>(sync_cores, 1),
                                         rng_, &noise_counters_);
  // Fault/recovery charge for this window (nothing runs when detached, so a
  // fault-free world stays bit-identical to a build without the subsystem).
  const sim::TimeNs fault_extra =
      resilience_ != nullptr ? resilience_->on_sync(span) : sim::TimeNs{0};
  clock_ += span + w.max + comm + fault_extra;
  compute_time_ += span;
  noise_wait_ += w.max;
  comm_time_ += comm;
  if (trace_enabled_) trace_.push_back(SyncEvent{kind, span, w.max, comm, clock_});
}

sim::TimeNs MpiWorld::message_cost(sim::Bytes bytes) {
  if (fast_paths_) {
    if (const sim::TimeNs* hit = msg_cache_.find(bytes)) {
      ++engine_.msg_cache_hits;
      return *hit;
    }
  }
  const auto& net = job_.machine().cluster.network();
  const kernel::Kernel& k = job_.kernel();
  sim::TimeNs t = net.wire_time(bytes, avg_hops_).scaled(1.0 / k.network_bw_factor());
  // Kernel involvement on the send path (hfi1 device-file writes).
  if (net.kernel_involved_ops > 0.0) {
    t += k.network_syscall_overhead().scaled(net.kernel_involved_ops);
  }
  if (fast_paths_) {
    ++engine_.msg_cache_misses;
    msg_cache_.insert(bytes, t);
  }
  return t;
}

sim::TimeNs MpiWorld::collective_cost(sim::Bytes bytes) {
  const auto& net = job_.machine().cluster.network();
  const kernel::Kernel& k = job_.kernel();

  // The stage schedule and base cost depend only on (model, shape, bytes);
  // shape and the kernel/network factors are fixed for the world's lifetime,
  // so memoize on bytes and invalidate if the model constants are retuned.
  sim::TimeNs base{0};
  std::uint64_t stages = 0;
  bool have = false;
  if (fast_paths_) {
    if (!(coll_cache_model_ == coll_)) {
      coll_cache_.clear();
      coll_cache_model_ = coll_;
    }
    if (const CollCosts* hit = coll_cache_.find(bytes)) {
      base = hit->base;
      stages = hit->stages;
      have = true;
      ++engine_.coll_cache_hits;
    }
  }
  if (!have) {
    CollectiveShape shape{job_.spec().nodes, job_.spec().ranks_per_node, bytes};
    CollectiveCosts costs;
    costs.intra_stage = coll_.intra_stage;
    costs.software_stage = coll_.software_stage;
    costs.bandwidth_factor = k.network_bw_factor();
    if (net.kernel_involved_ops > 0.0) {
      costs.kernel_overhead_per_msg =
          k.network_syscall_overhead().scaled(net.kernel_involved_ops);
    }
    base = allreduce_base_cost(coll_.algo, shape, net, costs);
    const AllreduceAlgo algo =
        coll_.algo == AllreduceAlgo::kAuto ? allreduce_pick(shape) : coll_.algo;
    stages = static_cast<std::uint64_t>(allreduce_stages(algo, shape));
    if (fast_paths_) {
      ++engine_.coll_cache_misses;
      coll_cache_.insert(bytes, CollCosts{base, stages});
    }
  }
  coll_stages_ += stages;

  // Stall coupling: a rank stalled during (or just before) a blocking
  // collective stalls the whole dependency tree. Two regimes:
  //   * sub-critical — the stall ends, the collective completes: pay the
  //     sampled stall;
  //   * super-critical — once the expected number of further stalls arriving
  //     somewhere in the machine *during one stall* reaches one, every stall
  //     hands over to the next and the collective only completes at the
  //     stall-recovery bound (the component cap). This threshold in
  //     rate x duration x cores is the sharp Fig. 5b collapse; the LWKs'
  //     collective-noise model is empty, so they never enter it.
  const std::uint64_t cores = global_cores();
  const sim::TimeNs exposure = base + coll_.stall_exposure;
  sim::TimeNs stall = coll_extremes_.sample(exposure, cores, rng_, &noise_counters_).max;
  // A genuine stall event (not the sub-event mean floor of the sampler)
  // is on the scale of the component's mean duration.
  const double event_scale_ns = coll_extremes_.mean_duration_s() * 1e9 * 0.1;
  if (static_cast<double>(stall.ns()) > event_scale_ns) {
    const double stalls_per_stall = coll_extremes_.total_rate_hz() *
                                    coll_extremes_.mean_duration_s() *
                                    static_cast<double>(cores);
    const sim::TimeNs cap = coll_extremes_.max_cap();
    if (stalls_per_stall >= 1.0 && cap > stall) stall = cap;
  }
  coll_stall_ += stall;
  return base + stall;
}

void MpiWorld::allreduce(sim::Bytes bytes) {
  ++allreduces_;
  synchronize(global_cores(), collective_cost(bytes), SyncKind::kAllreduce);
}

void MpiWorld::barrier() { allreduce(8); }

void MpiWorld::halo_exchange(sim::Bytes bytes_per_msg, int neighbors) {
  MKOS_EXPECTS(neighbors >= 0);
  // Sends in opposite directions overlap; budget ceil(n/2) serialized
  // message times plus per-message kernel involvement.
  sim::TimeNs comm = message_cost(bytes_per_msg) * ((neighbors + 1) / 2);
  const auto& net = job_.machine().cluster.network();
  if (net.kernel_involved_ops > 0.0 && neighbors > 1) {
    comm += job_.kernel().network_syscall_overhead().scaled(
        net.kernel_involved_ops * (neighbors - (neighbors + 1) / 2));
  }
  // Neighborhood synchronization: skew is absorbed from a bounded set of
  // ranks, not the whole machine.
  const auto sync_cores = static_cast<std::uint64_t>(
      (neighbors + 1) * job_.spec().threads_per_rank);
  synchronize(sync_cores, comm, SyncKind::kHalo);
}

void MpiWorld::send_shift(sim::Bytes bytes) {
  synchronize(static_cast<std::uint64_t>(2 * job_.spec().threads_per_rank),
              message_cost(bytes), SyncKind::kShift);
}

sim::TimeNs MpiWorld::finish() {
  synchronize(global_cores(), sim::TimeNs{0}, SyncKind::kFinish);
  settle_replays();
  return clock_;
}

}  // namespace mkos::runtime
