#pragma once
// OS noise (jitter) models.
//
// "Strong partitioning between the two kernels is a key property for
// preventing OS jitter from Linux to be propagated to the LWK" — the LWKs'
// scalability advantage in the paper is almost entirely a noise story at
// high node counts (MiniFE Fig. 5b, Lulesh at 1,728 nodes in Fig. 6a).
//
// A NoiseModel is a set of independent detour sources. Each source fires as
// a Poisson process at `rate_hz` and steals a duration drawn from its
// distribution. sample() returns the total stolen time accumulated while the
// application computes for `span`; collectives then propagate the per-rank
// tails (max-reduction), which is where amplification at scale comes from.

#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace mkos::kernel {

struct NoiseComponent {
  enum class Dist { kFixed, kExponential, kPareto };

  std::string label;
  double rate_hz = 0.0;          ///< mean firings per second of app time
  sim::TimeNs duration{0};       ///< fixed value / exponential mean / Pareto scale
  Dist dist = Dist::kFixed;
  double pareto_alpha = 1.5;     ///< shape for kPareto
  sim::TimeNs cap{0};            ///< 0 = uncapped; otherwise truncate draws
};

/// Closed-form moments of one capped event draw min(X, cap). These replace
/// the Monte-Carlo moment estimation the extreme-value sampler used to run
/// at construction (8k draws per component) and anchor the analytic sum
/// paths: the "expected clip mass" E[(X - cap)+] is folded in exactly by
/// integrating the truncated density instead of the raw one.
struct ComponentMoments {
  double m1_ns = 0.0;    ///< E[min(X, cap)] in ns
  double m2_ns2 = 0.0;   ///< E[min(X, cap)^2] in ns^2
  bool m2_finite = true; ///< false: uncapped Pareto alpha <= 2 (m2 uses a
                         ///  100x-scale effective cap as a bounded proxy)
};
[[nodiscard]] ComponentMoments component_moments(const NoiseComponent& c);

/// Telemetry of the sampling engine: how much work went through analytic
/// O(1) paths vs exact per-event draws. Deterministic per seed, so the
/// counters may live in the run ledger's deterministic block.
struct SampleCounters {
  std::uint64_t analytic_sums = 0;    ///< component sums via Gamma / normal
  std::uint64_t exact_events = 0;     ///< individually drawn events
  std::uint64_t analytic_maxima = 0;  ///< inverse-CDF maximum draws
  std::uint64_t gumbel_draws = 0;     ///< frequent-component Gumbel maxima
};

/// Sum of n iid (capped) draws of component `c`, in nanoseconds.
/// O(events) only for small n on capped/heavy-tailed shapes; otherwise a
/// single Gamma variate (uncapped exponential — exact in distribution) or
/// a moment-matched normal on the truncated moments (large n; CLT).
[[nodiscard]] double sample_component_sum_ns(const NoiseComponent& c,
                                             const ComponentMoments& m,
                                             std::uint64_t n, sim::Rng& rng,
                                             SampleCounters* counters = nullptr);

/// One draw distributed as the maximum of n iid (capped) draws of `c`,
/// via the inverse CDF at U^(1/n) — exact in distribution, one uniform
/// instead of n full draws. Precondition: n >= 1.
[[nodiscard]] double sample_component_max_ns(const NoiseComponent& c, std::uint64_t n,
                                             sim::Rng& rng);

/// Structure-of-arrays lane over the per-component scalar the sample scan
/// reads first. A NoiseComponent is label-string-first and ~80 bytes, so
/// scanning the AoS pulls two cache lines per component just to learn that
/// its Poisson count is zero (the common case: rates are per second, spans
/// are microseconds). The lane packs the firing rates contiguously —
/// parallel to components()/moments(), extended on add().
struct ComponentLanes {
  std::vector<double> rate_hz;   ///< Poisson intensity of each component

  [[nodiscard]] std::size_t size() const { return rate_hz.size(); }
};

class NoiseModel {
 public:
  NoiseModel() = default;
  explicit NoiseModel(std::vector<NoiseComponent> components);

  [[nodiscard]] const std::vector<NoiseComponent>& components() const { return components_; }

  /// Per-component truncated moments, precomputed at construction (parallel
  /// to components()).
  [[nodiscard]] const std::vector<ComponentMoments>& moments() const { return moments_; }

  /// SoA view of the hot per-component scalars (parallel to components()).
  [[nodiscard]] const ComponentLanes& lanes() const { return lanes_; }

  /// Expected stolen fraction of CPU time (analytic; for reports/tests).
  [[nodiscard]] double expected_fraction() const;

  /// Stolen time accumulated over a compute span. O(components), not
  /// O(events): each component contributes one Poisson count draw plus one
  /// batched sum draw (see sample_component_sum_ns).
  [[nodiscard]] sim::TimeNs sample(sim::TimeNs span, sim::Rng& rng,
                                   SampleCounters* counters = nullptr) const;

  NoiseModel& add(NoiseComponent c);

 private:
  std::vector<NoiseComponent> components_;
  std::vector<ComponentMoments> moments_;  ///< hoisted out of the sample path
  ComponentLanes lanes_;                   ///< SoA mirror of the firing rates
};

/// LWK application cores: essentially silent (cooperative scheduler, no
/// timer tick, no stray kernel tasks — McKernel's isolation; mOS "put a
/// significant effort into eliminating undesired kernel tasks on LWK cores").
[[nodiscard]] NoiseModel noise_lwk();

/// mOS LWK cores: as quiet as McKernel's except for rare Linux-side strays
/// (its LWK shares the Linux image, so eviction is effort, not structure).
[[nodiscard]] NoiseModel noise_lwk_mos();

/// Linux application cores configured with nohz_full (the paper's baseline):
/// residual per-core kernel work (RCU callbacks, kworkers, vmstat) plus rare
/// heavy-tailed system-level detours (daemons, page-cache writeback) that no
/// boot flag removes on a full Linux node.
[[nodiscard]] NoiseModel noise_linux_nohz_full();

/// Linux core 0 (or any core co-scheduled with system services): the reason
/// "mOS using 64 or 66 cores beats Linux on 68 cores".
[[nodiscard]] NoiseModel noise_linux_service_core();

/// A service-daemon interference storm (log rotation gone wrong, monitoring
/// stampede, kswapd frenzy): dense bursts that steal a large fraction of a
/// Linux application core while active. The fault layer applies this model
/// for the storm's duration, scaled by each kernel's isolation leak — on an
/// LWK partition almost none of it reaches application cores.
[[nodiscard]] NoiseModel noise_daemon_storm();

/// Heavy-tailed stalls that couple to blocking collectives (see the
/// definition for the mechanism). Empty on the LWKs.
[[nodiscard]] NoiseModel noise_linux_collective_tail();

/// Linux application cores sharing the node with a co-located tenant
/// (in-situ analytics, monitoring stack): the multi-tenancy scenario of the
/// performance-isolation studies the paper cites ([31], [32]).
[[nodiscard]] NoiseModel noise_linux_co_tenant();
/// Collective-coupled interference under co-tenancy (denser stalls).
[[nodiscard]] NoiseModel noise_linux_collective_tail_co_tenant();

}  // namespace mkos::kernel
