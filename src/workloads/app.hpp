#pragma once
// Application proxy models.
//
// Each of the paper's eight benchmarks is modeled as (a) a setup phase that
// performs its real allocation pattern through the kernel under test —
// working-set mmaps, NUMA policy calls, first touches — and (b) a timestep
// loop driving the MpiWorld bulk-synchronous API with the app's
// characteristic compute/communication/allocation mix. The figure of merit
// is computed exactly the way the real benchmark reports it.
//
// The per-app constants (working-set bytes, traffic per iteration, message
// sizes, flop shares) are derived from the paper's configurations (ranks and
// threads per node, problem sizes from the runtime arguments listed in
// Section III-B) and the public structure of each code; they are documented
// inline per app.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/simmpi.hpp"

namespace mkos::workloads {

struct AppResult {
  double fom = 0.0;        ///< figure of merit, higher is better
  std::string unit;        ///< e.g. "zones/s"
  sim::TimeNs elapsed{0};  ///< simulated wall time of the measured loop
};

class App {
 public:
  virtual ~App() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual std::string_view metric() const = 0;

  /// Node counts this app was evaluated at (Fig. 4 / its own figure).
  [[nodiscard]] virtual std::vector<int> node_counts() const;

  /// Ranks/threads layout at the given node count.
  [[nodiscard]] virtual runtime::JobSpec spec(int nodes) const = 0;

  /// Allocate and place the working set on the representative node.
  virtual void setup(runtime::Job& job) = 0;

  /// Run the measured loop; returns the app-reported figure of merit.
  [[nodiscard]] virtual AppResult run(runtime::Job& job, runtime::MpiWorld& world) = 0;
};

// ---------------------------------------------------------------- helpers

/// Power-of-two node counts 1..2048 (the Fig. 4 x-axis).
[[nodiscard]] std::vector<int> fig4_node_counts();

/// "We went to great lengths to provide good settings for Linux": for
/// working sets that fit into MCDRAM, the Linux runs bind memory to the four
/// MCDRAM domains (mbind accepts a multi-domain mask; PREFERRED does not).
/// No-op on the LWKs, whose default placement already spills MCDRAM-first.
void tune_linux_mcdram_bind(runtime::Job& job);

/// Allocate `bytes` of anonymous working set on every lane and touch it
/// (first-touch fills the placement records demand paging defers).
/// `per_lane_scale` lets callers skew per-rank working sets (imbalance).
void alloc_working_set(runtime::Job& job, sim::Bytes bytes,
                       const std::vector<double>& per_lane_scale = {});

/// Grow every lane's heap to `bytes` (initial sbrk) and touch it.
void init_heap(runtime::Job& job, sim::Bytes bytes);

std::unique_ptr<App> make_amg2013();
std::unique_ptr<App> make_ccs_qcd();
std::unique_ptr<App> make_geofem();
std::unique_ptr<App> make_hpcg();
std::unique_ptr<App> make_lammps();
/// `problem_size` is LULESH's -s (per-domain edge). `force_ddr` reproduces
/// the Table I configuration ("memory is taken only from DDR4 RAM"): the
/// Linux run skips the MCDRAM bind. (Pair with SystemConfig's
/// lwk_prefer_mcdram=false for the LWK side.) `iteration_cap` bounds the
/// simulated timestep count (the -s 30 brk-trace run uses the real 932).
std::unique_ptr<App> make_lulesh(int problem_size = 50, bool force_ddr = false,
                                 int iteration_cap = 36);
std::unique_ptr<App> make_milc();
/// `nx` is the global cube edge (the paper runs 660^3; MiniFE is the one
/// benchmark that is NOT weak-scaled).
std::unique_ptr<App> make_minife(int nx = 660);
/// XSBench-style neutron cross-section lookup proxy, one factory per
/// placement policy (first-touch/DDR4, interleave, MCDRAM-preferred) — the
/// bench/fig_numa_lookup axis.
std::unique_ptr<App> make_xsbench_first_touch();
std::unique_ptr<App> make_xsbench_interleave();
std::unique_ptr<App> make_xsbench_mcdram();

/// All Fig. 4 apps, in the figure's order.
[[nodiscard]] std::vector<std::unique_ptr<App>> make_fig4_apps();

/// Registry names of the Fig. 4 apps, in the figure's order. The campaign
/// engine works in names rather than instances: every parallel task builds
/// its own App through make_app() so no simulator state crosses threads.
[[nodiscard]] std::vector<std::string> fig4_app_names();

/// Every name make_app() accepts (Fig. 4 suite + Lulesh2.0).
[[nodiscard]] std::vector<std::string> registry_names();

/// Factory by name ("AMG2013", "CCS-QCD", ...); nullptr when unknown.
[[nodiscard]] std::unique_ptr<App> make_app(std::string_view name);

}  // namespace mkos::workloads
