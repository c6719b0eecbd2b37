// Noise amplification demo: the same allreduce-per-iteration loop at
// growing node counts, Linux vs LWK. Shows why MiniFE collapses at scale on
// Linux (Fig. 5b) while the LWKs keep scaling.

#include <cstdio>

#include "core/config.hpp"
#include "runtime/simmpi.hpp"
#include "sim/format.hpp"

namespace {

double iteration_us(mkos::kernel::OsKind os, int nodes, mkos::sim::TimeNs window) {
  using namespace mkos;
  const core::SystemConfig config = core::SystemConfig::for_os(os);
  const runtime::Machine machine = config.machine(nodes);
  runtime::Job job{machine, runtime::JobSpec{nodes, 64, 4}, 1};
  runtime::MpiWorld world{job, 1234};
  constexpr int kIters = 40;
  for (int i = 0; i < kIters; ++i) {
    world.compute_time(window);
    world.allreduce(8);
  }
  return world.finish().us() / kIters;
}

}  // namespace

int main() {
  using namespace mkos;

  sim::print_banner("mkos noise amplification — allreduce loop, 150 us windows",
                    "the Fig. 5b mechanism in isolation");

  sim::Table table{{"nodes", "Linux us/iter", "McKernel us/iter", "Linux/LWK"}};
  for (int nodes : {16, 64, 256, 512, 1024, 2048}) {
    const double lin = iteration_us(kernel::OsKind::kLinux, nodes, sim::microseconds(150));
    const double mck =
        iteration_us(kernel::OsKind::kMcKernel, nodes, sim::microseconds(150));
    table.add_row({std::to_string(nodes), sim::fmt(lin, 1), sim::fmt(mck, 1),
                   sim::fmt(lin / mck, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Every rank waits for the slowest core in each window; the maximum over\n"
      "N cores of a heavy-tailed noise distribution grows with N, so Linux\n"
      "iterations dilate at scale while the jitter-less LWK stays flat.\n");
  return 0;
}
