// Ablation: allreduce algorithm choice under OS noise.
//
// MiniFE's collapse (Fig. 5b) is a property of *blocking synchronization*,
// not of any particular tree: this bench sweeps the allreduce algorithms at
// several scales and payloads, on a quiet LWK and on Linux, showing (a) the
// classic latency/bandwidth trade between algorithms and (b) that the noise
// penalty tracks the number of synchronization stages.

#include <cstdio>

#include "core/config.hpp"
#include "core/obs_glue.hpp"
#include "obs/snapshots.hpp"
#include "runtime/collectives.hpp"
#include "runtime/simmpi.hpp"
#include "sim/format.hpp"

namespace {

using namespace mkos;
using runtime::AllreduceAlgo;

double allreduce_us(kernel::OsKind os, int nodes, sim::Bytes bytes, AllreduceAlgo algo,
                    obs::RunLedger& ledger) {
  const auto machine = core::SystemConfig::for_os(os).machine(nodes);
  runtime::Job job{machine, runtime::JobSpec{nodes, 64, 1}, 1};
  runtime::MpiWorld world{job, 99};
  world.collective_model().algo = algo;
  constexpr int kReps = 40;
  for (int i = 0; i < kReps; ++i) world.allreduce(bytes);
  const double us = world.finish().us() / kReps;
  obs::record_world(ledger, world);
  const std::string series = std::string(kernel::to_string(os)) + "." +
                             std::string(runtime::to_string(algo)) + ".n" +
                             std::to_string(nodes) + "." + sim::bytes_to_string(bytes);
  ledger.set_gauge("allreduce_us." + series, us);
  return us;
}

}  // namespace

int main() {
  sim::print_banner("Ablation — allreduce algorithms x OS noise",
                    "collective synchronization is the noise coupling point");

  obs::RunLedger ledger = core::bench_ledger(
      "ablation_collectives", "MiniFE Fig. 5b mechanism: stage-count x noise", 99);

  const AllreduceAlgo algos[] = {AllreduceAlgo::kRecursiveDoubling,
                                 AllreduceAlgo::kRabenseifner, AllreduceAlgo::kRing,
                                 AllreduceAlgo::kReduceBroadcast};

  for (const sim::Bytes bytes : {sim::Bytes{8}, sim::Bytes{4} * sim::MiB}) {
    sim::Table t{{std::string("payload ") + sim::bytes_to_string(bytes),
                  "McKernel 64n us", "McKernel 1024n us", "Linux 1024n us"}};
    for (const auto algo : algos) {
      t.add_row(
          {std::string(to_string(algo)),
           sim::fmt(allreduce_us(kernel::OsKind::kMcKernel, 64, bytes, algo, ledger), 1),
           sim::fmt(allreduce_us(kernel::OsKind::kMcKernel, 1024, bytes, algo, ledger), 1),
           sim::fmt(allreduce_us(kernel::OsKind::kLinux, 1024, bytes, algo, ledger), 1)});
    }
    std::printf("%s\n", t.to_string().c_str());
  }
  std::printf("auto policy picks: 8 B -> %s, 4 MiB/64n -> %s, 4 MiB/1024n -> %s\n",
              std::string(to_string(runtime::allreduce_pick({64, 64, 8}))).c_str(),
              std::string(to_string(runtime::allreduce_pick({64, 64, 4 * sim::MiB}))).c_str(),
              std::string(to_string(runtime::allreduce_pick({1024, 64, 4 * sim::MiB}))).c_str());

  core::emit(ledger);
  return 0;
}
