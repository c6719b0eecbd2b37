// Modeled substrate costs: the per-mechanism prices the kernel models
// charge (McKernel proxy offload, mOS migration, a Linux local syscall),
// printed and recorded as gauges of BENCH_micro_substrates.json together
// with the McKernel kernel's counters. Every number is a pure function of
// the models, so the ledger is byte-identical across runs and hosts.

#include <cstdio>
#include <string>

#include "core/obs_glue.hpp"
#include "hw/knl.hpp"
#include "kernel/node.hpp"
#include "obs/snapshots.hpp"
#include "sim/format.hpp"

int main() {
  using namespace mkos;
  sim::print_banner("micro_substrates — modeled mechanism costs", "DESIGN.md D4");
  obs::RunLedger ledger =
      core::bench_ledger("micro_substrates", "framework substrate costs", 1);
  kernel::Node mck{hw::knl_snc4_flat(), kernel::NodeOsConfig::mckernel_default(), 1};
  kernel::Node mos{hw::knl_snc4_flat(), kernel::NodeOsConfig::mos_default(), 2};
  kernel::Node lin{hw::knl_snc4_flat(), kernel::NodeOsConfig::linux_default(), 3};
  const struct {
    const char* gauge;
    sim::TimeNs cost;
  } costs[] = {
      {"modeled.mckernel_proxy_ns", mck.app_kernel().offload_cost(256)},
      {"modeled.mos_migration_ns", mos.app_kernel().offload_cost(256)},
      {"modeled.linux_local_ns", lin.app_kernel().local_syscall_cost()},
  };
  sim::Table table{{"mechanism", "ns"}};
  for (const auto& c : costs) {
    ledger.set_gauge(c.gauge, static_cast<double>(c.cost.ns()));
    table.add_row({c.gauge, std::to_string(c.cost.ns())});
  }
  std::fputs(table.to_string().c_str(), stdout);
  obs::record_kernel(ledger, mck.app_kernel());
  core::emit(ledger);
  return 0;
}
