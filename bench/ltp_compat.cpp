// Section III-D: Linux compatibility — the LTP-style suite against all
// three kernels.
//
//   paper: "McKernel passes all but 32 of them. For mOS the numbers are
//   more bleak: 111 tests out of 3,328 fail." Eleven of McKernel's are
//   move_pages() combinations; mOS's are dominated by the fork() cascade
//   and 4-of-5 ptrace cases.

#include <algorithm>
#include <cstdio>

#include "compat/ltp.hpp"
#include "core/obs_glue.hpp"
#include "hw/knl.hpp"
#include "kernel/node.hpp"
#include "sim/format.hpp"

int main() {
  using namespace mkos;

  sim::print_banner("Section III-D — LTP system-call compatibility",
                    "IPDPS'18; paper: McKernel 32/3328 fail, mOS 111/3328 fail");

  const compat::LtpSuite suite = compat::LtpSuite::standard();

  kernel::Node linux_node{hw::knl_snc4_flat(), kernel::NodeOsConfig::linux_default(), 1};
  kernel::Node mck_node{hw::knl_snc4_flat(), kernel::NodeOsConfig::mckernel_default(), 2};
  kernel::Node mos_node{hw::knl_snc4_flat(), kernel::NodeOsConfig::mos_default(), 3};

  sim::Table table{{"kernel", "total", "failed", "paper failed"}};
  std::vector<std::pair<std::string, compat::Report>> reports;
  for (kernel::Node* node : {&linux_node, &mck_node, &mos_node}) {
    kernel::Kernel& k = node->app_kernel();
    reports.emplace_back(std::string(k.name()), suite.run(k));
  }
  table.add_row({"Linux", "3328", std::to_string(reports[0].second.failed), "0"});
  table.add_row({"McKernel", "3328", std::to_string(reports[1].second.failed), "32"});
  table.add_row({"mOS", "3328", std::to_string(reports[2].second.failed), "111"});
  std::printf("%s\n", table.to_string().c_str());

  obs::RunLedger ledger =
      core::bench_ledger("ltp_compat", "IPDPS'18 Section III-D", 1);
  for (const auto& [name, report] : reports) {
    ledger.incr("ltp." + name + ".failed", static_cast<std::uint64_t>(report.failed));
  }

  for (std::size_t i = 1; i < reports.size(); ++i) {
    std::printf("%s failures by family:\n", reports[i].first.c_str());
    std::vector<std::pair<std::string, int>> fams(
        reports[i].second.failures_by_family.begin(),
        reports[i].second.failures_by_family.end());
    std::sort(fams.begin(), fams.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    for (const auto& [family, count] : fams) {
      std::printf("  %-16s %3d\n", family.c_str(), count);
      // fams is sorted above — deterministic order for the ledger too.
      ledger.incr("ltp." + reports[i].first + ".family." + family,
                  static_cast<std::uint64_t>(count));
    }
  }
  std::printf("\npaper anchors: 11 of McKernel's failures are move_pages() variants;\n"
              "4 of 5 ptrace tests fail on mOS; fork()-setup cascades dominate mOS.\n");

  core::emit(ledger);
  return 0;
}
