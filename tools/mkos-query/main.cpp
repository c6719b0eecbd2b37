// mkos-query — interactive queries over a persistent cell store.
//
// The campaign CellStore (src/core/cell_store.hpp) accumulates every
// simulated (app × config × nodes × reps × seed) cell across sweeps and
// processes. This tool turns that warm store into an answer service: it
// scans the store index exactly once at startup (each entry is mmap-ed,
// verified and reduced to its key + figure-of-merit samples) and then answers
// "which kernel configuration is best for workload W at N nodes?" from the
// in-memory index — no simulation, interactive latency.
//
// Usage:
//   mkos-query [--store DIR] --list
//   mkos-query [--store DIR] --best APP NODES
//   mkos-query [--store DIR] --serve
//
// --store defaults to $MKOS_CELL_STORE. --serve reads commands from stdin
// (one per line): `best APP NODES`, `apps`, `stats`, `help`, `quit` — the
// same index, REPL framing, for driving from a terminal or a pipe.
//
// Ranking: configurations are ordered by median figure of merit (higher is
// better, the workloads::App contract), ties broken by config digest so the
// output is deterministic for a given store. Cells that fail verification
// during the scan are skipped and counted, never trusted and never modified
// (the scan is strictly read-only; quarantine stays the campaign's job).

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/cell_store.hpp"
#include "kernel/kernel.hpp"
#include "sim/env.hpp"
#include "sim/stats.hpp"

namespace {

using mkos::core::CellIndexEntry;
using mkos::core::CellStore;

/// Human OS name recovered from the canonical config digest, whose first
/// field is `os=<int>` (core/config.cpp keeps digest order in lockstep with
/// the fingerprint). Unknown digests degrade to the raw digest text.
std::string os_label(const std::string& digest) {
  int os = -1;
  if (std::sscanf(digest.c_str(), "os=%d", &os) == 1 && os >= 0 && os <= 3) {
    return std::string(
        mkos::kernel::to_string(static_cast<mkos::kernel::OsKind>(os)));
  }
  return digest;
}

double median_of(const std::vector<double>& samples) {
  mkos::sim::Summary s;
  for (const double v : samples) s.add(v);
  return s.empty() ? 0.0 : s.median();
}

/// The loaded store index plus scan bookkeeping.
struct Index {
  std::vector<CellIndexEntry> entries;
  std::uint64_t corrupt = 0;
  std::string root;
};

/// One ranked candidate for a (app, nodes) query.
struct Candidate {
  const CellIndexEntry* entry = nullptr;
  double median = 0.0;
};

std::vector<Candidate> rank(const Index& index, std::string_view app, int nodes) {
  std::vector<Candidate> out;
  for (const CellIndexEntry& e : index.entries) {
    if (e.id.app != app || e.id.nodes != nodes) continue;
    out.push_back(Candidate{&e, median_of(e.fom_samples)});
  }
  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    if (a.median != b.median) return a.median > b.median;
    return a.entry->id.config_digest < b.entry->id.config_digest;
  });
  return out;
}

int cmd_best(const Index& index, std::string_view app, int nodes) {
  const std::vector<Candidate> ranked = rank(index, app, nodes);
  if (ranked.empty()) {
    std::printf("no stored cells for %.*s at %d nodes\n",
                static_cast<int>(app.size()), app.data(), nodes);
    return 1;
  }
  const Candidate& best = ranked.front();
  std::printf("best %.*s @ %d nodes: %s (median %.6g %s over %zu reps)\n",
              static_cast<int>(app.size()), app.data(), nodes,
              os_label(best.entry->id.config_digest).c_str(), best.median,
              best.entry->unit.c_str(), best.entry->fom_samples.size());
  for (const Candidate& c : ranked) {
    std::printf("  %-10s median %.6g  key %016llx  [%s]\n",
                os_label(c.entry->id.config_digest).c_str(), c.median,
                static_cast<unsigned long long>(c.entry->key),
                c.entry->id.config_digest.c_str());
  }
  return 0;
}

void cmd_apps(const Index& index) {
  // app -> sorted node counts with at least one stored cell.
  std::map<std::string, std::map<int, int>> apps;
  for (const CellIndexEntry& e : index.entries) apps[e.id.app][e.id.nodes]++;
  for (const auto& [app, nodes] : apps) {
    std::printf("%s: nodes", app.c_str());
    for (const auto& [n, count] : nodes) std::printf(" %d(x%d)", n, count);
    std::printf("\n");
  }
}

void cmd_stats(const Index& index) {
  std::uint64_t bytes = 0;
  std::map<std::string, int> configs;
  std::map<std::string, int> apps;
  for (const CellIndexEntry& e : index.entries) {
    bytes += e.bytes;
    configs[e.id.config_digest]++;
    apps[e.id.app]++;
  }
  std::printf("store %s: %zu cells, %llu bytes, %zu apps, %zu configs, "
              "%llu unreadable\n",
              index.root.c_str(), index.entries.size(),
              static_cast<unsigned long long>(bytes), apps.size(), configs.size(),
              static_cast<unsigned long long>(index.corrupt));
}

void cmd_list(const Index& index) {
  for (const CellIndexEntry& e : index.entries) {
    std::printf("%016llx %-10s %-10s nodes %-6d reps %d seed %llu  median %.6g %s\n",
                static_cast<unsigned long long>(e.key), e.id.app.c_str(),
                os_label(e.id.config_digest).c_str(), e.id.nodes, e.id.reps,
                static_cast<unsigned long long>(e.id.seed),
                median_of(e.fom_samples), e.unit.c_str());
  }
}

void print_help(std::FILE* to) {
  std::fprintf(to,
               "commands:\n"
               "  best APP NODES   rank stored configs for APP at NODES\n"
               "  apps             stored apps and their node counts\n"
               "  stats            store-wide totals\n"
               "  list             every stored cell\n"
               "  help             this text\n"
               "  quit             exit\n");
}

std::vector<std::string> split_words(const std::string& line) {
  std::vector<std::string> words;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    std::size_t start = i;
    while (i < line.size() && !std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    if (i > start) words.push_back(line.substr(start, i - start));
  }
  return words;
}

std::optional<int> parse_nodes(const std::string& text) {
  const std::optional<long long> n = mkos::sim::parse_int(text);
  if (!n || *n < 1 || *n > (1LL << 30)) return std::nullopt;
  return static_cast<int>(*n);
}

int serve(const Index& index) {
  std::printf("mkos-query: %zu cells indexed from %s (type `help`)\n",
              index.entries.size(), index.root.c_str());
  char buf[4096];
  std::printf("> ");
  std::fflush(stdout);
  while (std::fgets(buf, sizeof buf, stdin) != nullptr) {
    const std::vector<std::string> words = split_words(buf);
    if (!words.empty()) {
      const std::string& cmd = words[0];
      if (cmd == "quit" || cmd == "exit") return 0;
      if (cmd == "help") {
        print_help(stdout);
      } else if (cmd == "apps") {
        cmd_apps(index);
      } else if (cmd == "stats") {
        cmd_stats(index);
      } else if (cmd == "list") {
        cmd_list(index);
      } else if (cmd == "best" && words.size() == 3) {
        const std::optional<int> nodes = parse_nodes(words[2]);
        if (nodes) {
          cmd_best(index, words[1], *nodes);
        } else {
          std::printf("bad node count '%s'\n", words[2].c_str());
        }
      } else {
        std::printf("unknown command '%s' (type `help`)\n", cmd.c_str());
      }
    }
    std::printf("> ");
    std::fflush(stdout);
  }
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--store DIR] --list | --best APP NODES | --serve\n"
               "  --store DIR   cell store root (default: $%s)\n",
               argv0, CellStore::kEnvVar);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root;
  if (const char* env = std::getenv(CellStore::kEnvVar);
      env != nullptr && env[0] != '\0') {
    root = env;
  }
  enum class Mode { kNone, kList, kBest, kServe } mode = Mode::kNone;
  std::string app;
  int nodes = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--store" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--list") {
      mode = Mode::kList;
    } else if (arg == "--serve") {
      mode = Mode::kServe;
    } else if (arg == "--best" && i + 2 < argc) {
      mode = Mode::kBest;
      app = argv[++i];
      const std::optional<int> n = parse_nodes(argv[++i]);
      if (!n) {
        std::fprintf(stderr, "mkos-query: bad node count '%s'\n", argv[i]);
        return 2;
      }
      nodes = *n;
    } else {
      return usage(argv[0]);
    }
  }
  if (mode == Mode::kNone) return usage(argv[0]);
  if (root.empty()) {
    std::fprintf(stderr, "mkos-query: no store (pass --store or set %s)\n",
                 CellStore::kEnvVar);
    return 1;
  }

  const CellStore store(root);
  if (!store.ready()) {
    std::fprintf(stderr, "mkos-query: cannot open store '%s'\n", root.c_str());
    return 1;
  }
  Index index;
  index.root = store.root();
  index.entries = store.scan_index(&index.corrupt);

  switch (mode) {
    case Mode::kList: cmd_list(index); return 0;
    case Mode::kBest: return cmd_best(index, app, nodes);
    case Mode::kServe: return serve(index);
    case Mode::kNone: break;
  }
  return usage(argv[0]);
}
