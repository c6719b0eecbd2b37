#pragma once
// mkos-lint — determinism / kernel-invariant static analysis for the tree.
//
// The simulator's headline numbers rest on bit-reproducible measurement:
// serial and parallel campaigns must be bit-identical at any thread count.
// That property is kept true by coding rules (all randomness through
// sim/rng positional seeds, no wall-clock in result paths, no
// iteration-order-dependent accumulation, contracts instead of assert) that
// nothing in the compiler enforces. mkos-lint tokenizes every source file —
// comments and string literals stripped, so documentation never
// false-positives — and enforces the rules below. Violations can be
// suppressed per line with a justified annotation:
//
//   // mkos-lint:  allow(<rule>) — <reason>
//
// (single space after the colon; doubled here only so this very file does
// not parse as an annotation) on the offending line or the line directly
// above it. An annotation
// without a reason is itself a violation, so every suppression in the tree
// carries a written justification.
//
// Rules (ids as reported):
//   raw-rng          std::rand / random_device / mt19937 etc. outside
//                    src/sim/rng.* — use sim::Rng positional streams.
//   wall-clock       *_clock::now(), time(), clock_gettime() etc. outside
//                    the telemetry allowlist (src/core/campaign.cpp,
//                    src/sim/thread_pool.*) — use sim::TimeNs.
//   unordered-iter   iteration over a std::unordered_map/unordered_set
//                    declared in the same file — order is
//                    implementation-defined and leaks into results.
//   raw-assert       assert() — use MKOS_EXPECTS/ENSURES/ASSERT so the
//                    check survives NDEBUG and respects throw mode.
//   naked-new        new/delete anywhere — use RAII owners.
//   header-hygiene   every header starts with #pragma once and declares
//                    into the mkos:: namespace.
//   float-arith      `float` under src/ — accounting/units paths are
//                    double-only (float truncation is a reproducibility
//                    hazard across optimization levels).
//   swallowed-catch  `catch (...)` whose handler neither rethrows (throw;
//                    / std::rethrow_exception) nor captures the exception
//                    (std::current_exception) — silently absorbed failures
//                    hide contract violations and corrupt results.
//   allow-no-reason  an allow annotation missing its justification.
//   unknown-rule     an allow annotation naming a rule that doesn't exist.
//   stale-allow      a justified allow annotation that no longer suppresses
//                    any violation on the line it covers — suppression rot
//                    left behind by refactors; delete the annotation.
//
// Semantic (cross-file) rules, active only in tree mode (lint_tree / the
// CLI with the corresponding data-file flag):
//   layering         a quote-include crossing module boundaries along an
//                    edge not present in the checked-in allowed-edge list
//                    (--layering tools/layering.rules). The list is data so
//                    architecture changes are deliberate, reviewed diffs.
//   include-cycle    modules (or individual headers) whose includes form a
//                    cycle. Never suppressible.
//   unknown-counter  a counter-name string literal at a RunLedger
//                    incr()/counter() call site that is not registered in
//                    the counter manifest (--counters
//                    tools/counter_schema.json) — the same manifest
//                    tools/check_bench_json.py validates emitted ledgers
//                    against, so C++ emitters and the JSON schema cannot
//                    drift apart.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mkos::lint {

struct Violation {
  std::string file;  ///< path as passed in (relative to the scan root)
  int line = 0;      ///< 1-based
  std::string rule;
  std::string message;
};

/// One physical source line after tokenization: executable text with
/// comments / string literals / char literals blanked, plus the comment
/// text (for annotation parsing) and the blanked string literals' contents
/// (for include-path / counter-name extraction).
struct CleanLine {
  std::string code;
  std::string comment;
  /// Contents of each string literal opened on this line, in order. A
  /// literal fully on this line contributes a `""` pair to `code`.
  std::vector<std::string> strings;
  bool preprocessor = false;  ///< starts with '#' or continues a directive
};

/// Strip comments and literals. Handles //, /**/, "..." (with escapes),
/// '...' (digit separators in numerals are not treated as char literals),
/// and R"delim(...)delim" raw strings.
[[nodiscard]] std::vector<CleanLine> tokenize(std::string_view content);

/// Lint one file's content. `rel_path` (forward slashes, relative to the
/// scan root) drives path-based rule scoping.
[[nodiscard]] std::vector<Violation> lint_file(const std::string& rel_path,
                                               std::string_view content);

/// All rule ids, for --list-rules and annotation validation.
[[nodiscard]] const std::vector<std::string>& rule_ids();

/// Render a violation as "path:line: [rule] message".
[[nodiscard]] std::string to_string(const Violation& v);

/// Recursively collect lintable sources (.cpp/.hpp/.h/.cc/.hh) under
/// `root`/`paths`, skipping build trees, hidden directories, and
/// tests/lint_fixtures (whose files violate rules on purpose). Returned
/// paths are relative to root and sorted, so reports are deterministic.
[[nodiscard]] std::vector<std::string> collect_sources(
    const std::string& root, const std::vector<std::string>& paths);

/// Read + lint every file in `rel_paths` (resolved against `root`).
/// Equivalent to lint_tree with both semantic phases off.
[[nodiscard]] std::vector<Violation> lint_paths(
    const std::string& root, const std::vector<std::string>& rel_paths);

/// Semantic-phase configuration for lint_tree. Each phase activates when
/// its data-file path (resolved against the scan root unless absolute) is
/// non-empty; an unreadable or malformed data file is itself reported as a
/// violation, never silently skipped.
struct TreeOptions {
  std::string layering_rules;   ///< allowed module-edge list (layering + cycles)
  std::string counter_schema;   ///< counter manifest JSON (unknown-counter)
};

/// Read + lint every file in `rel_paths`, then run the cross-file analyses
/// enabled by `options` (include-graph layering / cycle detection, counter
/// manifest cross-check). Stale-allow detection covers exactly the rules
/// whose scanners ran, so an allow for an inactive phase never reads stale.
[[nodiscard]] std::vector<Violation> lint_tree(
    const std::string& root, const std::vector<std::string>& rel_paths,
    const TreeOptions& options);

}  // namespace mkos::lint
