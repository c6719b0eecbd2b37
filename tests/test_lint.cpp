// mkos-lint: the linter that guards the tree gets its own tier-1 tests.
//
// Two layers: in-process rule-engine tests against inline source snippets
// (fast, precise line/rule assertions), and end-to-end runs of the mkos-lint
// binary over tests/lint_fixtures/ (exercises CLI, path scoping relative to
// --root, and the non-zero exit contract the ctest tree scan relies on).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "lint.hpp"

namespace {

using mkos::lint::lint_file;
using mkos::lint::tokenize;
using mkos::lint::Violation;

std::vector<std::string> rules_hit(const std::vector<Violation>& vs) {
  std::vector<std::string> out;
  out.reserve(vs.size());
  for (const Violation& v : vs) out.push_back(v.rule);
  return out;
}

bool has_rule(const std::vector<Violation>& vs, const std::string& rule) {
  for (const Violation& v : vs) {
    if (v.rule == rule) return true;
  }
  return false;
}

// ---------------------------------------------------------------- tokenizer

TEST(LintTokenize, StripsCommentsAndLiterals) {
  const auto lines = tokenize(
      "int a; // std::rand() here\n"
      "const char* s = \"std::mt19937 inside\";\n"
      "/* time(nullptr) */ int b;\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].code.find("rand"), std::string::npos);
  EXPECT_NE(lines[0].comment.find("std::rand()"), std::string::npos);
  EXPECT_EQ(lines[1].code.find("mt19937"), std::string::npos);
  EXPECT_EQ(lines[2].code.find("time"), std::string::npos);
  EXPECT_NE(lines[2].code.find("int b;"), std::string::npos);
}

TEST(LintTokenize, DigitSeparatorIsNotACharLiteral) {
  const auto lines = tokenize("int x = 1'000'000; int y = x;\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].code.find("int y = x;"), std::string::npos);
}

TEST(LintTokenize, CharLiteralsAreStripped) {
  const auto lines = tokenize("char c = 'n'; char d = '\\'';\n");
  ASSERT_EQ(lines.size(), 1u);
  // The literal contents vanish; the declarations survive.
  EXPECT_NE(lines[0].code.find("char c ="), std::string::npos);
  EXPECT_EQ(lines[0].code.find('n', lines[0].code.find("char c")),
            std::string::npos);
}

TEST(LintTokenize, RawStringsAreStripped) {
  const auto lines = tokenize("auto s = R\"(std::rand() time(0))\"; int z;\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].code.find("rand"), std::string::npos);
  EXPECT_NE(lines[0].code.find("int z;"), std::string::npos);
}

TEST(LintTokenize, PreprocessorLinesAreMarked) {
  const auto lines = tokenize("#include <cassert>\nint a;\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(lines[0].preprocessor);
  EXPECT_FALSE(lines[1].preprocessor);
}

// -------------------------------------------------------------------- rules

TEST(LintRules, RawRngFlaggedOutsideRngFiles) {
  const auto vs = lint_file("src/kernel/noise.cpp", "auto g = std::mt19937(7);\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "raw-rng");
  EXPECT_EQ(vs[0].line, 1);
}

TEST(LintRules, RngImplementationIsExempt) {
  const auto vs = lint_file("src/sim/rng.cpp", "auto g = std::mt19937(7);\n");
  EXPECT_TRUE(vs.empty()) << mkos::lint::to_string(vs[0]);
}

TEST(LintRules, WallClockFlaggedOutsideAllowlist) {
  const std::string src = "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(has_rule(lint_file("src/runtime/job.cpp", src), "wall-clock"));
  EXPECT_TRUE(lint_file("src/core/campaign.cpp", src).empty());
  EXPECT_TRUE(lint_file("src/sim/thread_pool.cpp", src).empty());
}

TEST(LintRules, SimulatedClockMembersAreFine) {
  EXPECT_TRUE(lint_file("src/kernel/ikc.cpp", "auto t = events_.now();\n").empty());
  EXPECT_TRUE(
      lint_file("src/sim/time.hpp",
                "#pragma once\nnamespace mkos::sim {\n"
                "struct Q { int now() const { return now_; } int now_ = 0; };\n"
                "}\n")
          .empty());
}

TEST(LintRules, UnorderedIterationFlagged) {
  const auto vs = lint_file(
      "src/core/report.cpp",
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> m;\n"
      "void f() { for (const auto& [k, v] : m) { (void)k; (void)v; } }\n");
  ASSERT_TRUE(has_rule(vs, "unordered-iter")) << vs.size();
  EXPECT_EQ(vs[0].line, 3);
}

TEST(LintRules, UnorderedLookupIsFine) {
  const auto vs = lint_file("src/core/report.cpp",
                            "std::unordered_map<int, int> m;\n"
                            "int f(int k) { return m.at(k); }\n");
  EXPECT_TRUE(vs.empty());
}

TEST(LintRules, RawAssertFlagged) {
  const auto vs = lint_file("src/mem/tlb.cpp", "void f(int v) { assert(v > 0); }\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "raw-assert");
}

TEST(LintRules, ContractMacrosAndGtestMacrosAreFine) {
  EXPECT_TRUE(
      lint_file("src/mem/tlb.cpp", "void f(int v) { MKOS_EXPECTS(v > 0); }\n")
          .empty());
  EXPECT_TRUE(lint_file("tests/test_x.cpp",
                        "void f() { ASSERT_EQ(1, 1); static_assert(true); }\n")
                  .empty());
}

TEST(LintRules, NakedNewFlaggedOutsideSim) {
  const auto vs =
      lint_file("src/kernel/process.cpp", "int* p = new int(3); delete p;\n");
  EXPECT_EQ(vs.size(), 2u);
  EXPECT_TRUE(has_rule(vs, "naked-new"));
  // src/sim/ has no exemption: the simulator kernel owns memory through
  // RAII like every other layer.
  EXPECT_TRUE(has_rule(lint_file("src/sim/thread_pool.cpp", "int* p = new int(3);\n"),
                       "naked-new"));
}

TEST(LintRules, DeletedFunctionsAreFine) {
  EXPECT_TRUE(lint_file("src/hw/knl.cpp", "Knl(const Knl&) = delete;\n").empty());
}

TEST(LintRules, HeaderHygiene) {
  const auto vs = lint_file("src/hw/bad.hpp",
                            "#ifndef GUARD\n#define GUARD\nint x;\n#endif\n");
  EXPECT_EQ(vs.size(), 2u);  // missing pragma AND missing namespace
  EXPECT_TRUE(has_rule(vs, "header-hygiene"));
  EXPECT_TRUE(lint_file("src/hw/good.hpp",
                        "#pragma once\nnamespace mkos::hw {\nint x();\n}\n")
                  .empty());
}

TEST(LintRules, FloatScopedToSrc) {
  const std::string src = "float ratio(float a, float b) { return a / b; }\n";
  EXPECT_TRUE(has_rule(lint_file("src/sim/stats.cpp", src), "float-arith"));
  // bench/ and tests/ may use float (plotting helpers etc.).
  EXPECT_TRUE(lint_file("bench/micro.cpp", src).empty());
}

TEST(LintRules, SwallowedCatchAllFlagged) {
  const auto vs = lint_file("src/runtime/job.cpp",
                            "void f() {\n"
                            "  try { g(); } catch (...) {\n"
                            "    cleanup();\n"
                            "  }\n"
                            "}\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "swallowed-catch");
  EXPECT_EQ(vs[0].line, 2);
}

TEST(LintRules, RethrowingOrCapturingCatchAllIsFine) {
  EXPECT_TRUE(lint_file("src/runtime/job.cpp",
                        "void f() { try { g(); } catch (...) { h(); throw; } }\n")
                  .empty());
  EXPECT_TRUE(
      lint_file("src/sim/thread_pool.cpp",
                "void f() {\n"
                "  try { g(); } catch (...) {\n"
                "    ep = std::current_exception();\n"
                "  }\n"
                "}\n")
          .empty());
  EXPECT_TRUE(lint_file("src/runtime/job.cpp",
                        "void f() {\n"
                        "  try { g(); } catch (...) {\n"
                        "    std::rethrow_exception(std::current_exception());\n"
                        "  }\n"
                        "}\n")
                  .empty());
}

TEST(LintRules, TypedCatchIsNotSwallowedCatch) {
  EXPECT_TRUE(
      lint_file("src/runtime/job.cpp",
                "void f() { try { g(); } catch (const std::exception& e) { h(); } }\n")
          .empty());
}

TEST(LintRules, SwallowedCatchSpansPhysicalLines) {
  const auto vs = lint_file("src/runtime/job.cpp",
                            "void f() {\n"
                            "  try { g(); } catch (\n"
                            "      ...) {\n"
                            "    cleanup();\n"
                            "  }\n"
                            "}\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "swallowed-catch");
  EXPECT_EQ(vs[0].line, 2);
}

// -------------------------------------------------------------- annotations

TEST(LintAllow, JustifiedSameLineSuppresses) {
  const auto vs = lint_file(
      "src/runtime/job.cpp",
      "auto t = std::chrono::steady_clock::now();  "
      "// mkos-lint: allow(wall-clock) — host telemetry only, not a result\n");
  EXPECT_TRUE(vs.empty()) << mkos::lint::to_string(vs[0]);
}

TEST(LintAllow, JustifiedLineAboveSuppresses) {
  const auto vs = lint_file(
      "src/runtime/job.cpp",
      "// mkos-lint: allow(wall-clock) — host telemetry only, spanning a\n"
      "// second comment line before the code it covers.\n"
      "auto t = std::chrono::steady_clock::now();\n");
  EXPECT_TRUE(vs.empty()) << mkos::lint::to_string(vs[0]);
}

TEST(LintAllow, MissingReasonDoesNotSuppress) {
  const auto vs = lint_file(
      "src/runtime/job.cpp",
      "auto t = std::chrono::steady_clock::now();  // mkos-lint: allow(wall-clock)\n");
  EXPECT_TRUE(has_rule(vs, "wall-clock"));
  EXPECT_TRUE(has_rule(vs, "allow-no-reason"));
}

TEST(LintAllow, UnknownRuleFlagged) {
  const auto vs = lint_file(
      "src/runtime/job.cpp",
      "// mkos-lint: allow(wall-clok) — typo'd rule id never suppresses\n"
      "int x;\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "unknown-rule");
}

TEST(LintAllow, AllowOnlyCoversItsOwnRule) {
  const auto vs = lint_file(
      "src/runtime/job.cpp",
      "int* p = new int;  // mkos-lint: allow(wall-clock) — wrong rule for this line\n");
  EXPECT_TRUE(has_rule(vs, "naked-new"));
}

// ------------------------------------------------------------ stale allows

TEST(LintStale, JustifiedAllowSuppressingNothingIsStale) {
  const auto vs = lint_file(
      "src/runtime/job.cpp",
      "// mkos-lint: allow(wall-clock) — telemetry only (but the call is gone).\n"
      "int x = 3;\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "stale-allow");
  EXPECT_EQ(vs[0].line, 1);
}

TEST(LintStale, LiveAllowIsNotStale) {
  const auto vs = lint_file(
      "src/runtime/job.cpp",
      "auto t = std::chrono::steady_clock::now();  "
      "// mkos-lint: allow(wall-clock) — host telemetry only, not a result\n");
  EXPECT_TRUE(vs.empty()) << mkos::lint::to_string(vs[0]);
}

TEST(LintStale, UnjustifiedAllowIsNotDoubleReportedAsStale) {
  // An allow without a reason is already allow-no-reason; it never enters
  // the suppression map, so it must not also be reported as stale.
  const auto vs = lint_file("src/runtime/job.cpp",
                            "// mkos-lint: allow(raw-assert)\nint x;\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "allow-no-reason");
}

TEST(LintStale, TreeRuleAllowIsNotStaleWhenPhaseOff) {
  // lint_file never runs the layering phase, so whether this allow
  // suppresses anything is unknowable — it must stay silent.
  const auto vs = lint_file(
      "src/mem/heap.cpp",
      "// mkos-lint: allow(layering) — deliberate edge pending refactor.\n"
      "int x;\n");
  EXPECT_TRUE(vs.empty()) << mkos::lint::to_string(vs[0]);
}

// ------------------------------------------------------- semantic phases

#if defined(MKOS_LINT_FIXTURES)

int count_rule(const std::vector<Violation>& vs, const std::string& rule) {
  int n = 0;
  for (const Violation& v : vs) {
    if (v.rule == rule) ++n;
  }
  return n;
}

std::vector<std::string> semantic_fixture_files(const std::string& root) {
  return mkos::lint::collect_sources(root, {"src"});
}

TEST(LintTree, SemanticFixtureViolations) {
  const std::string root = std::string(MKOS_LINT_FIXTURES) + "/semantic";
  const auto files = semantic_fixture_files(root);
  ASSERT_EQ(files.size(), 10u);
  mkos::lint::TreeOptions opts;
  opts.layering_rules = "layering.rules";
  opts.counter_schema = "counter_schema.json";
  const auto vs = mkos::lint::lint_tree(root, files, opts);
  // Two disallowed edges (mem -> core, plus the upward alloc -> runtime
  // include); the opposite mem edge is allowed yet the mem <-> core module
  // cycle is still flagged, plus the same-module kernel/a.hpp <->
  // kernel/b.hpp header cycle; one unregistered literal, one unregistered
  // dynamic-group prefix, and one unregistered literal each in the closed
  // dotted campaign.sched group and the closed alloc group.
  EXPECT_EQ(count_rule(vs, "layering"), 2) << vs.size();
  EXPECT_EQ(count_rule(vs, "include-cycle"), 2);
  EXPECT_EQ(count_rule(vs, "unknown-counter"), 4);
  EXPECT_EQ(vs.size(), 8u);
}

TEST(LintTree, SemanticPhasesAreOptIn) {
  const std::string root = std::string(MKOS_LINT_FIXTURES) + "/semantic";
  const auto vs =
      mkos::lint::lint_tree(root, semantic_fixture_files(root), {});
  EXPECT_TRUE(vs.empty()) << mkos::lint::to_string(vs[0]);
}

TEST(LintTree, MissingDataFilesAreReported) {
  const std::string root = std::string(MKOS_LINT_FIXTURES) + "/semantic";
  mkos::lint::TreeOptions opts;
  opts.layering_rules = "no_such.rules";
  opts.counter_schema = "no_such.json";
  const auto vs =
      mkos::lint::lint_tree(root, semantic_fixture_files(root), opts);
  EXPECT_EQ(count_rule(vs, "io-error"), 2) << vs.size();
}

TEST(LintTree, MalformedCounterSchemaIsReported) {
  const std::string root = std::string(MKOS_LINT_FIXTURES) + "/semantic";
  mkos::lint::TreeOptions opts;
  opts.counter_schema = "layering.rules";  // not JSON
  const auto vs =
      mkos::lint::lint_tree(root, semantic_fixture_files(root), opts);
  ASSERT_EQ(count_rule(vs, "io-error"), 1) << vs.size();
  EXPECT_EQ(vs[0].file, "layering.rules");
}

#endif  // MKOS_LINT_FIXTURES

// ----------------------------------------------------------- binary, E2E

#if defined(MKOS_LINT_BIN) && defined(MKOS_LINT_FIXTURES)

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult run_lint(const std::string& args) {
  const std::string cmd = std::string(MKOS_LINT_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  RunResult r;
  char buf[4096];
  while (pipe != nullptr && fgets(buf, sizeof buf, pipe) != nullptr) r.output += buf;
  if (pipe != nullptr) {
    const int status = pclose(pipe);
    r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  return r;
}

TEST(LintBinary, CleanFixturesPass) {
  const RunResult r =
      run_lint(std::string("--root ") + MKOS_LINT_FIXTURES + "/clean src");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(LintBinary, ViolatingFixturesFailWithEveryRule) {
  const RunResult r =
      run_lint(std::string("--root ") + MKOS_LINT_FIXTURES + "/violations src");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  for (const char* rule :
       {"raw-rng", "wall-clock", "unordered-iter", "raw-assert", "naked-new",
        "header-hygiene", "float-arith", "swallowed-catch", "allow-no-reason",
        "unknown-rule", "stale-allow"}) {
    EXPECT_NE(r.output.find(std::string("[") + rule + "]"), std::string::npos)
        << "rule " << rule << " missing from:\n"
        << r.output;
  }
}

TEST(LintBinary, SingleFixtureFileFails) {
  const RunResult r = run_lint(std::string("--root ") + MKOS_LINT_FIXTURES +
                               "/violations src/raw_assert.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[raw-assert]"), std::string::npos) << r.output;
}

TEST(LintBinary, SemanticFlagsEnablePhases) {
  const std::string root = std::string("--root ") + MKOS_LINT_FIXTURES + "/semantic";
  const RunResult flagged = run_lint(
      root + " --layering layering.rules --counters counter_schema.json src");
  EXPECT_EQ(flagged.exit_code, 1) << flagged.output;
  for (const char* rule : {"layering", "include-cycle", "unknown-counter"}) {
    EXPECT_NE(flagged.output.find(std::string("[") + rule + "]"), std::string::npos)
        << "rule " << rule << " missing from:\n"
        << flagged.output;
  }
  // Without the flags the phases are off and the fixture is clean.
  EXPECT_EQ(run_lint(root + " src").exit_code, 0);
}

TEST(LintBinary, DefaultPathSetCoversAllTrees) {
  // No paths on the command line: the default set (src bench tests examples
  // tools) must be scanned, so the violations planted in each sibling tree
  // of the fixture are all found.
  const RunResult r =
      run_lint(std::string("--root ") + MKOS_LINT_FIXTURES + "/default_paths");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  for (const char* rel : {"bench/bad_bench.cpp", "tests/bad_test.cpp",
                          "examples/bad_example.cpp", "tools/bad_tool.cpp"}) {
    EXPECT_NE(r.output.find(rel), std::string::npos) << r.output;
  }
}

TEST(LintBinary, UsageErrorsExitTwo) {
  EXPECT_EQ(run_lint("--bogus-flag src").exit_code, 2);
  EXPECT_EQ(run_lint("--root").exit_code, 2);  // missing operand
  EXPECT_EQ(run_lint(std::string("--root ") + MKOS_LINT_FIXTURES +
                     "/semantic no_such_dir")
                .exit_code,
            2);  // no lintable sources
}

TEST(LintBinary, ListRules) {
  const RunResult r = run_lint("--list-rules");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("raw-rng"), std::string::npos);
  EXPECT_NE(r.output.find("header-hygiene"), std::string::npos);
  EXPECT_NE(r.output.find("layering"), std::string::npos);
  EXPECT_NE(r.output.find("unknown-counter"), std::string::npos);
  EXPECT_NE(r.output.find("stale-allow"), std::string::npos);
}

#endif  // MKOS_LINT_BIN && MKOS_LINT_FIXTURES

TEST(LintRules, ViolationsComeBackSorted) {
  const auto vs = lint_file("src/kernel/process.cpp",
                            "int* p = new int(3);\n"
                            "void f(int v) { assert(v > 0); }\n"
                            "auto t = std::chrono::steady_clock::now();\n");
  ASSERT_GE(vs.size(), 3u);
  for (std::size_t i = 1; i < vs.size(); ++i) {
    EXPECT_LE(vs[i - 1].line, vs[i].line);
  }
  EXPECT_EQ(rules_hit(vs).front(), "naked-new");
}

}  // namespace
