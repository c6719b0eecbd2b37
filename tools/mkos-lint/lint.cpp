#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <set>
#include <sstream>

namespace mkos::lint {

namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Concatenate via append(): sidesteps GCC 12's -Wrestrict false positive
/// on the operator+(const char*, std::string&&) inline path.
std::string cat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (const std::string_view p : parts) out.append(p);
  return out;
}

/// Find `word` in `text` as a whole identifier (not a substring of a longer
/// identifier). Returns npos when absent.
std::size_t find_ident(std::string_view text, std::string_view word,
                       std::size_t from = 0) {
  while (from < text.size()) {
    const std::size_t pos = text.find(word, from);
    if (pos == std::string_view::npos) return std::string_view::npos;
    const bool left_ok = pos == 0 || !ident_char(text[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= text.size() || !ident_char(text[end]);
    if (left_ok && right_ok) return pos;
    from = pos + 1;
  }
  return std::string_view::npos;
}

/// First non-space character strictly after `pos + len`, or '\0'.
char next_sig_char(std::string_view text, std::size_t after) {
  for (std::size_t i = after; i < text.size(); ++i) {
    if (!std::isspace(static_cast<unsigned char>(text[i]))) return text[i];
  }
  return '\0';
}

/// Last non-space character strictly before `pos`, or '\0'.
char prev_sig_char(std::string_view text, std::size_t pos) {
  while (pos > 0) {
    --pos;
    if (!std::isspace(static_cast<unsigned char>(text[pos]))) return text[pos];
  }
  return '\0';
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

bool is_header(std::string_view rel) {
  return ends_with(rel, ".hpp") || ends_with(rel, ".h") || ends_with(rel, ".hh");
}

// --- Path-based rule scoping (relative to the scan root) -------------------

bool rng_exempt(std::string_view rel) { return starts_with(rel, "src/sim/rng."); }

bool clock_allowlisted(std::string_view rel) {
  return rel == "src/core/campaign.cpp" || starts_with(rel, "src/sim/thread_pool.");
}

bool float_scoped(std::string_view rel) { return starts_with(rel, "src/"); }

// --- Allow annotations -----------------------------------------------------

struct Allow {
  std::string rule;
  bool has_reason = false;
};

/// Parse every `mkos-lint:  allow(<rule>)[ — <reason>]` (with a single
/// space after the colon; doubled here to avoid self-parsing) in a comment.
std::vector<Allow> parse_allows(std::string_view comment) {
  std::vector<Allow> allows;
  static constexpr std::string_view kMarker = "mkos-lint: allow(";
  std::size_t from = 0;
  while (true) {
    const std::size_t pos = comment.find(kMarker, from);
    if (pos == std::string_view::npos) break;
    const std::size_t name_begin = pos + kMarker.size();
    const std::size_t name_end = comment.find(')', name_begin);
    if (name_end == std::string_view::npos) break;
    Allow allow;
    allow.rule = std::string(comment.substr(name_begin, name_end - name_begin));
    // A justification is a dash (hyphen, en or em) after the ')' followed by
    // at least three non-space characters of prose.
    std::string_view rest = comment.substr(name_end + 1);
    const std::size_t dash = rest.find_first_of('-') != std::string_view::npos
                                 ? rest.find_first_of('-')
                                 : rest.find("\xE2\x80");  // U+2013/U+2014 lead bytes
    if (dash != std::string_view::npos) {
      std::string_view reason = rest.substr(dash);
      // Skip the dash itself (1 byte for '-', 3 for UTF-8 en/em dash).
      reason.remove_prefix(reason[0] == '-' ? 1 : 3);
      int prose = 0;
      for (const char c : reason) {
        if (!std::isspace(static_cast<unsigned char>(c))) ++prose;
      }
      allow.has_reason = prose >= 3;
    }
    allows.push_back(std::move(allow));
    from = name_end;
  }
  return allows;
}

// --- Per-rule scanners -----------------------------------------------------

constexpr std::string_view kRngIdents[] = {
    "rand",         "srand",         "random_device",        "mt19937",
    "mt19937_64",   "minstd_rand",   "minstd_rand0",         "ranlux24",
    "ranlux48",     "knuth_b",       "default_random_engine"};

constexpr std::string_view kClockCalls[] = {"time", "clock", "gettimeofday",
                                            "clock_gettime", "timespec_get"};

struct FileScan {
  const std::string& rel;
  const std::vector<CleanLine>& lines;
  std::vector<Violation>& out;

  void add(int line, std::string_view rule, std::string message) const {
    out.push_back(Violation{rel, line, std::string(rule), std::move(message)});
  }
};

void scan_raw_rng(const FileScan& f) {
  if (rng_exempt(f.rel)) return;
  for (std::size_t i = 0; i < f.lines.size(); ++i) {
    const CleanLine& ln = f.lines[i];
    if (ln.preprocessor) continue;
    for (const std::string_view ident : kRngIdents) {
      if (find_ident(ln.code, ident) != std::string_view::npos) {
        f.add(static_cast<int>(i + 1), "raw-rng",
              cat({"'", ident,
                   "' bypasses positional seeding; draw from sim::Rng "
                   "(src/sim/rng.hpp) instead"}));
      }
    }
  }
}

void scan_wall_clock(const FileScan& f) {
  if (clock_allowlisted(f.rel)) return;
  for (std::size_t i = 0; i < f.lines.size(); ++i) {
    const CleanLine& ln = f.lines[i];
    if (ln.preprocessor) continue;
    // Any `::now(` — catches steady/system/high_resolution_clock and aliases.
    std::size_t pos = 0;
    while ((pos = find_ident(ln.code, "now", pos)) != std::string_view::npos) {
      if (prev_sig_char(ln.code, pos) == ':' &&
          next_sig_char(ln.code, pos + 3) == '(') {
        f.add(static_cast<int>(i + 1), "wall-clock",
              "host clock read ('::now()') outside the telemetry allowlist; "
              "simulated results must use sim::TimeNs");
        break;
      }
      pos += 3;
    }
    // C-style clock calls: free function invocation, not a member/macro.
    for (const std::string_view ident : kClockCalls) {
      const std::size_t cpos = find_ident(ln.code, ident);
      if (cpos == std::string_view::npos) continue;
      const char prev = prev_sig_char(ln.code, cpos);
      if (prev == '.' || prev == '>') continue;  // member access
      if (next_sig_char(ln.code, cpos + ident.size()) != '(') continue;
      f.add(static_cast<int>(i + 1), "wall-clock",
            cat({"'", ident,
                 "()' reads the host clock outside the telemetry allowlist"}));
    }
  }
}

void scan_unordered_iter(const FileScan& f) {
  // Pass 1: names declared (in this file) with an unordered container type.
  std::set<std::string> names;
  for (const CleanLine& ln : f.lines) {
    if (ln.preprocessor) continue;
    for (const std::string_view type : {"unordered_map", "unordered_set"}) {
      std::size_t pos = find_ident(ln.code, type);
      if (pos == std::string_view::npos) continue;
      pos += type.size();
      // Skip the template argument list (same-line heuristic).
      if (next_sig_char(ln.code, pos) != '<') continue;
      int depth = 0;
      while (pos < ln.code.size()) {
        if (ln.code[pos] == '<') ++depth;
        if (ln.code[pos] == '>' && --depth == 0) break;
        ++pos;
      }
      if (depth != 0) continue;  // args span lines; declaration name unknowable
      // The declared name is the next identifier (skipping &, *, spaces).
      ++pos;
      while (pos < ln.code.size() && !ident_char(ln.code[pos])) {
        if (ln.code[pos] == ';' || ln.code[pos] == '(' || ln.code[pos] == ')') break;
        ++pos;
      }
      std::size_t end = pos;
      while (end < ln.code.size() && ident_char(ln.code[end])) ++end;
      if (end > pos) names.insert(std::string(ln.code.substr(pos, end - pos)));
    }
  }
  if (names.empty()) return;
  // Pass 2: for-loops ranging over (or iterating from) such a name.
  for (std::size_t i = 0; i < f.lines.size(); ++i) {
    const CleanLine& ln = f.lines[i];
    if (ln.preprocessor) continue;
    if (find_ident(ln.code, "for") == std::string_view::npos) continue;
    for (const std::string& name : names) {
      const std::size_t pos = find_ident(ln.code, name);
      if (pos == std::string_view::npos) continue;
      const bool ranged = prev_sig_char(ln.code, pos) == ':';
      const bool from_begin =
          ln.code.find(name + ".begin", pos) == pos ||
          ln.code.find(name + ".cbegin", pos) == pos;
      if (ranged || from_begin) {
        f.add(static_cast<int>(i + 1), "unordered-iter",
              cat({"iterating '", name,
                   "' (unordered container): traversal order is "
                   "implementation-defined and leaks into results; iterate a "
                   "sorted view or use std::map"}));
      }
    }
  }
}

void scan_raw_assert(const FileScan& f) {
  for (std::size_t i = 0; i < f.lines.size(); ++i) {
    const CleanLine& ln = f.lines[i];
    if (ln.preprocessor) continue;
    const std::size_t pos = find_ident(ln.code, "assert");
    if (pos == std::string_view::npos) continue;
    if (next_sig_char(ln.code, pos + 6) != '(') continue;
    f.add(static_cast<int>(i + 1), "raw-assert",
          "assert() compiles out under NDEBUG and aborts without throw-mode "
          "support; use MKOS_EXPECTS/MKOS_ENSURES/MKOS_ASSERT "
          "(src/sim/contracts.hpp)");
  }
}

void scan_naked_new(const FileScan& f) {
  for (std::size_t i = 0; i < f.lines.size(); ++i) {
    const CleanLine& ln = f.lines[i];
    if (ln.preprocessor) continue;
    if (find_ident(ln.code, "new") != std::string_view::npos) {
      f.add(static_cast<int>(i + 1), "naked-new",
            "naked 'new'; use std::make_unique or a container");
    }
    const std::size_t dpos = find_ident(ln.code, "delete");
    if (dpos != std::string_view::npos &&
        prev_sig_char(ln.code, dpos) != '=') {  // `= delete` declarations are fine
      f.add(static_cast<int>(i + 1), "naked-new",
            "naked 'delete'; let an owner's destructor release it");
    }
  }
}

void scan_header_hygiene(const FileScan& f) {
  if (!is_header(f.rel)) return;
  bool pragma_first = false;
  for (const CleanLine& ln : f.lines) {
    const std::string_view code(ln.code);
    const std::size_t sig = code.find_first_not_of(" \t");
    if (sig == std::string_view::npos) continue;  // blank / comment-only line
    pragma_first = code.find("#pragma once", sig) == sig;
    break;
  }
  if (!pragma_first) {
    f.add(1, "header-hygiene",
          "header must open with '#pragma once' (before any code)");
  }
  bool has_namespace = false;
  for (const CleanLine& ln : f.lines) {
    const std::size_t pos = find_ident(ln.code, "namespace");
    if (pos == std::string_view::npos) continue;
    std::string_view rest = ln.code;
    rest.remove_prefix(pos + 9);
    const std::size_t name = rest.find_first_not_of(" \t");
    if (name != std::string_view::npos &&
        find_ident(rest.substr(name), "mkos") == 0) {
      has_namespace = true;
      break;
    }
  }
  if (!has_namespace) {
    f.add(1, "header-hygiene",
          "header must declare into the mkos:: namespace");
  }
}

void scan_float_arith(const FileScan& f) {
  if (!float_scoped(f.rel)) return;
  for (std::size_t i = 0; i < f.lines.size(); ++i) {
    const CleanLine& ln = f.lines[i];
    if (ln.preprocessor) continue;
    if (find_ident(ln.code, "float") != std::string_view::npos) {
      f.add(static_cast<int>(i + 1), "float-arith",
            "'float' in an accounting/units path; simulator arithmetic is "
            "double-only (float truncation varies with optimization level)");
    }
  }
}

void scan_swallowed_catch(const FileScan& f) {
  // Join code lines so a catch clause and its handler block can span
  // physical lines; remember where each line starts for reporting.
  std::string code;
  std::vector<std::size_t> line_starts;
  for (const CleanLine& ln : f.lines) {
    line_starts.push_back(code.size());
    code += ln.code;
    code += '\n';
  }
  const auto line_of = [&](std::size_t pos) {
    std::size_t lo = 0;
    while (lo + 1 < line_starts.size() && line_starts[lo + 1] <= pos) ++lo;
    return static_cast<int>(lo + 1);
  };
  const auto skip_space = [&](std::size_t i) {
    while (i < code.size() && std::isspace(static_cast<unsigned char>(code[i]))) ++i;
    return i;
  };
  std::size_t from = 0;
  while (true) {
    const std::size_t pos = find_ident(code, "catch", from);
    if (pos == std::string::npos) break;
    from = pos + 5;
    // Only the catch-all form `catch (...)`: a typed handler at least names
    // what it absorbs; `...` silently swallows every failure, including the
    // contract violations the determinism story leans on.
    std::size_t i = skip_space(pos + 5);
    if (i >= code.size() || code[i] != '(') continue;
    i = skip_space(i + 1);
    if (code.compare(i, 3, "...") != 0) continue;
    i = skip_space(i + 3);
    if (i >= code.size() || code[i] != ')') continue;
    // Handler body: the matched-brace block after the ')'.
    const std::size_t open = code.find('{', i);
    if (open == std::string::npos) continue;
    int depth = 0;
    std::size_t close = open;
    for (; close < code.size(); ++close) {
      if (code[close] == '{') ++depth;
      if (code[close] == '}' && --depth == 0) break;
    }
    const std::string_view body(code.data() + open,
                                std::min(close, code.size()) - open);
    const bool handles =
        find_ident(body, "throw") != std::string_view::npos ||
        find_ident(body, "rethrow_exception") != std::string_view::npos ||
        find_ident(body, "current_exception") != std::string_view::npos;
    if (!handles) {
      f.add(line_of(pos), "swallowed-catch",
            "'catch (...)' absorbs every exception without rethrowing or "
            "capturing it (throw; / std::rethrow_exception / "
            "std::current_exception); swallowed failures hide contract "
            "violations and corrupt results silently");
    }
    from = close;
  }
}

void run_file_scans(const FileScan& f) {
  scan_raw_rng(f);
  scan_wall_clock(f);
  scan_unordered_iter(f);
  scan_raw_assert(f);
  scan_naked_new(f);
  scan_header_hygiene(f);
  scan_float_arith(f);
  scan_swallowed_catch(f);
}

/// Rules whose scanners run in every mode. The annotation meta-rules are
/// included so a justified allow naming one of them — which can never
/// suppress anything — is reported as stale.
const std::set<std::string>& per_file_stale_rules() {
  static const std::set<std::string> kRules = {
      "raw-rng",        "wall-clock",  "unordered-iter", "raw-assert",
      "naked-new",      "header-hygiene", "float-arith", "swallowed-catch",
      "allow-no-reason", "unknown-rule", "stale-allow"};
  return kRules;
}

/// One file mid-lint: tokenized lines plus the pre-suppression violations
/// accumulated by the per-file scanners and the tree phases.
struct PreparedFile {
  std::string rel;
  std::vector<CleanLine> lines;
  std::vector<Violation> raw;
};

/// Apply allow-annotation suppression to f.raw, report annotation issues,
/// flag stale allows for rules in `stale_active` (rules whose scanner did
/// not run are unknowable, never stale), and append the file's final
/// violations to `out` sorted by line. include-cycle is structural, not
/// per-line, so an allow never suppresses it.
void finalize_file(PreparedFile& f, const std::set<std::string>& stale_active,
                   std::vector<Violation>& out) {
  std::map<std::pair<int, std::string>, int> allowed;  // (line, rule) -> annotation line
  std::set<std::pair<int, std::string>> justified;     // (annotation line, rule)
  std::vector<Violation> issues;
  for (std::size_t i = 0; i < f.lines.size(); ++i) {
    for (const Allow& allow : parse_allows(f.lines[i].comment)) {
      const int line = static_cast<int>(i + 1);
      const bool known = std::find(rule_ids().begin(), rule_ids().end(),
                                   allow.rule) != rule_ids().end();
      if (!known) {
        issues.push_back(Violation{
            f.rel, line, "unknown-rule",
            cat({"allow annotation names unknown rule '", allow.rule, "'"})});
        continue;
      }
      if (!allow.has_reason) {
        issues.push_back(Violation{
            f.rel, line, "allow-no-reason",
            cat({"allow(", allow.rule,
                 ") has no written justification; append '— <reason>'"})});
        continue;  // an unjustified allow does not suppress
      }
      justified.insert({line, allow.rule});
      allowed[{line, allow.rule}] = line;
      // An annotation on a comment-only line covers the next code line,
      // skipping the rest of its own (possibly multi-line) comment.
      if (f.lines[i].code.find_first_not_of(" \t") == std::string::npos) {
        for (std::size_t j = i + 1; j < f.lines.size(); ++j) {
          if (f.lines[j].code.find_first_not_of(" \t") == std::string::npos) continue;
          allowed[{static_cast<int>(j + 1), allow.rule}] = line;
          break;
        }
      }
    }
  }

  std::set<std::pair<int, std::string>> used;  // (annotation line, rule)
  std::vector<Violation> kept;
  for (Violation& v : f.raw) {
    const auto it = allowed.find({v.line, v.rule});
    if (it != allowed.end() && v.rule != "include-cycle") {
      used.insert({it->second, v.rule});
      continue;
    }
    kept.push_back(std::move(v));
  }
  for (const auto& [line, rule] : justified) {
    if (stale_active.count(rule) == 0) continue;
    if (used.count({line, rule}) != 0) continue;
    kept.push_back(Violation{
        f.rel, line, "stale-allow",
        cat({"allow(", rule,
             ") no longer suppresses anything on the line it covers; delete "
             "the annotation"})});
  }
  for (Violation& v : issues) kept.push_back(std::move(v));
  std::stable_sort(kept.begin(), kept.end(), [](const Violation& a, const Violation& b) {
    return a.line < b.line;
  });
  for (Violation& v : kept) out.push_back(std::move(v));
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

// --- Semantic phase: include-graph layering & cycles -----------------------

/// Architectural module of a path: the directory under src/ for simulator
/// sources, the top-level directory otherwise (bench, tests, examples,
/// tools — tools/mkos-lint collapses into tools).
std::string module_of(std::string_view rel) {
  const std::size_t slash = rel.find('/');
  if (slash == std::string_view::npos) return std::string(rel);
  const std::string_view top = rel.substr(0, slash);
  if (top != "src") return std::string(top);
  const std::string_view rest = rel.substr(slash + 1);
  const std::size_t slash2 = rest.find('/');
  if (slash2 == std::string_view::npos) return std::string(top);
  return std::string(rest.substr(0, slash2));
}

/// Resolve a quote-include against the scanned file set the way the build
/// does: relative to the including file's directory, then against the
/// include roots (src/, tools/mkos-lint/). Unresolvable includes (system
/// headers spelled with quotes, generated files) are ignored.
std::optional<std::string> resolve_include(const std::string& from_rel,
                                           const std::string& inc,
                                           const std::set<std::string>& file_set) {
  namespace fs = std::filesystem;
  std::vector<std::string> candidates;
  const fs::path dir = fs::path(from_rel).parent_path();
  candidates.push_back((dir / inc).lexically_normal().generic_string());
  candidates.push_back(cat({"src/", inc}));
  candidates.push_back(cat({"tools/mkos-lint/", inc}));
  for (std::string& c : candidates) {
    if (file_set.count(c) != 0) return std::move(c);
  }
  return std::nullopt;
}

struct IncludeEdge {
  std::size_t file = 0;  ///< index into the prepared-file vector
  int line = 0;          ///< 1-based line of the #include
  std::string to;        ///< resolved rel path of the included file
};

std::vector<IncludeEdge> collect_include_edges(
    const std::vector<PreparedFile>& files, const std::set<std::string>& file_set) {
  std::vector<IncludeEdge> edges;
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const PreparedFile& pf = files[fi];
    for (std::size_t i = 0; i < pf.lines.size(); ++i) {
      const CleanLine& ln = pf.lines[i];
      if (!ln.preprocessor) continue;
      const std::size_t inc = find_ident(ln.code, "include");
      if (inc == std::string_view::npos) continue;
      if (next_sig_char(ln.code, inc + 7) != '"') continue;  // <...> or macro
      const std::size_t quote = ln.code.find('"', inc + 7);
      const std::size_t before = static_cast<std::size_t>(std::count(
          ln.code.begin(), ln.code.begin() + static_cast<std::ptrdiff_t>(quote), '"'));
      if (before % 2 != 0) continue;  // inside a literal opened earlier
      const std::size_t idx = before / 2;
      if (idx >= ln.strings.size()) continue;
      std::optional<std::string> target =
          resolve_include(pf.rel, ln.strings[idx], file_set);
      if (target) {
        edges.push_back(IncludeEdge{fi, static_cast<int>(i + 1), std::move(*target)});
      }
    }
  }
  return edges;
}

struct LayeringRules {
  std::set<std::pair<std::string, std::string>> allowed;
};

bool load_layering_rules(const std::filesystem::path& path, LayeringRules& out,
                         int& err_line, std::string& err) {
  std::ifstream in(path);
  if (!in) {
    err_line = 0;
    err = "cannot read layering rules file";
    return false;
  }
  std::string line;
  int n = 0;
  while (std::getline(in, line)) {
    ++n;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream tok(line);
    std::string from;
    std::string arrow;
    std::string to;
    std::string extra;
    if (!(tok >> from)) continue;  // blank or comment-only
    if (!(tok >> arrow >> to) || arrow != "->" || (tok >> extra)) {
      err_line = n;
      err = cat({"malformed rule '", line, "': expected '<module> -> <module>'"});
      return false;
    }
    out.allowed.emplace(std::move(from), std::move(to));
  }
  return true;
}

/// Strongly connected components of size > 1 (iterative Kosaraju). Each
/// component's node list comes back sorted; order is deterministic.
std::vector<std::vector<int>> multi_sccs(int n, const std::vector<std::vector<int>>& adj) {
  std::vector<std::vector<int>> radj(adj.size());
  for (int u = 0; u < n; ++u) {
    for (const int v : adj[u]) radj[v].push_back(u);
  }
  std::vector<int> order;
  std::vector<char> seen(adj.size(), 0);
  struct Frame {
    int node;
    std::size_t next;
  };
  for (int s = 0; s < n; ++s) {
    if (seen[s] != 0) continue;
    std::vector<Frame> stack{{s, 0}};
    seen[s] = 1;
    while (!stack.empty()) {
      Frame& fr = stack.back();
      const std::vector<int>& nbrs = adj[fr.node];
      if (fr.next < nbrs.size()) {
        const int v = nbrs[fr.next++];
        if (seen[v] == 0) {
          seen[v] = 1;
          stack.push_back({v, 0});
        }
      } else {
        order.push_back(fr.node);
        stack.pop_back();
      }
    }
  }
  std::vector<int> comp(adj.size(), -1);
  std::vector<std::vector<int>> comps;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (comp[*it] != -1) continue;
    std::vector<int> members;
    std::vector<int> work{*it};
    comp[*it] = static_cast<int>(comps.size());
    while (!work.empty()) {
      const int u = work.back();
      work.pop_back();
      members.push_back(u);
      for (const int v : radj[u]) {
        if (comp[v] == -1) {
          comp[v] = static_cast<int>(comps.size());
          work.push_back(v);
        }
      }
    }
    comps.push_back(std::move(members));
  }
  std::vector<std::vector<int>> multi;
  for (std::vector<int>& c : comps) {
    if (c.size() > 1) {
      std::sort(c.begin(), c.end());
      multi.push_back(std::move(c));
    }
  }
  return multi;
}

void run_layering_phase(const std::filesystem::path& rules_path,
                        const std::string& rules_display,
                        std::vector<PreparedFile>& files,
                        const std::set<std::string>& file_set,
                        std::vector<Violation>& out) {
  LayeringRules rules;
  int err_line = 0;
  std::string err;
  if (!load_layering_rules(rules_path, rules, err_line, err)) {
    out.push_back(Violation{rules_display, err_line, "io-error", std::move(err)});
    return;
  }
  const std::vector<IncludeEdge> edges = collect_include_edges(files, file_set);

  // Layering: every module crossing must be in the allowed-edge list.
  for (const IncludeEdge& e : edges) {
    const std::string from_mod = module_of(files[e.file].rel);
    const std::string to_mod = module_of(e.to);
    if (from_mod == to_mod) continue;
    if (rules.allowed.count({from_mod, to_mod}) != 0) continue;
    files[e.file].raw.push_back(Violation{
        files[e.file].rel, e.line, "layering",
        cat({"include of '", e.to, "' crosses layer boundary ", from_mod,
             " -> ", to_mod, ", an edge not in the allowed list (",
             rules_display, ")"})});
  }

  // Cycles at module granularity (self-edges are layering-neutral) and at
  // file granularity (mutually-including headers inside one module, which
  // the module graph cannot see). Cycles are checked against the observed
  // graph only — the allowed-edge list cannot legalize one.
  std::map<std::string, int> mod_id;
  for (const PreparedFile& pf : files) mod_id.emplace(module_of(pf.rel), 0);
  {
    int id = 0;
    for (auto& [name, mid] : mod_id) mid = id++;
  }
  std::vector<std::string> mod_name(mod_id.size());
  for (const auto& [name, mid] : mod_id) mod_name[mid] = name;
  std::map<std::string, std::size_t> file_id;
  for (std::size_t fi = 0; fi < files.size(); ++fi) file_id.emplace(files[fi].rel, fi);

  std::vector<std::vector<int>> mod_adj(mod_id.size());
  std::vector<std::vector<int>> file_adj(files.size());
  for (const IncludeEdge& e : edges) {
    const int a = mod_id.at(module_of(files[e.file].rel));
    const int b = mod_id.at(module_of(e.to));
    if (a != b) mod_adj[a].push_back(b);
    const auto ti = file_id.find(e.to);
    if (ti != file_id.end()) file_adj[e.file].push_back(static_cast<int>(ti->second));
  }

  for (const std::vector<int>& comp :
       multi_sccs(static_cast<int>(mod_adj.size()), mod_adj)) {
    const std::set<int> in_comp(comp.begin(), comp.end());
    std::vector<std::string> names;
    for (const int m : comp) names.push_back(mod_name[m]);
    for (const IncludeEdge& e : edges) {
      const int a = mod_id.at(module_of(files[e.file].rel));
      const int b = mod_id.at(module_of(e.to));
      if (a == b || in_comp.count(a) == 0 || in_comp.count(b) == 0) continue;
      files[e.file].raw.push_back(Violation{
          files[e.file].rel, e.line, "include-cycle",
          cat({"modules {", join(names, ", "),
               "} form an include cycle; this include is one of its edges"})});
      break;  // one witness per component
    }
  }

  for (const std::vector<int>& comp :
       multi_sccs(static_cast<int>(file_adj.size()), file_adj)) {
    std::set<std::string> comp_mods;
    for (const int fidx : comp) comp_mods.insert(module_of(files[fidx].rel));
    if (comp_mods.size() > 1) continue;  // already reported at module level
    const std::set<int> in_comp(comp.begin(), comp.end());
    std::vector<std::string> names;
    for (const int fidx : comp) names.push_back(files[fidx].rel);
    for (const IncludeEdge& e : edges) {
      const auto ti = file_id.find(e.to);
      if (ti == file_id.end()) continue;
      if (in_comp.count(static_cast<int>(e.file)) == 0 ||
          in_comp.count(static_cast<int>(ti->second)) == 0) {
        continue;
      }
      files[e.file].raw.push_back(Violation{
          files[e.file].rel, e.line, "include-cycle",
          cat({"headers {", join(names, ", "),
               "} include each other in a cycle; this include is one of its "
               "edges"})});
      break;
    }
  }
}

// --- Semantic phase: counter-manifest cross-check --------------------------
//
// tools/counter_schema.json is the single source of truth for counter names:
// this phase checks every counter-name literal the C++ emits against it, and
// tools/check_bench_json.py validates emitted ledgers against the same file.
// The reader below is a deliberately small JSON subset parser — objects,
// arrays, strings, numbers, booleans — enough for the manifest, with
// line-accurate errors.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;  // source order

  [[nodiscard]] const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing content after document");
    return true;
  }

  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] int error_line() const { return error_line_; }

 private:
  bool fail(std::string_view msg) {
    if (error_.empty()) {
      error_ = std::string(msg);
      error_line_ = 1 + static_cast<int>(std::count(
                            text_.begin(),
                            text_.begin() + static_cast<std::ptrdiff_t>(pos_), '\n'));
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool parse_value(JsonValue& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of document");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.str);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out.kind = JsonValue::Kind::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    return parse_number(out);
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        if (pos_ + 1 >= text_.size()) return fail("unterminated escape");
        const char e = text_[pos_ + 1];
        if (e == 'n') {
          out += '\n';
        } else if (e == 't') {
          out += '\t';
        } else if (e == '"' || e == '\\' || e == '/') {
          out += e;
        } else {
          return fail("unsupported string escape");
        }
        pos_ += 2;
      } else {
        out += text_[pos_++];
      }
    }
    if (pos_ >= text_.size()) return fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a JSON value");
    const auto res =
        std::from_chars(text_.data() + start, text_.data() + pos_, out.number);
    if (res.ec != std::errc() || res.ptr != text_.data() + pos_) {
      pos_ = start;
      return fail("malformed number");
    }
    out.kind = JsonValue::Kind::kNumber;
    return true;
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected object key");
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return fail("expected ':' after key");
      ++pos_;
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.items.push_back(std::move(value));
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
  int error_line_ = 0;
};

struct CounterSchema {
  std::set<std::string> groups;    ///< registered group names
  std::set<std::string> counters;  ///< union of every group's counter list
};

/// Load + structurally validate the manifest. The per-group `closed` flag is
/// consumed by tools/check_bench_json.py (open groups admit runtime-built
/// names in emitted ledgers); lint only needs the group and counter sets,
/// but still type-checks the whole document so a malformed manifest fails
/// here rather than silently weakening the ledger checker.
bool load_counter_schema(const std::filesystem::path& path, CounterSchema& out,
                         int& err_line, std::string& err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    err_line = 0;
    err = "cannot read counter schema";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  JsonParser parser(text);
  JsonValue doc;
  if (!parser.parse(doc)) {
    err = parser.error();
    err_line = parser.error_line();
    return false;
  }
  err_line = 0;
  const JsonValue* schema = doc.find("schema");
  if (doc.kind != JsonValue::Kind::kObject || schema == nullptr ||
      schema->kind != JsonValue::Kind::kString ||
      schema->str != "mkos.counter_schema.v1") {
    err = "'schema' must be the string \"mkos.counter_schema.v1\"";
    return false;
  }
  const JsonValue* groups = doc.find("groups");
  if (groups == nullptr || groups->kind != JsonValue::Kind::kObject) {
    err = "'groups' must be an object";
    return false;
  }
  for (const auto& [group, spec] : groups->members) {
    const JsonValue* closed =
        spec.kind == JsonValue::Kind::kObject ? spec.find("closed") : nullptr;
    const JsonValue* counters =
        spec.kind == JsonValue::Kind::kObject ? spec.find("counters") : nullptr;
    if (closed == nullptr || closed->kind != JsonValue::Kind::kBool ||
        counters == nullptr || counters->kind != JsonValue::Kind::kArray) {
      err = cat({"group '", group,
                 "' must be {\"closed\": bool, \"counters\": [..]}"});
      return false;
    }
    out.groups.insert(group);
    for (const JsonValue& c : counters->items) {
      if (c.kind != JsonValue::Kind::kString) {
        err = cat({"group '", group, "': counters must be strings"});
        return false;
      }
      if (!starts_with(c.str, cat({group, "."}))) {
        err = cat({"counter '", c.str, "' does not belong to group '", group, "'"});
        return false;
      }
      out.counters.insert(c.str);
    }
  }
  return true;
}

struct CounterLiteral {
  std::string name;
  bool partial = false;  ///< concatenated/streamed into a longer runtime name
};

/// The string-literal first argument of a call whose name ends at `after`:
/// `incr("a.b"` yields {"a.b", partial=false}; `incr("a." + x` yields
/// {"a.", partial=true}. nullopt when the next tokens are not `( "` (a
/// declaration, a variable argument, a different overload).
std::optional<CounterLiteral> literal_argument(const CleanLine& ln, std::size_t after) {
  if (next_sig_char(ln.code, after) != '(') return std::nullopt;
  const std::size_t paren = ln.code.find('(', after);
  if (next_sig_char(ln.code, paren + 1) != '"') return std::nullopt;
  const std::size_t quote = ln.code.find('"', paren + 1);
  const std::size_t before = static_cast<std::size_t>(std::count(
      ln.code.begin(), ln.code.begin() + static_cast<std::ptrdiff_t>(quote), '"'));
  if (before % 2 != 0) return std::nullopt;  // inside a multi-line literal
  const std::size_t idx = before / 2;
  if (idx >= ln.strings.size()) return std::nullopt;
  CounterLiteral lit;
  lit.name = ln.strings[idx];
  // The blanked literal is the `""` pair at `quote`; anything but ',' or ')'
  // after it means the final name is built up from this prefix at runtime.
  const char next = next_sig_char(ln.code, quote + 2);
  lit.partial = next != ',' && next != ')';
  return lit;
}

void run_counter_phase(const std::filesystem::path& schema_path,
                       const std::string& schema_display,
                       std::vector<PreparedFile>& files,
                       std::vector<Violation>& out) {
  CounterSchema schema;
  int err_line = 0;
  std::string err;
  if (!load_counter_schema(schema_path, schema, err_line, err)) {
    out.push_back(Violation{schema_display, err_line, "io-error", std::move(err)});
    return;
  }
  for (PreparedFile& pf : files) {
    for (std::size_t i = 0; i < pf.lines.size(); ++i) {
      const CleanLine& ln = pf.lines[i];
      if (ln.preprocessor) continue;
      for (const std::string_view call : {"incr", "counter"}) {
        std::size_t from = 0;
        while (true) {
          const std::size_t pos = find_ident(ln.code, call, from);
          if (pos == std::string_view::npos) break;
          from = pos + call.size();
          const std::optional<CounterLiteral> lit = literal_argument(ln, from);
          if (!lit) continue;
          if (!lit->partial) {
            if (schema.counters.count(lit->name) == 0) {
              pf.raw.push_back(Violation{
                  pf.rel, static_cast<int>(i + 1), "unknown-counter",
                  cat({"counter literal '", lit->name,
                       "' is not registered in ", schema_display})});
            }
          } else {
            // Runtime-built name: only the group prefix is checkable, and
            // only when the literal already spells out the group.
            const std::size_t dot = lit->name.find('.');
            if (dot != std::string::npos &&
                schema.groups.count(lit->name.substr(0, dot)) == 0) {
              pf.raw.push_back(Violation{
                  pf.rel, static_cast<int>(i + 1), "unknown-counter",
                  cat({"dynamic counter name built from '", lit->name,
                       "': group '", lit->name.substr(0, dot),
                       "' is not registered in ", schema_display})});
            }
          }
        }
      }
    }
  }
}

}  // namespace

std::vector<CleanLine> tokenize(std::string_view content) {
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  std::vector<CleanLine> lines;
  CleanLine current;
  State state = State::kCode;
  bool in_directive = false;   // inside a preprocessor directive (incl. continuations)
  bool line_has_code = false;  // saw non-space code on this physical line
  std::string raw_delim;       // for R"delim( ... )delim"
  std::string pending;         // contents of the literal being scanned

  const auto flush_line = [&](bool continues_directive) {
    current.preprocessor = in_directive;
    lines.push_back(std::move(current));
    current = CleanLine{};
    line_has_code = false;
    in_directive = continues_directive && in_directive;
  };

  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c == '\n') {
      const bool continues =
          state == State::kCode && !current.code.empty() && current.code.back() == '\\';
      if (state == State::kLineComment) state = State::kCode;
      flush_line(continues);
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == '"') {
          // R"delim( opens a raw string; plain " a normal one.
          if (!current.code.empty() && current.code.back() == 'R' &&
              (current.code.size() < 2 || !ident_char(current.code[current.code.size() - 2]))) {
            raw_delim.clear();
            std::size_t j = i + 1;
            while (j < content.size() && content[j] != '(') raw_delim += content[j++];
            i = j;  // at '('
            state = State::kRawString;
          } else {
            state = State::kString;
          }
          pending.clear();
          current.code += '"';
        } else if (c == '\'' && !(line_has_code && !current.code.empty() &&
                                  ident_char(current.code.back()))) {
          // A ' after an identifier/number char is a digit separator (1'000).
          state = State::kChar;
          current.code += '\'';
        } else {
          if (!line_has_code && c == '#') in_directive = true;
          if (!std::isspace(static_cast<unsigned char>(c))) line_has_code = true;
          current.code += c;
        }
        break;
      case State::kLineComment:
        current.comment += c;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else {
          current.comment += c;
        }
        break;
      case State::kString:
        if (c == '\\') {
          // Keep the escaped character verbatim; rules that read literal
          // contents (includes, counter names) never contain escapes.
          if (next != '\0') pending += next;
          ++i;  // skip the escaped character
        } else if (c == '"') {
          state = State::kCode;
          current.code += '"';
          current.strings.push_back(pending);
        } else {
          pending += c;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          current.code += '\'';
        }
        break;
      case State::kRawString:
        if (c == ')' && content.substr(i + 1, raw_delim.size()) == raw_delim &&
            content.substr(i + 1 + raw_delim.size(), 1) == "\"") {
          i += raw_delim.size() + 1;
          state = State::kCode;
          current.code += '"';
          // A raw string that spans lines attaches to its closing line.
          current.strings.push_back(pending);
        } else {
          pending += c;
        }
        break;
    }
  }
  if (!current.code.empty() || !current.comment.empty()) flush_line(false);
  return lines;
}

const std::vector<std::string>& rule_ids() {
  static const std::vector<std::string> kIds = {
      "raw-rng",       "wall-clock",      "unordered-iter",
      "raw-assert",    "naked-new",       "header-hygiene",
      "float-arith",   "swallowed-catch", "allow-no-reason",
      "unknown-rule",  "stale-allow",     "layering",
      "include-cycle", "unknown-counter"};
  return kIds;
}

std::string to_string(const Violation& v) {
  std::ostringstream os;
  os << v.file << ":" << v.line << ": [" << v.rule << "] " << v.message;
  return os.str();
}

std::vector<Violation> lint_file(const std::string& rel_path,
                                 std::string_view content) {
  PreparedFile pf;
  pf.rel = rel_path;
  pf.lines = tokenize(content);
  run_file_scans(FileScan{pf.rel, pf.lines, pf.raw});
  std::vector<Violation> out;
  finalize_file(pf, per_file_stale_rules(), out);
  return out;
}

std::vector<std::string> collect_sources(const std::string& root,
                                         const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  const auto lintable = [](const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc" ||
           ext == ".hh";
  };
  const auto skipped_dir = [](const fs::path& p) {
    const std::string name = p.filename().string();
    return name == "build" || name == "lint_fixtures" ||
           (name.size() > 1 && name[0] == '.');
  };
  std::vector<std::string> out;
  const fs::path base(root);
  for (const std::string& rel : paths) {
    const fs::path p = base / rel;
    if (fs::is_regular_file(p)) {
      out.push_back(fs::path(rel).generic_string());
      continue;
    }
    if (!fs::is_directory(p)) continue;
    fs::recursive_directory_iterator it(p), end;
    for (; it != end; ++it) {
      if (it->is_directory() && skipped_dir(it->path())) {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && lintable(it->path())) {
        out.push_back(fs::relative(it->path(), base).generic_string());
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<Violation> lint_paths(const std::string& root,
                                  const std::vector<std::string>& rel_paths) {
  return lint_tree(root, rel_paths, TreeOptions{});
}

std::vector<Violation> lint_tree(const std::string& root,
                                 const std::vector<std::string>& rel_paths,
                                 const TreeOptions& options) {
  namespace fs = std::filesystem;
  std::vector<Violation> out;
  std::vector<PreparedFile> files;
  files.reserve(rel_paths.size());
  std::set<std::string> file_set;
  for (const std::string& rel : rel_paths) {
    std::ifstream in(fs::path(root) / rel, std::ios::binary);
    if (!in) {
      out.push_back(Violation{rel, 0, "io-error", "cannot read file"});
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    PreparedFile pf;
    pf.rel = rel;
    pf.lines = tokenize(buf.str());
    files.push_back(std::move(pf));
    file_set.insert(rel);
  }
  for (PreparedFile& pf : files) {
    run_file_scans(FileScan{pf.rel, pf.lines, pf.raw});
  }

  std::set<std::string> stale_active = per_file_stale_rules();
  const auto resolve_data = [&root](const std::string& p) {
    const fs::path path(p);
    return path.is_absolute() ? path : fs::path(root) / path;
  };
  if (!options.layering_rules.empty()) {
    run_layering_phase(resolve_data(options.layering_rules),
                       options.layering_rules, files, file_set, out);
    stale_active.insert("layering");
    stale_active.insert("include-cycle");
  }
  if (!options.counter_schema.empty()) {
    run_counter_phase(resolve_data(options.counter_schema),
                      options.counter_schema, files, out);
    stale_active.insert("unknown-counter");
  }
  for (PreparedFile& pf : files) finalize_file(pf, stale_active, out);
  return out;
}

}  // namespace mkos::lint
