// fluxfp-lint: the project-invariant checker.
//
// Lexes every C++ file under the given paths (no libclang; the rules are
// token/AST-lite) and enforces the contracts PRs 1-3 made load-bearing:
//
//   no-nan-compare     missing readings are a NaN sentinel; == / != against
//                      them is always false/true — require net::is_missing()
//   no-nondeterminism  no entropy sources, wall-clock seeding, thread-id
//                      keying; no range-for over unordered containers where
//                      iteration order is result-bearing
//   no-raw-thread      std::thread / std::async only in src/numeric/parallel*,
//                      src/stream/, and src/netio/ — everything else uses
//                      parallel_for
//   pool-serial-guard  worker-thread bodies that re-enter the shared pool
//                      must hold numeric::SerialRegionGuard
//   include-hygiene    headers start with #pragma once, never
//                      `using namespace` (self-containment is compile-checked
//                      by the lint_include_hygiene CMake target)
//   no-raw-sockets     BSD socket headers/syscalls only in src/netio/ —
//                      everything else goes through netio::Socket/Listener
//   guarded-member     in classes that own a mutex, members written under a
//                      lock must be declared FLUXFP_GUARDED_BY, and guarded
//                      members are never touched without their guard held
//   lock-order         the cross-file lock-acquisition graph must be acyclic
//                      and follow the canonical order pinned in DESIGN.md
//                      (conns -> ingest -> flow -> queue -> pool -> registry)
//   atomics-policy     non-relaxed memory orders only in src/obs/ and
//                      src/support/; no implicit-seq_cst ops on modeled
//                      atomic members; no atomic member mixed with a mutex
//                      in one class without an inline justification
//
// Violations print `file:line: rule: message` and exit 1. Intended
// exceptions carry `// fluxfp-lint: allow(rule) -- why` inline; every
// suppression is tallied in the budget report, --suppression-budget N
// fails the run if the total grows past N, and --expect-suppressions N
// fails it when the tally drifts from N in either direction.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "lexer.hpp"
#include "rules.hpp"

namespace fs = std::filesystem;
using namespace fluxfp::lint;

namespace {

constexpr int kExitClean = 0;
constexpr int kExitViolations = 1;
constexpr int kExitUsage = 2;

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h";
}

/// Directories never scanned when walking: build trees, VCS metadata, and
/// the linter's own violation fixtures.
bool skip_dir(const std::string& name) {
  return name == ".git" || name.rfind("build", 0) == 0 || name == "fixtures";
}

std::string to_display(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(p, root, ec);
  return (ec || rel.empty() ? p : rel).generic_string();
}

void usage(std::ostream& os) {
  os << "usage: fluxfp_lint [--root DIR] [--rule NAME]... "
        "[--suppression-budget N]\n"
        "                   [--expect-suppressions N] [--list-rules] "
        "PATH...\n"
        "Paths are files or directories, resolved relative to --root "
        "(default: cwd).\n";
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::vector<std::string> inputs;
  std::vector<std::string> only_rules;
  long suppression_budget = -1;
  long expect_suppressions = -1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = fs::path(argv[++i]);
    } else if (arg == "--rule" && i + 1 < argc) {
      only_rules.push_back(argv[++i]);
    } else if (arg == "--suppression-budget" && i + 1 < argc) {
      suppression_budget = std::strtol(argv[++i], nullptr, 10);
    } else if (arg == "--expect-suppressions" && i + 1 < argc) {
      expect_suppressions = std::strtol(argv[++i], nullptr, 10);
    } else if (arg == "--list-rules") {
      for (const std::string& r : rule_names()) {
        std::cout << r << '\n';
      }
      return kExitClean;
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return kExitClean;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "fluxfp-lint: unknown option " << arg << '\n';
      usage(std::cerr);
      return kExitUsage;
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) {
    usage(std::cerr);
    return kExitUsage;
  }
  for (const std::string& r : only_rules) {
    if (std::find(rule_names().begin(), rule_names().end(), r) ==
        rule_names().end()) {
      std::cerr << "fluxfp-lint: unknown rule '" << r << "'\n";
      return kExitUsage;
    }
  }

  // Gather files. Explicit file arguments are always taken; directory
  // walks skip build trees and fixtures.
  std::vector<fs::path> files;
  for (const std::string& in : inputs) {
    fs::path p = fs::path(in).is_absolute() ? fs::path(in) : root / in;
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (fs::recursive_directory_iterator it(p, ec), end; it != end;
           it.increment(ec)) {
        if (ec) {
          break;
        }
        if (it->is_directory() && skip_dir(it->path().filename().string())) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && lintable(it->path())) {
          files.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(p, ec) && !ec) {
      files.push_back(p);
    } else {
      std::cerr << "fluxfp-lint: no such file or directory: " << in << '\n';
      return kExitUsage;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  // Pass 1: lex everything and harvest cross-file declarations (unordered
  // containers, class concurrency models, FLUXFP_REQUIRES tables).
  std::vector<LexedFile> lexed;
  lexed.reserve(files.size());
  GlobalCtx ctx;
  for (const fs::path& f : files) {
    try {
      lexed.push_back(lex_file(f.string(), to_display(f, root)));
    } catch (const std::exception& e) {
      std::cerr << e.what() << '\n';
      return kExitUsage;
    }
    collect_declarations(lexed.back(), ctx);
  }

  // Pass 2: lock-scope walk over every function body, building the global
  // acquisition graph. Needs every class model, so it cannot fold into
  // pass 1.
  for (const LexedFile& f : lexed) {
    collect_lock_graph(f, ctx);
  }

  // Pass 3: per-file rules.
  std::vector<Violation> violations;
  SuppressionTally used;
  for (const LexedFile& f : lexed) {
    check_file(f, ctx, violations, used);
  }

  // Global rules: lock-order over the graph pass 2 built. Runs before the
  // --rule filter so `--rule lock-order` works like any other rule.
  check_global(ctx, violations, used);

  if (!only_rules.empty()) {
    violations.erase(
        std::remove_if(violations.begin(), violations.end(),
                       [&](const Violation& v) {
                         return std::find(only_rules.begin(), only_rules.end(),
                                          v.rule) == only_rules.end();
                       }),
        violations.end());
  }
  std::sort(violations.begin(), violations.end(),
            [](const Violation& a, const Violation& b) {
              if (a.path != b.path) {
                return a.path < b.path;
              }
              if (a.line != b.line) {
                return a.line < b.line;
              }
              if (a.rule != b.rule) {
                return a.rule < b.rule;
              }
              return a.message < b.message;
            });
  violations.erase(
      std::unique(violations.begin(), violations.end(),
                  [](const Violation& a, const Violation& b) {
                    return a.path == b.path && a.line == b.line &&
                           a.rule == b.rule && a.message == b.message;
                  }),
      violations.end());
  for (const Violation& v : violations) {
    std::cout << v.path << ':' << v.line << ": " << v.rule << ": "
              << v.message << '\n';
  }

  // Budget report: every inline allow() that actually masked a finding.
  long total_suppressed = 0;
  std::string detail;
  for (const auto& [rule, count] : used) {
    total_suppressed += count;
    if (!detail.empty()) {
      detail += ", ";
    }
    detail += rule + " x" + std::to_string(count);
  }
  std::cout << "fluxfp-lint: " << files.size() << " files, "
            << violations.size() << " violations, " << total_suppressed
            << " suppressions"
            << (detail.empty() ? std::string() : " (" + detail + ")") << '\n';
  bool tally_failed = false;
  if (suppression_budget >= 0 && total_suppressed > suppression_budget) {
    std::cout << "fluxfp-lint: suppression budget exceeded ("
              << total_suppressed << " > " << suppression_budget
              << "); trim allows or raise --suppression-budget\n";
    tally_failed = true;
  }
  if (expect_suppressions >= 0 && total_suppressed != expect_suppressions) {
    std::cout << "fluxfp-lint: suppression tally drifted (" << total_suppressed
              << " != expected " << expect_suppressions
              << "); audit the changed allows, then update "
                 "FLUXFP_LINT_SUPPRESSION_EXPECTED\n";
    tally_failed = true;
  }
  if (tally_failed) {
    return kExitViolations;
  }
  return violations.empty() ? kExitClean : kExitViolations;
}
