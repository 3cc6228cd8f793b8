#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace fluxfp::lint {

/// One finding, printed as `path:line: rule: message`.
struct Violation {
  std::string path;
  int line = 0;
  std::string rule;
  std::string message;
};

/// What the concurrency rules know about one class: which members are
/// mutexes, which members are declared FLUXFP_GUARDED_BY which mutex, and
/// which members are std::atomic. Built from class bodies in pass 1; a
/// class is "modeled" (guarded-member applies) iff it owns >= 1 mutex.
struct ClassModel {
  std::set<std::string> mutexes;
  /// member name -> guarding mutex member name.
  std::map<std::string, std::string> guarded;
  /// atomic member name -> declaration site (path, line) for the
  /// atomics-policy mixing check.
  std::map<std::string, std::pair<std::string, int>> atomics;
  /// Every recognized data member (trailing-underscore convention, plus
  /// all guarded/atomic/mutex members regardless of suffix).
  std::set<std::string> members;
};

/// One observed "mutex B acquired while mutex A is held" site. Mutex names
/// are qualified `Class::member`.
struct LockEdge {
  std::string from;
  std::string to;
  std::string path;
  int line = 0;
};

/// A call made while holding locks, resolved against fn_acquires in
/// check_global (callees are keyed by bare name; definitions may live in
/// other files, so resolution must wait until every file is harvested).
struct PendingLockCall {
  std::vector<std::string> held;  ///< qualified mutexes held at the call
  std::string callee;
  std::string path;
  int line = 0;
};

/// Cross-file state: rules that need to know what *other* files declared.
/// Built in a first pass over every scanned file; the lock graph is
/// filled by a second pass (collect_lock_graph) once every class model
/// exists.
struct GlobalCtx {
  /// Variable / member names declared anywhere with an
  /// std::unordered_{map,set,multimap,multiset} type. Range-for loops over
  /// these names are order-nondeterministic wherever they appear.
  std::set<std::string> unordered_names;

  /// Class name -> concurrency model. Same-named classes from different
  /// files merge (a header declares, a .cpp defines methods).
  std::map<std::string, ClassModel> classes;

  /// "Class::method" -> mutex member names from FLUXFP_REQUIRES on the
  /// declaration (out-of-line definitions carry no annotation of their
  /// own, so the requirement must travel across files).
  std::map<std::string, std::set<std::string>> fn_requires;

  /// bare method name -> qualified mutexes the method's body directly
  /// locks. Call sites only see bare names, so collisions are unioned;
  /// self-edges are dropped at resolution time to keep STL-name overlap
  /// (size, stats, ...) harmless.
  std::map<std::string, std::set<std::string>> fn_acquires;

  /// Lock-order graph inputs (collect_lock_graph).
  std::vector<LockEdge> direct_edges;
  std::vector<PendingLockCall> lock_calls;

  /// path -> (line -> allowed rules): per-file suppression tables kept for
  /// the global rules, which report outside any single file's check pass.
  std::map<std::string, std::map<int, std::set<std::string>>> allows_by_path;
};

/// Per-run tally of inline suppressions actually exercised, keyed by rule.
using SuppressionTally = std::map<std::string, int>;

/// All rule names, in report order.
const std::vector<std::string>& rule_names();

/// First pass: harvest declarations from one file into the global context
/// (unordered containers, class concurrency models, FLUXFP_REQUIRES
/// annotations, suppression tables).
void collect_declarations(const LexedFile& file, GlobalCtx& ctx);

/// Second pass (after every collect_declarations): walk one file's
/// function bodies tracking lock scopes, and record direct lock-nesting
/// edges, lock-holding call sites, and per-function acquire sets.
void collect_lock_graph(const LexedFile& file, GlobalCtx& ctx);

/// Third pass: run every per-file rule over one file. Violations on lines
/// carrying a matching `// fluxfp-lint: allow(rule)` are counted into
/// `used` instead of reported.
void check_file(const LexedFile& file, const GlobalCtx& ctx,
                std::vector<Violation>& out, SuppressionTally& used);

/// Global rules (lock-order): resolve the lock graph accumulated by
/// collect_lock_graph, reject acquisition cycles, and pin the documented
/// canonical order. Runs once per invocation.
void check_global(const GlobalCtx& ctx, std::vector<Violation>& out,
                  SuppressionTally& used);

/// Concurrency per-file findings (guarded-member, atomics-policy),
/// reported by check_file through the normal suppression machinery.
/// Exposed for reuse between passes; implemented in concurrency.cpp.
std::vector<Violation> concurrency_file_findings(const LexedFile& file,
                                                 const GlobalCtx& ctx);

/// concurrency.cpp internals shared with collect_declarations.
void collect_concurrency_decls(const LexedFile& file, GlobalCtx& ctx);

}  // namespace fluxfp::lint
