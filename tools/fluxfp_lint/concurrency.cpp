// Concurrency-contract rules: the AST-lite dataflow half of fluxfp-lint.
//
// Three rules ride on one shared analysis:
//
//   guarded-member   inside a method of a class that owns a mutex, any
//                    member WRITE made while a lock is held must target a
//                    member declared FLUXFP_GUARDED_BY, and any access to
//                    a guarded member must happen with its guard held
//   lock-order       every "acquire B while holding A" site (direct
//                    nesting plus one level of call resolution) feeds a
//                    global graph; cycles are rejected and edges between
//                    pinned mutexes must follow the canonical order
//   atomics-policy   non-relaxed atomic orderings are confined to
//                    src/obs/ + src/support/; an implicit-seq_cst op on a
//                    modeled atomic member is flagged everywhere; a class
//                    mixing a std::atomic member with a mutex must justify
//                    the split-brain state with an inline allow
//
// The analysis mirrors Clang's -Wthread-safety shape on purpose (lock
// scopes from RAII declarations, REQUIRES as entry-held capabilities,
// assert_held() re-establishing a scope, constructors/destructors exempt,
// lambda bodies analyzed as separate functions) so that what the compiler
// enforces under Clang stays enforced — by this tool — under GCC builds
// and in CI environments without the capability analysis.

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "rules.hpp"

namespace fluxfp::lint {

namespace {

// ---------------------------------------------------------------------------
// Token helpers (local copies; rules.cpp keeps its own in its TU)
// ---------------------------------------------------------------------------

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

/// Index of the matching closer for the opener at `open`, or tokens.size().
std::size_t match_forward(const std::vector<Token>& toks, std::size_t open,
                          const char* open_text, const char* close_text) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], open_text)) {
      ++depth;
    } else if (is_punct(toks[i], close_text)) {
      if (--depth == 0) {
        return i;
      }
    }
  }
  return toks.size();
}

/// Skips a balanced template-argument list starting at the `<` at `i`.
std::size_t skip_template_args(const std::vector<Token>& toks, std::size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (is_punct(t, "<")) {
      ++depth;
    } else if (is_punct(t, ">")) {
      if (--depth == 0) {
        return i + 1;
      }
    } else if (is_punct(t, ">>")) {
      depth -= 2;
      if (depth <= 0) {
        return i + 1;
      }
    } else if (is_punct(t, ";") || is_punct(t, "{")) {
      break;  // malformed; give up on this site
    }
  }
  return toks.size();
}

bool ends_with_underscore(const std::string& s) {
  return !s.empty() && s.back() == '_';
}

/// Statement keywords that look like `ident (` but are never calls or
/// function definitions.
const std::set<std::string>& control_keywords() {
  static const std::set<std::string> kw = {
      "for",      "while",    "if",          "switch",  "return",
      "catch",    "sizeof",   "alignof",     "decltype", "static_cast",
      "assert",   "new",      "delete",      "throw",   "case",
      "co_await", "co_return", "co_yield",   "static_assert"};
  return kw;
}

/// Mutex type spellings recognized in member declarations.
bool is_mutex_type_ident(const Token& t) {
  return t.kind == TokKind::kIdent &&
         (t.text == "Mutex" || t.text == "mutex" ||
          t.text == "shared_mutex" || t.text == "recursive_mutex" ||
          t.text == "timed_mutex");
}

/// Member method calls that read without mutating: allowed on unguarded
/// members under a lock, and excluded from the write heuristic.
const std::set<std::string>& read_method_whitelist() {
  static const std::set<std::string> names = {
      "size",     "empty",      "at",          "count",      "find",
      "begin",    "end",        "cbegin",      "cend",       "front",
      "back",     "load",       "value",       "data",       "capacity",
      "get",      "c_str",      "native",      "str",        "stats",
      "joinable", "contains",   "lower_bound", "upper_bound",
      // Condition-variable traffic is synchronization, not guarded state.
      "notify_one", "notify_all", "wait", "wait_for", "wait_until"};
  return names;
}

// ---------------------------------------------------------------------------
// Class ranges
// ---------------------------------------------------------------------------

struct ClassRange {
  std::string name;
  std::size_t body_begin = 0;  // index of '{'
  std::size_t body_end = 0;    // index of matching '}'
};

/// Finds every `class X {...}` / `struct X {...}` definition, including
/// ones behind capability macros (`class FLUXFP_CAPABILITY("mutex") X`)
/// and base clauses. Forward declarations and `enum class` are skipped.
std::vector<ClassRange> find_class_ranges(const std::vector<Token>& toks) {
  std::vector<ClassRange> out;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i], "class") && !is_ident(toks[i], "struct")) {
      continue;
    }
    if (i > 0 && is_ident(toks[i - 1], "enum")) {
      continue;
    }
    std::string name;
    std::size_t j = i + 1;
    bool fwd = false;
    while (j < toks.size()) {
      const Token& t = toks[j];
      if (is_punct(t, ";")) {
        fwd = true;  // forward declaration / friend
        break;
      }
      if (is_punct(t, "{") || is_punct(t, ":")) {
        break;
      }
      if (t.kind == TokKind::kIdent) {
        if (t.text != "final" && t.text != "alignas") {
          name = t.text;
        }
        if (j + 1 < toks.size() && is_punct(toks[j + 1], "(")) {
          // Attribute macro with arguments: FLUXFP_CAPABILITY("mutex").
          j = match_forward(toks, j + 1, "(", ")") + 1;
          continue;
        }
      }
      ++j;
    }
    if (fwd || name.empty()) {
      continue;
    }
    while (j < toks.size() && !is_punct(toks[j], "{")) {
      ++j;  // base clause
    }
    if (j >= toks.size()) {
      continue;
    }
    const std::size_t end = match_forward(toks, j, "{", "}");
    out.push_back(ClassRange{name, j, end});
  }
  return out;
}

/// Innermost class whose body contains token index `i`, or empty.
std::string enclosing_class(const std::vector<ClassRange>& classes,
                            std::size_t i) {
  std::string best;
  std::size_t best_span = static_cast<std::size_t>(-1);
  for (const ClassRange& c : classes) {
    if (i > c.body_begin && i < c.body_end &&
        c.body_end - c.body_begin < best_span) {
      best = c.name;
      best_span = c.body_end - c.body_begin;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Member harvesting (pass 1)
// ---------------------------------------------------------------------------

/// Walks one class body at member depth and records mutex / guarded /
/// atomic / plain members into the model.
void harvest_members(const LexedFile& f, const ClassRange& cls,
                     ClassModel& model) {
  const auto& toks = f.tokens;
  int paren = 0;
  std::size_t stmt_begin = cls.body_begin + 1;
  for (std::size_t i = cls.body_begin + 1; i < cls.body_end; ++i) {
    const Token& t = toks[i];
    if (is_punct(t, "{")) {
      // Nested body (method, nested class, brace initializer): skip.
      i = match_forward(toks, i, "{", "}");
      stmt_begin = i + 1;
      continue;
    }
    if (is_punct(t, "(")) {
      ++paren;
      continue;
    }
    if (is_punct(t, ")")) {
      --paren;
      continue;
    }
    if (paren != 0) {
      continue;
    }
    if (is_punct(t, ";") || is_punct(t, ":")) {
      stmt_begin = i + 1;
      continue;
    }
    if (t.kind != TokKind::kIdent) {
      continue;
    }
    // A declared member name is an identifier followed by `;`, `=`, `{`
    // (brace init), or the FLUXFP_GUARDED_BY annotation.
    const bool followed_by_guard =
        i + 1 < toks.size() && is_ident(toks[i + 1], "FLUXFP_GUARDED_BY");
    const bool decl_tail =
        i + 1 < toks.size() &&
        (is_punct(toks[i + 1], ";") || is_punct(toks[i + 1], "=") ||
         is_punct(toks[i + 1], "{"));
    if (!followed_by_guard && !decl_tail) {
      continue;
    }
    // Reject `= default`, enum values, using-aliases: require either the
    // trailing-underscore member convention or a recognizable type.
    bool is_mutex = false;
    bool is_atomic = false;
    for (std::size_t j = stmt_begin; j < i; ++j) {
      if (is_mutex_type_ident(toks[j])) {
        // `unique_lock<std::mutex>` / `lock_guard<std::mutex>` template
        // arguments are not mutex declarations.
        if (j + 1 < toks.size() &&
            (is_punct(toks[j + 1], ">") || is_punct(toks[j + 1], ",") ||
             is_punct(toks[j + 1], ">>"))) {
          continue;
        }
        is_mutex = true;
      }
      if (is_ident(toks[j], "atomic")) {
        is_atomic = true;
      }
      if (is_ident(toks[j], "using") || is_ident(toks[j], "typedef") ||
          is_ident(toks[j], "return")) {
        is_mutex = false;
        is_atomic = false;
        break;
      }
    }
    if (is_mutex) {
      model.mutexes.insert(t.text);
      model.members.insert(t.text);
    } else if (is_atomic) {
      model.atomics.emplace(t.text, std::make_pair(f.path, t.line));
      model.members.insert(t.text);
    } else if (followed_by_guard || ends_with_underscore(t.text)) {
      model.members.insert(t.text);
    } else {
      continue;
    }
    if (followed_by_guard && i + 2 < toks.size() &&
        is_punct(toks[i + 2], "(")) {
      for (std::size_t j = i + 3; j < toks.size(); ++j) {
        if (is_punct(toks[j], ")")) {
          break;
        }
        if (toks[j].kind == TokKind::kIdent && !is_ident(toks[j], "this")) {
          model.guarded[t.text] = toks[j].text;
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Function regions
// ---------------------------------------------------------------------------

struct Region {
  std::string cls;        ///< enclosing/qualifying class ("" = free)
  std::string name;       ///< function name
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
  std::set<std::string> requires_mutexes;  ///< from inline FLUXFP_REQUIRES
  bool ctor_dtor = false;
};

/// After a parameter list's `)` at `close`, walk the specifier trail to
/// the function body's `{`. Returns the body index (or npos when this is
/// a declaration / something else) and harvests FLUXFP_REQUIRES args.
std::optional<std::size_t> find_body(const std::vector<Token>& toks,
                                     std::size_t close,
                                     std::set<std::string>& requires_out) {
  std::size_t j = close + 1;
  int budget = 64;
  bool in_init_list = false;
  while (j < toks.size() && budget-- > 0) {
    const Token& t = toks[j];
    if (is_punct(t, "{")) {
      if (in_init_list) {
        // Member brace-init (`factory_{...}`) follows an ident or a
        // template closer; the body never does inside an init list.
        const Token& prev = toks[j - 1];
        if (prev.kind == TokKind::kIdent || is_punct(prev, ">") ||
            is_punct(prev, ">>")) {
          j = match_forward(toks, j, "{", "}") + 1;
          continue;
        }
      }
      return j;
    }
    if (is_punct(t, ";") || is_punct(t, "=")) {
      return std::nullopt;  // declaration, = default / = delete / = 0
    }
    if (t.kind == TokKind::kIdent && starts_with(t.text, "FLUXFP_") &&
        j + 1 < toks.size() && is_punct(toks[j + 1], "(")) {
      const std::size_t arg_close = match_forward(toks, j + 1, "(", ")");
      if (t.text == "FLUXFP_REQUIRES") {
        for (std::size_t k = j + 2; k < arg_close; ++k) {
          if (toks[k].kind == TokKind::kIdent &&
              !is_ident(toks[k], "this")) {
            requires_out.insert(toks[k].text);
          }
        }
      }
      j = arg_close + 1;
      continue;
    }
    if (is_punct(t, ":")) {
      in_init_list = true;
      ++j;
      continue;
    }
    if (is_punct(t, "(")) {
      j = match_forward(toks, j, "(", ")") + 1;
      continue;
    }
    if (is_punct(t, "<")) {
      j = skip_template_args(toks, j);
      continue;
    }
    if (t.kind == TokKind::kIdent || is_punct(t, "::") ||
        is_punct(t, "->") || is_punct(t, ",") || is_punct(t, "&") ||
        is_punct(t, "&&") || is_punct(t, "*")) {
      ++j;
      continue;
    }
    return std::nullopt;
  }
  return std::nullopt;
}

/// Every function definition in the file, classified by enclosing class.
std::vector<Region> find_regions(const LexedFile& f,
                                 const std::vector<ClassRange>& classes) {
  const auto& toks = f.tokens;
  std::vector<Region> out;
  std::size_t resume = 0;  // skip past bodies already claimed
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (i < resume) {
      continue;
    }
    if (toks[i].kind != TokKind::kIdent || !is_punct(toks[i + 1], "(") ||
        control_keywords().count(toks[i].text)) {
      continue;
    }
    const std::size_t close = match_forward(toks, i + 1, "(", ")");
    if (close == toks.size()) {
      continue;
    }
    Region reg;
    const auto body = find_body(toks, close, reg.requires_mutexes);
    if (!body) {
      continue;
    }
    reg.name = toks[i].text;
    reg.body_begin = *body;
    reg.body_end = match_forward(toks, *body, "{", "}");
    // Out-of-line `Class::method`, in-class method, or free function.
    bool dtor = i > 0 && is_punct(toks[i - 1], "~");
    const std::size_t qual = dtor ? i - 1 : i;
    if (qual >= 2 && is_punct(toks[qual - 1], "::") &&
        toks[qual - 2].kind == TokKind::kIdent) {
      reg.cls = toks[qual - 2].text;
    } else {
      reg.cls = enclosing_class(classes, i);
    }
    reg.ctor_dtor = dtor || (!reg.cls.empty() && reg.name == reg.cls);
    out.push_back(reg);
    resume = reg.body_end;  // no nested named functions in C++
  }
  return out;
}

// ---------------------------------------------------------------------------
// Lock-scope walk
// ---------------------------------------------------------------------------

struct LockScope {
  std::string mutex;    ///< class-local mutex member name
  int depth = 0;        ///< brace depth the scope was opened at
  bool active = true;
  std::string lockvar;  ///< RAII variable name, "" for REQUIRES/assert
};

/// Callbacks a walk client provides; the walker itself only understands
/// scopes. All mutex names passed to callbacks are class-local.
struct WalkHooks {
  /// A mutex was acquired (RAII decl, .lock(), lockvar re-lock) with
  /// `held` the set of mutexes already held. NOT fired for REQUIRES or
  /// assert_held scopes (those assert, they don't acquire).
  std::function<void(const std::string& mutex, int line,
                     const std::vector<std::string>& held)>
      on_acquire;
  /// A call site `name(...)` executed while `held` is non-empty.
  std::function<void(const std::string& callee, int line,
                     const std::vector<std::string>& held)>
      on_call;
  /// A bare / this-> member access. `write` per the mutation heuristic.
  std::function<void(const std::string& member, int line, bool write,
                     const std::vector<std::string>& held)>
      on_member;
};

class ScopeWalker {
 public:
  ScopeWalker(const LexedFile& f, const ClassModel* model,
              const WalkHooks& hooks)
      : f_(f), model_(model), hooks_(hooks) {}

  /// Walks [begin, end) (a `{...}` body, braces included) with the given
  /// entry-held mutexes. Lambda bodies encountered inside are walked
  /// recursively with an EMPTY held set — a lambda may run on any thread,
  /// so it must re-establish its capabilities (assert_held) itself.
  void walk(std::size_t begin, std::size_t end,
            const std::set<std::string>& entry_held) {
    std::vector<LockScope> scopes;
    for (const std::string& m : entry_held) {
      scopes.push_back(LockScope{m, 0, true, ""});
    }
    walk_range(begin, end, scopes);
  }

 private:
  const LexedFile& f_;
  const ClassModel* model_;  // null for free functions / unmodeled classes
  const WalkHooks& hooks_;

  bool is_class_mutex(const std::string& name) const {
    return model_ != nullptr && model_->mutexes.count(name) > 0;
  }

  static std::vector<std::string> held_of(
      const std::vector<LockScope>& scopes) {
    std::vector<std::string> held;
    for (const LockScope& s : scopes) {
      if (s.active && !std::count(held.begin(), held.end(), s.mutex)) {
        held.push_back(s.mutex);
      }
    }
    return held;
  }

  /// The mutex member named inside a lock declaration's `( ... )`,
  /// accepting `m_`, `this->m_`, and `obj.m_` forms (the member name is
  /// the last identifier of the first argument).
  std::string mutex_arg(std::size_t open, std::size_t close) const {
    std::string last;
    for (std::size_t k = open + 1; k < close; ++k) {
      const Token& t = f_.tokens[k];
      if (is_punct(t, ",")) {
        break;
      }
      if (t.kind == TokKind::kIdent && !is_ident(t, "this")) {
        last = t.text;
      }
      if (is_punct(t, "(")) {
        break;  // expression argument (m.native()) — take what we have
      }
    }
    return last;
  }

  void walk_range(std::size_t begin, std::size_t end,
                  std::vector<LockScope>& scopes) {
    const auto& toks = f_.tokens;
    int depth = 0;
    for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (is_punct(t, "{")) {
        ++depth;
        continue;
      }
      if (is_punct(t, "}")) {
        --depth;
        for (LockScope& s : scopes) {
          if (s.active && s.depth > depth) {
            s.active = false;
          }
        }
        continue;
      }
      // Lambda literal: `[` not a subscript — walk its body separately
      // with an empty held set, then skip past it.
      if (is_punct(t, "[") && i > begin) {
        const Token& prev = toks[i - 1];
        const bool subscript = prev.kind == TokKind::kIdent ||
                               is_punct(prev, "]") || is_punct(prev, ")");
        if (!subscript && !(i + 1 < end && is_punct(toks[i + 1], "["))) {
          const std::size_t cap_end = match_forward(toks, i, "[", "]");
          std::size_t j = cap_end + 1;
          if (j < end && is_punct(toks[j], "(")) {
            j = match_forward(toks, j, "(", ")") + 1;
          }
          while (j < end && !is_punct(toks[j], "{") &&
                 !is_punct(toks[j], ";") && !is_punct(toks[j], ")") &&
                 !is_punct(toks[j], ",")) {
            ++j;  // mutable / noexcept / -> ret
          }
          if (j < end && is_punct(toks[j], "{")) {
            const std::size_t lam_end = match_forward(toks, j, "{", "}");
            std::vector<LockScope> empty;
            walk_range(j, lam_end, empty);
            i = lam_end;
            continue;
          }
        }
        if (i + 1 < end && is_punct(toks[i + 1], "[")) {
          i = match_forward(toks, i, "[", "]");  // [[attribute]]
          continue;
        }
        continue;
      }
      if (t.kind != TokKind::kIdent) {
        continue;
      }

      // RAII lock declarations:
      //   support::MutexLock lk(m_);     support::UniqueLock lk(m_);
      //   std::lock_guard<std::mutex> lk(m_);   std::unique_lock<...> ...
      //   std::scoped_lock lk(m_);
      if (t.text == "MutexLock" || t.text == "UniqueLock" ||
          t.text == "lock_guard" || t.text == "unique_lock" ||
          t.text == "scoped_lock") {
        std::size_t j = i + 1;
        if (j < end && is_punct(toks[j], "<")) {
          j = skip_template_args(toks, j);
        }
        if (j < end && toks[j].kind == TokKind::kIdent &&
            j + 1 < end && is_punct(toks[j + 1], "(")) {
          const std::string lockvar = toks[j].text;
          const std::size_t close = match_forward(toks, j + 1, "(", ")");
          const std::string m = mutex_arg(j + 1, close);
          if (is_class_mutex(m)) {
            if (hooks_.on_acquire) {
              hooks_.on_acquire(m, toks[j].line, held_of(scopes));
            }
            scopes.push_back(LockScope{m, depth, true, lockvar});
          }
          i = close;
          continue;
        }
      }

      // `x.lock()` / `x.unlock()` / `m_.assert_held()` where x is a live
      // lock variable or a class mutex.
      if (i + 3 < end && is_punct(toks[i + 1], ".") &&
          toks[i + 2].kind == TokKind::kIdent &&
          is_punct(toks[i + 3], "(")) {
        const std::string& obj = t.text;
        const std::string& method = toks[i + 2].text;
        bool handled = false;
        if (method == "lock" || method == "unlock") {
          for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
            if (it->lockvar == obj && !it->lockvar.empty()) {
              if (method == "lock" && !it->active) {
                it->active = true;
                if (hooks_.on_acquire) {
                  hooks_.on_acquire(it->mutex, t.line, held_of(scopes));
                }
              } else if (method == "unlock") {
                it->active = false;
              }
              handled = true;
              break;
            }
          }
          if (!handled && is_class_mutex(obj)) {
            if (method == "lock") {
              if (hooks_.on_acquire) {
                hooks_.on_acquire(obj, t.line, held_of(scopes));
              }
              scopes.push_back(LockScope{obj, depth, true, ""});
            } else {
              for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
                if (it->active && it->mutex == obj) {
                  it->active = false;
                  break;
                }
              }
            }
            handled = true;
          }
        } else if (method == "assert_held" && is_class_mutex(obj)) {
          scopes.push_back(LockScope{obj, depth, true, ""});
          handled = true;
        }
        if (handled) {
          i = match_forward(toks, i + 3, "(", ")");
          continue;
        }
      }

      // Call site: `name(` — includes member calls (obj.name(...)); the
      // resolver keys by bare name. Skip declarations (`Type name(`,
      // preceded by a bare identifier) the same way no-raw-sockets does.
      if (i + 1 < end && is_punct(toks[i + 1], "(") &&
          !control_keywords().count(t.text)) {
        bool decl_like = false;
        if (i > begin) {
          const Token& prev = toks[i - 1];
          static const std::set<std::string> kCallKeywords = {
              "return", "else", "do", "throw", "case", "co_return",
              "co_await", "co_yield"};
          if (prev.kind == TokKind::kIdent &&
              !kCallKeywords.count(prev.text)) {
            decl_like = true;
          }
          if (is_punct(prev, "*") || is_punct(prev, "&")) {
            decl_like = true;
          }
        }
        if (!decl_like && hooks_.on_call) {
          const std::vector<std::string> held = held_of(scopes);
          if (!held.empty()) {
            hooks_.on_call(t.text, t.line, held);
          }
        }
        // Fall through: the callee name may itself be a member access
        // (handled below only for bare members, so no double handling).
      }

      // Member access: bare identifier or `this->x`. Identifiers behind
      // `.`, `->`, or `::` belong to some other object/scope.
      if (model_ != nullptr && model_->members.count(t.text)) {
        bool qualified = false;
        if (i > begin) {
          const Token& prev = toks[i - 1];
          if (is_punct(prev, ".") || is_punct(prev, "::")) {
            qualified = true;
          }
          if (is_punct(prev, "->") &&
              !(i >= 2 && is_ident(toks[i - 2], "this"))) {
            qualified = true;
          }
        }
        if (!qualified && hooks_.on_member) {
          hooks_.on_member(t.text, t.line, is_write_access(i, end),
                           held_of(scopes));
        }
      }
    }
  }

  /// Mutation heuristic for the member at index i: direct assignment,
  /// compound assignment, increment/decrement (either side), subscripted
  /// assignment, or a non-whitelisted method call.
  bool is_write_access(std::size_t i, std::size_t end) const {
    const auto& toks = f_.tokens;
    if (i > 0 &&
        (is_punct(toks[i - 1], "++") || is_punct(toks[i - 1], "--"))) {
      return true;
    }
    std::size_t j = i + 1;
    bool subscripted = false;
    if (j < end && is_punct(toks[j], "[")) {
      j = match_forward(toks, j, "[", "]") + 1;
      subscripted = true;
    }
    if (j >= end) {
      return false;
    }
    const Token& nxt = toks[j];
    static const char* const kAssignOps[] = {"=",  "+=", "-=", "*=", "/=",
                                             "%=", "&=", "|=", "^=", "<<=",
                                             ">>=", "++", "--"};
    for (const char* op : kAssignOps) {
      if (is_punct(nxt, op)) {
        return true;
      }
    }
    if ((is_punct(nxt, ".") || is_punct(nxt, "->")) && j + 2 < end &&
        toks[j + 1].kind == TokKind::kIdent &&
        is_punct(toks[j + 2], "(")) {
      if (subscripted && is_punct(nxt, "->")) {
        // queues_[i]->push_marker(): a container of pointers — the call
        // mutates the pointee, not the container member itself.
        return false;
      }
      return read_method_whitelist().count(toks[j + 1].text) == 0;
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// atomics-policy path scoping
// ---------------------------------------------------------------------------

/// Files where non-relaxed orderings are sanctioned: the observability
/// layer (clock_ uses acquire/release by design) and the support
/// primitives themselves.
bool atomics_sanctioned(const std::string& path) {
  return starts_with(path, "src/obs/") || starts_with(path, "src/support/");
}

const std::set<std::string>& non_relaxed_orders() {
  static const std::set<std::string> names = {
      "memory_order_acquire", "memory_order_release", "memory_order_acq_rel",
      "memory_order_seq_cst", "memory_order_consume"};
  return names;
}

const std::set<std::string>& atomic_rmw_methods() {
  static const std::set<std::string> names = {
      "load",         "store",         "exchange",
      "fetch_add",    "fetch_sub",     "fetch_and",
      "fetch_or",     "fetch_xor",     "compare_exchange_weak",
      "compare_exchange_strong"};
  return names;
}

// ---------------------------------------------------------------------------
// Region analysis drivers
// ---------------------------------------------------------------------------

std::string qualify(const std::string& cls, const std::string& mutex) {
  return cls.empty() ? mutex : cls + "::" + mutex;
}

/// Entry-held set for a region: inline FLUXFP_REQUIRES plus the
/// cross-file fn_requires table (annotations live on declarations; the
/// bodies are usually elsewhere).
std::set<std::string> region_entry_held(const Region& reg,
                                        const GlobalCtx& ctx) {
  std::set<std::string> held = reg.requires_mutexes;
  const auto it = ctx.fn_requires.find(reg.cls + "::" + reg.name);
  if (it != ctx.fn_requires.end()) {
    held.insert(it->second.begin(), it->second.end());
  }
  return held;
}

}  // namespace

// ---------------------------------------------------------------------------
// Pass 1: declarations
// ---------------------------------------------------------------------------

void collect_concurrency_decls(const LexedFile& f, GlobalCtx& ctx) {
  const std::vector<ClassRange> classes = find_class_ranges(f.tokens);
  for (const ClassRange& c : classes) {
    harvest_members(f, c, ctx.classes[c.name]);
  }
  // FLUXFP_REQUIRES on declarations: `ret name(args) FLUXFP_REQUIRES(m);`
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "FLUXFP_REQUIRES") ||
        !is_punct(toks[i + 1], "(")) {
      continue;
    }
    const std::size_t close = match_forward(toks, i + 1, "(", ")");
    std::set<std::string> mutexes;
    for (std::size_t k = i + 2; k < close; ++k) {
      if (toks[k].kind == TokKind::kIdent && !is_ident(toks[k], "this")) {
        mutexes.insert(toks[k].text);
      }
    }
    if (mutexes.empty()) {
      continue;
    }
    // Walk back over the parameter list to the function name.
    std::size_t j = i;
    while (j > 0 && !is_punct(toks[j - 1], ")")) {
      --j;
      if (i - j > 4) {  // other specifiers between `)` and the annotation
        if (is_punct(toks[j], ";") || is_punct(toks[j], "{")) {
          j = 0;
          break;
        }
      }
    }
    if (j == 0) {
      continue;
    }
    // toks[j-1] is ')': find its '(' by walking backwards.
    int depth = 0;
    std::size_t open = toks.size();
    for (std::size_t k = j - 1; k != static_cast<std::size_t>(-1); --k) {
      if (is_punct(toks[k], ")")) {
        ++depth;
      } else if (is_punct(toks[k], "(")) {
        if (--depth == 0) {
          open = k;
          break;
        }
      }
      if (k == 0) {
        break;
      }
    }
    if (open == toks.size() || open == 0 ||
        toks[open - 1].kind != TokKind::kIdent) {
      continue;
    }
    const std::string method = toks[open - 1].text;
    std::string cls;
    if (open >= 3 && is_punct(toks[open - 2], "::") &&
        toks[open - 3].kind == TokKind::kIdent) {
      cls = toks[open - 3].text;
    } else {
      cls = enclosing_class(classes, open - 1);
    }
    ctx.fn_requires[cls + "::" + method].insert(mutexes.begin(),
                                                mutexes.end());
  }
  // Per-file suppression table, kept for the global (cross-file) rules.
  if (!f.allows.empty()) {
    ctx.allows_by_path[f.path] = f.allows;
  }
}

// ---------------------------------------------------------------------------
// Pass 2: lock graph
// ---------------------------------------------------------------------------

void collect_lock_graph(const LexedFile& f, GlobalCtx& ctx) {
  const std::vector<ClassRange> classes = find_class_ranges(f.tokens);
  for (const Region& reg : find_regions(f, classes)) {
    if (reg.ctor_dtor) {
      continue;  // mirrors -Wthread-safety: ctors/dtors are exempt
    }
    const ClassModel* model = nullptr;
    const auto it = ctx.classes.find(reg.cls);
    if (it != ctx.classes.end() && !it->second.mutexes.empty()) {
      model = &it->second;
    }
    if (model == nullptr) {
      // A region without a modeled class can still *call* into locking
      // code, but it cannot hold a modeled mutex, so it contributes no
      // edges. Skip it.
      continue;
    }
    WalkHooks hooks;
    std::set<std::string>& acquires = ctx.fn_acquires[reg.name];
    hooks.on_acquire = [&](const std::string& m, int line,
                           const std::vector<std::string>& held) {
      acquires.insert(qualify(reg.cls, m));
      for (const std::string& h : held) {
        if (h != m) {
          ctx.direct_edges.push_back(LockEdge{
              qualify(reg.cls, h), qualify(reg.cls, m), f.path, line});
        }
      }
    };
    hooks.on_call = [&](const std::string& callee, int line,
                        const std::vector<std::string>& held) {
      std::vector<std::string> qheld;
      qheld.reserve(held.size());
      for (const std::string& h : held) {
        qheld.push_back(qualify(reg.cls, h));
      }
      ctx.lock_calls.push_back(
          PendingLockCall{std::move(qheld), callee, f.path, line});
    };
    ScopeWalker walker(f, model, hooks);
    walker.walk(reg.body_begin, reg.body_end, region_entry_held(reg, ctx));
  }
  // The obs instrumentation macros register metrics on first hit, taking
  // the registry mutex; seed them as known acquirers so a macro fired
  // inside a critical section contributes its leaf edge.
  for (const char* macro :
       {"FLUXFP_OBS_COUNTER_INC", "FLUXFP_OBS_COUNTER_ADD",
        "FLUXFP_OBS_COUNTER_INC_SCHED", "FLUXFP_OBS_COUNTER_ADD_SCHED",
        "FLUXFP_OBS_GAUGE_SET", "FLUXFP_OBS_GAUGE_SET_SCHED",
        "FLUXFP_OBS_GAUGE_MAX_SCHED", "FLUXFP_OBS_HISTOGRAM_OBSERVE",
        "FLUXFP_OBS_HISTOGRAM_OBSERVE_SCHED", "FLUXFP_OBS_SPAN"}) {
    ctx.fn_acquires[macro].insert("MetricsRegistry::mutex_");
  }
}

// ---------------------------------------------------------------------------
// Per-file rules: guarded-member + atomics-policy
// ---------------------------------------------------------------------------

std::vector<Violation> concurrency_file_findings(const LexedFile& f,
                                                 const GlobalCtx& ctx) {
  std::vector<Violation> out;
  const std::vector<ClassRange> classes = find_class_ranges(f.tokens);
  const bool sanctioned = atomics_sanctioned(f.path);

  // atomics-policy (1): non-relaxed orderings outside sanctioned files.
  if (!sanctioned) {
    const auto& toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      std::string order;
      if (t.kind == TokKind::kIdent && non_relaxed_orders().count(t.text)) {
        order = t.text;
      } else if (is_ident(t, "memory_order") && i + 2 < toks.size() &&
                 is_punct(toks[i + 1], "::") &&
                 toks[i + 2].kind == TokKind::kIdent &&
                 toks[i + 2].text != "relaxed") {
        order = "memory_order::" + toks[i + 2].text;
      }
      if (!order.empty()) {
        out.push_back(Violation{
            f.path, t.line, "atomics-policy",
            order +
                " outside src/obs/ and src/support/: real synchronization "
                "belongs to mutexes and joins; use "
                "std::memory_order_relaxed with a comment, or justify "
                "with an inline allow"});
      }
    }
  }

  // atomics-policy (2): a class mixing an atomic member with a mutex.
  // Reported at the atomic's declaration site, in the declaring file.
  if (!sanctioned) {
    for (const ClassRange& c : classes) {
      const auto it = ctx.classes.find(c.name);
      if (it == ctx.classes.end() || it->second.mutexes.empty()) {
        continue;
      }
      for (const auto& [name, site] : it->second.atomics) {
        if (site.first != f.path) {
          continue;
        }
        out.push_back(Violation{
            f.path, site.second, "atomics-policy",
            "atomic member '" + name + "' in class '" + c.name +
                "', which also owns mutex '" + *it->second.mutexes.begin() +
                "': state split between an atomic and a lock is a race "
                "magnet; fold it under the mutex or justify with an "
                "inline allow"});
      }
    }
  }

  // guarded-member + atomics-policy (3, implicit seq_cst member ops):
  // walk every non-ctor region of a modeled class.
  for (const Region& reg : find_regions(f, classes)) {
    const auto it = ctx.classes.find(reg.cls);
    if (it == ctx.classes.end()) {
      continue;
    }
    const ClassModel& model = it->second;
    if (model.mutexes.empty() && model.atomics.empty()) {
      continue;
    }
    if (reg.ctor_dtor) {
      continue;
    }
    WalkHooks hooks;
    std::set<int> reported;  // one finding per (line), not per token
    hooks.on_member = [&](const std::string& member, int line, bool write,
                          const std::vector<std::string>& held) {
      if (reported.count(line)) {
        return;
      }
      const auto guard = model.guarded.find(member);
      if (guard != model.guarded.end()) {
        if (!std::count(held.begin(), held.end(), guard->second)) {
          reported.insert(line);
          out.push_back(Violation{
              f.path, line, "guarded-member",
              "member '" + member + "' is FLUXFP_GUARDED_BY(" +
                  guard->second + ") but accessed here without it held; "
                  "take the lock (or assert_held in a lock-held lambda)"});
        }
        return;
      }
      if (write && !held.empty() && !model.mutexes.count(member) &&
          !model.atomics.count(member) && !model.mutexes.empty()) {
        reported.insert(line);
        out.push_back(Violation{
            f.path, line, "guarded-member",
            "member '" + member + "' written while holding '" + held.front() +
                "' but not declared FLUXFP_GUARDED_BY; annotate the "
                "declaration so Clang and this lint enforce the guard"});
      }
    };
    ScopeWalker walker(f, &model, hooks);
    walker.walk(reg.body_begin, reg.body_end, region_entry_held(reg, ctx));

    // Implicit seq_cst ops on modeled atomic members.
    if (!sanctioned && !model.atomics.empty()) {
      const auto& toks = f.tokens;
      for (std::size_t i = reg.body_begin;
           i < reg.body_end && i + 3 < toks.size(); ++i) {
        const Token& t = toks[i];
        if (t.kind != TokKind::kIdent || !model.atomics.count(t.text)) {
          continue;
        }
        if (i > 0 && (is_punct(toks[i - 1], ".") ||
                      is_punct(toks[i - 1], "::"))) {
          continue;
        }
        if (is_punct(toks[i + 1], ".") &&
            toks[i + 2].kind == TokKind::kIdent &&
            atomic_rmw_methods().count(toks[i + 2].text) &&
            is_punct(toks[i + 3], "(")) {
          const std::size_t close = match_forward(toks, i + 3, "(", ")");
          bool explicit_order = false;
          for (std::size_t k = i + 4; k < close; ++k) {
            if (toks[k].kind == TokKind::kIdent &&
                starts_with(toks[k].text, "memory_order")) {
              explicit_order = true;
              break;
            }
          }
          if (!explicit_order) {
            out.push_back(Violation{
                f.path, t.line, "atomics-policy",
                "atomic member '" + t.text + "." + toks[i + 2].text +
                    "()' without an explicit memory_order defaults to "
                    "seq_cst; state the ordering (relaxed unless this is "
                    "sanctioned synchronization code)"});
          }
        } else {
          static const char* const kOps[] = {"=",  "+=", "-=", "&=", "|=",
                                             "^=", "++", "--"};
          for (const char* op : kOps) {
            if (is_punct(toks[i + 1], op) ||
                (i > 0 && (is_punct(toks[i - 1], "++") ||
                           is_punct(toks[i - 1], "--")))) {
              out.push_back(Violation{
                  f.path, t.line, "atomics-policy",
                  "operator on atomic member '" + t.text +
                      "' is an implicit seq_cst op; spell out "
                      "load/store/fetch_* with an explicit memory_order"});
              break;
            }
          }
        }
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Global rule: lock-order
// ---------------------------------------------------------------------------

namespace {

/// The canonical acquisition order (DESIGN.md "Invariants & static
/// analysis"). Lower rank first; every edge between two pinned mutexes
/// must point down this list. The registry mutex is the leaf: acquirable
/// under anything, never holding anything.
const std::vector<std::string>& pinned_order() {
  static const std::vector<std::string> order = {
      "Server::conns_mutex_",        "Server::ingest_mutex_",
      "TrackerManager::flow_mutex_", "EventQueue::mutex_",
      "Pool::mutex_",                "MetricsRegistry::mutex_"};
  return order;
}

int pinned_rank(const std::string& m) {
  const auto& order = pinned_order();
  const auto it = std::find(order.begin(), order.end(), m);
  return it == order.end() ? -1 : static_cast<int>(it - order.begin());
}

void report_global(const GlobalCtx& ctx, std::vector<Violation>& out,
                   SuppressionTally& used, const std::string& path, int line,
                   const std::string& rule, std::string message) {
  const auto fit = ctx.allows_by_path.find(path);
  if (fit != ctx.allows_by_path.end()) {
    const auto lit = fit->second.find(line);
    if (lit != fit->second.end() &&
        (lit->second.count(rule) || lit->second.count("all"))) {
      ++used[rule];
      return;
    }
  }
  out.push_back(Violation{path, line, rule, std::move(message)});
}

}  // namespace

void check_global(const GlobalCtx& ctx, std::vector<Violation>& out,
                  SuppressionTally& used) {
  // Union of direct-nesting edges and call-resolved edges. Self-edges are
  // dropped: bare-name callee resolution makes `items_.size()` under the
  // queue lock look like EventQueue::size() (which takes the same lock),
  // and a mutex can never order against itself.
  std::vector<LockEdge> edges = ctx.direct_edges;
  for (const PendingLockCall& call : ctx.lock_calls) {
    // Names the standard containers also use (size, find, ...) are
    // unresolvable by bare name — `workers_.size()` under the pool lock
    // must not resolve to EventQueue::size(). Any lock such a method
    // takes inline is still seen by the direct-edge pass.
    if (read_method_whitelist().count(call.callee) > 0) {
      continue;
    }
    const auto it = ctx.fn_acquires.find(call.callee);
    if (it == ctx.fn_acquires.end()) {
      continue;
    }
    for (const std::string& h : call.held) {
      for (const std::string& m : it->second) {
        if (h != m) {
          edges.push_back(LockEdge{h, m, call.path, call.line});
        }
      }
    }
  }

  // One representative site per (from, to) pair.
  std::map<std::pair<std::string, std::string>, const LockEdge*> graph;
  for (const LockEdge& e : edges) {
    graph.emplace(std::make_pair(e.from, e.to), &e);
  }

  // Pinned-order check: an edge between two pinned mutexes must go
  // forward in rank.
  std::set<std::pair<std::string, std::string>> bad;
  for (const auto& [key, e] : graph) {
    const int rf = pinned_rank(e->from);
    const int rt = pinned_rank(e->to);
    if (rf >= 0 && rt >= 0 && rf >= rt) {
      bad.insert(key);
      report_global(ctx, out, used, e->path, e->line, "lock-order",
                    "'" + e->to + "' acquired while holding '" + e->from +
                        "', against the canonical order (conns -> ingest "
                        "-> flow -> queue -> pool -> registry); invert the "
                        "nesting or move the work outside the lock");
    }
  }

  // Cycle detection over the remaining edges (colors: 0 new, 1 on stack,
  // 2 done). Reports every edge of the first cycle found through each
  // back edge.
  std::map<std::string, std::vector<std::pair<std::string, const LockEdge*>>>
      adj;
  for (const auto& [key, e] : graph) {
    if (!bad.count(key)) {
      adj[e->from].push_back({e->to, e});
    }
  }
  std::map<std::string, int> color;
  std::vector<std::pair<std::string, const LockEdge*>> stack;
  std::set<std::pair<std::string, std::string>> reported_cycle_edges;
  std::function<void(const std::string&)> dfs = [&](const std::string& n) {
    color[n] = 1;
    for (const auto& [next, e] : adj[n]) {
      if (color[next] == 1) {
        // Back edge: the cycle is e plus the stack suffix from `next`.
        std::vector<const LockEdge*> cycle;
        bool in_cycle = false;
        for (const auto& [node, se] : stack) {
          if (node == next) {
            in_cycle = true;
          }
          if (in_cycle && se != nullptr) {
            cycle.push_back(se);
          }
        }
        cycle.push_back(e);
        for (const LockEdge* ce : cycle) {
          if (reported_cycle_edges.insert({ce->from, ce->to}).second) {
            report_global(
                ctx, out, used, ce->path, ce->line, "lock-order",
                "acquisition cycle: '" + ce->to + "' taken while holding '" +
                    ce->from +
                    "' is part of a loop in the lock graph; two threads "
                    "interleaving these chains deadlock");
          }
        }
      } else if (color[next] == 0) {
        stack.push_back({next, e});
        dfs(next);
        stack.pop_back();
      }
    }
    color[n] = 2;
  };
  for (const auto& [node, _] : adj) {
    if (color[node] == 0) {
      stack.clear();
      stack.push_back({node, nullptr});
      dfs(node);
    }
  }
}

}  // namespace fluxfp::lint
