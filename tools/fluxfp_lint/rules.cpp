#include "rules.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>

namespace fluxfp::lint {

namespace {

// ---------------------------------------------------------------------------
// Path scoping
// ---------------------------------------------------------------------------

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool is_header(const std::string& path) {
  return path.size() > 4 && (path.rfind(".hpp") == path.size() - 4 ||
                             path.rfind(".h") == path.size() - 2);
}

/// Directories where merge/iteration order is result-bearing: the numeric
/// engine, the streaming runtime, the trackers, and everything that emits
/// committed artifacts (eval tables, trace files). src/obs/ qualifies too:
/// metric exports are part of the bit-identical-replay guarantee, so their
/// iteration order must never depend on an unordered container. (obs is
/// deliberately NOT raw-thread-sanctioned — it observes workers, it does
/// not own any.)
bool order_sensitive_dir(const std::string& path) {
  return starts_with(path, "src/numeric/") || starts_with(path, "src/stream/") ||
         starts_with(path, "src/core/") || starts_with(path, "src/eval/") ||
         starts_with(path, "src/trace/") || starts_with(path, "src/obs/") ||
         starts_with(path, "src/netio/") ||
         // Observation-model site layer: link enumeration defines the
         // stable site keys of the RSS backend.
         starts_with(path, "src/net/links");
}

/// The only places allowed to own raw threads: the pool itself, the
/// streaming runtime's sharded workers, and the network service's
/// accept/connection threads.
bool raw_thread_sanctioned(const std::string& path) {
  return starts_with(path, "src/stream/") ||
         starts_with(path, "src/netio/") ||
         path.find("src/numeric/parallel") != std::string::npos;
}

/// The only home for raw socket syscalls: the netio transport layer.
/// Everything else talks to the service through netio::Socket / Listener /
/// Client, so fd lifetimes, EINTR handling, and SIGPIPE suppression are
/// audited in one place.
bool sockets_sanctioned(const std::string& path) {
  return starts_with(path, "src/netio/");
}

/// The only home for architecture-specific vector code: the SIMD kernel
/// layer. Everything else must call the portable kernels in
/// numeric/simd/kernels.hpp, so one TU carries the arch flags and the
/// scalar/vector numeric contract stays auditable in one place.
bool intrinsics_sanctioned(const std::string& path) {
  return starts_with(path, "src/numeric/simd/");
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
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
/// `>>` counts as two closers. Returns the index just past the closing `>`.
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

bool is_unordered_container(const Token& t) {
  return t.kind == TokKind::kIdent &&
         (t.text == "unordered_map" || t.text == "unordered_set" ||
          t.text == "unordered_multimap" || t.text == "unordered_multiset");
}

/// NaN sentinel spellings: the project constant, any k*Missing* sibling a
/// future module might add, and the raw quiet_NaN it wraps.
bool is_nan_sentinel(const Token& t) {
  if (t.kind != TokKind::kIdent) {
    return false;
  }
  if (t.text == "kMissingReading" || t.text == "quiet_NaN") {
    return true;
  }
  return t.text.size() > 1 && t.text[0] == 'k' &&
         t.text.find("Missing") != std::string::npos;
}

// ---------------------------------------------------------------------------
// Reporting with suppression accounting
// ---------------------------------------------------------------------------

struct Reporter {
  const LexedFile& file;
  std::vector<Violation>& out;
  SuppressionTally& used;

  void report(int line, const std::string& rule, std::string message) {
    auto it = file.allows.find(line);
    if (it != file.allows.end() &&
        (it->second.count(rule) || it->second.count("all"))) {
      ++used[rule];
      return;
    }
    out.push_back(Violation{file.path, line, rule, std::move(message)});
  }
};

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// no-nan-compare: kMissingReading is a NaN — `x == kMissingReading` is
/// always false and silently breaks the missing-reading protocol. Require
/// net::is_missing().
void rule_no_nan_compare(const LexedFile& f, Reporter& r) {
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_punct(toks[i], "==") && !is_punct(toks[i], "!=")) {
      continue;
    }
    // Asymmetric window: `== std::numeric_limits<double>::quiet_NaN()` puts
    // the sentinel 8 tokens to the right of the operator.
    const std::size_t lo = i >= 6 ? i - 6 : 0;
    const std::size_t hi = std::min(toks.size(), i + 11);
    for (std::size_t j = lo; j < hi; ++j) {
      if (j != i && toks[j].line == toks[i].line && is_nan_sentinel(toks[j])) {
        r.report(toks[i].line, "no-nan-compare",
                 "'" + toks[i].text + "' against NaN sentinel '" +
                     toks[j].text +
                     "' is always " +
                     (toks[i].text == "==" ? std::string("false")
                                           : std::string("true")) +
                     "; use net::is_missing()");
        break;
      }
    }
  }
}

/// no-nondeterminism: entropy and ordering sources that break the
/// bit-identical-at-any-thread-count contract. RNG/clock/thread-id bans
/// apply everywhere; the unordered range-for ban applies where iteration
/// order is result-bearing.
void rule_no_nondeterminism(const LexedFile& f, const GlobalCtx& ctx,
                            Reporter& r) {
  const auto& toks = f.tokens;
  const char* kRule = "no-nondeterminism";
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (is_ident(t, "random_device")) {
      r.report(t.line, kRule,
               "std::random_device is a fresh entropy source; derive seeds "
               "deterministically (eval::derive_seed) instead");
      continue;
    }
    if ((is_ident(t, "rand") || is_ident(t, "srand")) &&
        i + 1 < toks.size() && is_punct(toks[i + 1], "(") &&
        (i == 0 || (!is_punct(toks[i - 1], ".") &&
                    !is_punct(toks[i - 1], "->")))) {
      r.report(t.line, kRule,
               t.text + "() uses hidden global state; use a seeded geom::Rng");
      continue;
    }
    if (is_ident(t, "time") && i + 2 < toks.size() &&
        is_punct(toks[i + 1], "(") &&
        (is_ident(toks[i + 2], "nullptr") || is_ident(toks[i + 2], "NULL") ||
         (toks[i + 2].kind == TokKind::kNumber && toks[i + 2].text == "0")) &&
        (i == 0 || (!is_punct(toks[i - 1], ".") &&
                    !is_punct(toks[i - 1], "->")))) {
      r.report(t.line, kRule,
               "wall-clock seeding makes runs irreproducible; thread a seed "
               "through instead");
      continue;
    }
    if (is_ident(t, "this_thread") && i + 2 < toks.size() &&
        is_punct(toks[i + 1], "::") && is_ident(toks[i + 2], "get_id")) {
      r.report(t.line, kRule,
               "thread-id-keyed logic varies run to run; key work by index, "
               "never by worker identity");
      continue;
    }
  }

  if (!order_sensitive_dir(f.path)) {
    return;
  }
  // Range-for over a name declared anywhere as an unordered container:
  // bucket order is unspecified, so any fold over it is order-dependent.
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "for") || !is_punct(toks[i + 1], "(")) {
      continue;
    }
    const std::size_t close = match_forward(toks, i + 1, "(", ")");
    if (close == toks.size()) {
      continue;
    }
    // Find the top-level ':' separating declaration from range expression.
    std::size_t colon = toks.size();
    int depth = 0;
    for (std::size_t j = i + 2; j < close; ++j) {
      if (is_punct(toks[j], "(") || is_punct(toks[j], "[") ||
          is_punct(toks[j], "{")) {
        ++depth;
      } else if (is_punct(toks[j], ")") || is_punct(toks[j], "]") ||
                 is_punct(toks[j], "}")) {
        --depth;
      } else if (depth == 0 && is_punct(toks[j], ":")) {
        colon = j;
        break;
      } else if (depth == 0 && is_punct(toks[j], ";")) {
        break;  // classic for loop
      }
    }
    if (colon == toks.size()) {
      continue;
    }
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (toks[j].kind == TokKind::kIdent &&
          ctx.unordered_names.count(toks[j].text)) {
        r.report(toks[i].line, "no-nondeterminism",
                 "range-for over unordered container '" + toks[j].text +
                     "': iteration order is unspecified and this path is "
                     "result-bearing; iterate sorted keys or index order");
        break;
      }
    }
  }
}

/// no-raw-thread: every parallel construct outside the pool and the stream
/// runtime must go through numeric::parallel_for, or determinism and the
/// single-external-caller pool protocol cannot be audited.
void rule_no_raw_thread(const LexedFile& f, Reporter& r) {
  if (raw_thread_sanctioned(f.path)) {
    return;
  }
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (is_ident(toks[i], "pthread_create")) {
      r.report(toks[i].line, "no-raw-thread",
               "pthread_create bypasses the parallel engine; use "
               "numeric::parallel_for");
      continue;
    }
    if (!is_ident(toks[i], "std") || !is_punct(toks[i + 1], "::")) {
      continue;
    }
    const Token& what = toks[i + 2];
    if (is_ident(what, "async") || is_ident(what, "jthread") ||
        (is_ident(what, "thread") &&
         // std::thread::hardware_concurrency() etc. is a query, not a spawn.
         (i + 3 >= toks.size() || !is_punct(toks[i + 3], "::")))) {
      r.report(what.line, "no-raw-thread",
               "raw std::" + what.text +
                   " outside src/numeric/parallel*, src/stream/, and "
                   "src/netio/; use numeric::parallel_for (or justify with "
                   "an inline allow)");
    }
  }
}

/// pool-serial-guard: a body handed to a raw thread that then calls
/// pool-reentrant code (tracker steps, parallel_for) must hold a
/// numeric::SerialRegionGuard — the shared pool admits one external caller.
void rule_pool_serial_guard(const LexedFile& f, Reporter& r) {
  if (f.path.find("src/numeric/parallel") != std::string::npos) {
    return;  // the pool implements the protocol it enforces
  }
  const auto& toks = f.tokens;

  const std::set<std::string> reentrant = {
      "parallel_for", "parallel_for_ranges", "on_event",
      "evaluate_batch", "step", "flush", "reseed"};
  // `keyword (` is control flow, not a call or a definition.
  const std::set<std::string> keywords = {
      "for", "while", "if", "switch", "return", "catch",
      "sizeof", "alignof", "decltype", "static_cast", "assert"};

  // Collect [start, end) token ranges of same-file function definitions so
  // lambda bodies can be expanded one call level deep.
  struct Def {
    std::string name;
    std::size_t begin, end;
  };
  std::vector<Def> defs;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || !is_punct(toks[i + 1], "(") ||
        keywords.count(toks[i].text)) {
      continue;
    }
    const std::size_t close = match_forward(toks, i + 1, "(", ")");
    if (close == toks.size()) {
      continue;
    }
    // Definition if '{' follows within a few specifier tokens.
    std::size_t j = close + 1;
    std::size_t budget = 4;
    while (j < toks.size() && budget > 0 &&
           (is_ident(toks[j], "const") || is_ident(toks[j], "noexcept") ||
            is_ident(toks[j], "override") || is_ident(toks[j], "final") ||
            is_punct(toks[j], "->") || toks[j].kind == TokKind::kIdent ||
            is_punct(toks[j], "::"))) {
      if (is_punct(toks[j], "{")) {
        break;
      }
      ++j;
      --budget;
    }
    if (j < toks.size() && is_punct(toks[j], "{")) {
      const std::size_t bend = match_forward(toks, j, "{", "}");
      defs.push_back(Def{toks[i].text, j, bend});
    }
  }

  auto scan_range = [&](std::size_t begin, std::size_t end, bool& guarded,
                        bool& reenters, std::vector<std::string>& calls) {
    for (std::size_t j = begin; j < end && j < toks.size(); ++j) {
      if (toks[j].kind != TokKind::kIdent) {
        continue;
      }
      if (toks[j].text == "SerialRegionGuard") {
        guarded = true;
      }
      if (j + 1 < toks.size() && is_punct(toks[j + 1], "(") &&
          !keywords.count(toks[j].text)) {
        if (reentrant.count(toks[j].text)) {
          reenters = true;
        }
        calls.push_back(toks[j].text);
      }
    }
  };

  for (std::size_t i = 1; i < toks.size(); ++i) {
    if (!is_punct(toks[i], "[")) {
      continue;
    }
    // Lambda in a thread-launch argument position? Look back for an
    // identifier mentioning thread/async (std::thread ctor,
    // threads_.emplace_back, std::async, ...).
    if (!is_punct(toks[i - 1], "(") && !is_punct(toks[i - 1], ",")) {
      continue;
    }
    bool launch_ctx = false;
    const std::size_t lb = i >= 8 ? i - 8 : 0;
    for (std::size_t j = lb; j < i; ++j) {
      if (toks[j].kind == TokKind::kIdent) {
        const std::string l = lower(toks[j].text);
        if (l.find("thread") != std::string::npos || l == "async") {
          launch_ctx = true;
          break;
        }
      }
    }
    if (!launch_ctx) {
      continue;
    }
    // Parse the lambda: capture list, optional params, body.
    const std::size_t cap_end = match_forward(toks, i, "[", "]");
    if (cap_end == toks.size()) {
      continue;
    }
    std::size_t j = cap_end + 1;
    if (j < toks.size() && is_punct(toks[j], "(")) {
      j = match_forward(toks, j, "(", ")") + 1;
    }
    while (j < toks.size() && !is_punct(toks[j], "{") &&
           !is_punct(toks[j], ";") && !is_punct(toks[j], ")")) {
      ++j;  // mutable / noexcept / -> ret
    }
    if (j >= toks.size() || !is_punct(toks[j], "{")) {
      continue;
    }
    const std::size_t body_end = match_forward(toks, j, "{", "}");

    bool guarded = false;
    bool reenters = false;
    std::vector<std::string> calls;
    scan_range(j, body_end, guarded, reenters, calls);
    // One level of same-file call expansion (worker_loop pattern).
    for (const std::string& name : calls) {
      for (const Def& d : defs) {
        if (d.name == name) {
          std::vector<std::string> ignored;
          scan_range(d.begin, d.end, guarded, reenters, ignored);
        }
      }
    }
    if (reenters && !guarded) {
      r.report(toks[i].line, "pool-serial-guard",
               "worker-thread body calls pool-reentrant code without "
               "numeric::SerialRegionGuard; the shared pool admits one "
               "external caller at a time");
    }
  }
}

/// no-raw-intrinsics: SIMD intrinsics headers and identifiers are confined
/// to src/numeric/simd/. A stray _mm256_* in a localizer would be compiled
/// without the kernel TU's arch flags and -ffp-contract=off, silently
/// breaking both portability and the element-wise bit-exactness contract.
void rule_no_raw_intrinsics(const LexedFile& f, Reporter& r) {
  if (intrinsics_sanctioned(f.path)) {
    return;
  }
  const char* kRule = "no-raw-intrinsics";
  static const char* const kHeaders[] = {
      "immintrin", "emmintrin", "xmmintrin", "pmmintrin", "tmmintrin",
      "smmintrin", "nmmintrin", "wmmintrin", "x86intrin", "x86gprintrin",
      "arm_neon",  "arm_sve"};
  static const char* const kIdentPrefixes[] = {
      "_mm",     "__m128", "__m256", "__m512", "__builtin_ia32",
      "vld1q_",  "vst1q_", "vaddq_", "vsubq_", "vmulq_",
      "vdivq_",  "vminq_", "vmaxq_", "vsqrtq_", "vdupq_",
      "vbslq_",  "vceqq_", "vcltq_", "vcgtq_", "vnegq_"};
  static const char* const kIdentExact[] = {
      "float64x2_t", "float32x4_t", "uint64x2_t", "uint32x4_t", "int64x2_t"};
  int last_line = -1;  // one finding per source line, not per token
  for (const Token& t : f.tokens) {
    if (t.line == last_line) {
      continue;
    }
    if (t.kind == TokKind::kPreproc &&
        t.text.find("include") != std::string::npos) {
      for (const char* header : kHeaders) {
        if (t.text.find(header) != std::string::npos) {
          r.report(t.line, kRule,
                   std::string("intrinsics header <") + header +
                       ".h> outside src/numeric/simd/; call the portable "
                       "kernels in numeric/simd/kernels.hpp instead");
          last_line = t.line;
          break;
        }
      }
      continue;
    }
    if (t.kind != TokKind::kIdent) {
      continue;
    }
    bool hit = false;
    for (const char* prefix : kIdentPrefixes) {
      if (starts_with(t.text, prefix)) {
        hit = true;
        break;
      }
    }
    if (!hit) {
      for (const char* exact : kIdentExact) {
        if (t.text == exact) {
          hit = true;
          break;
        }
      }
    }
    if (hit) {
      r.report(t.line, kRule,
               "raw SIMD intrinsic '" + t.text +
                   "' outside src/numeric/simd/; extend the kernel layer "
                   "instead of inlining architecture-specific code");
      last_line = t.line;
    }
  }
}

/// no-raw-sockets: BSD socket headers and syscalls are confined to
/// src/netio/. A stray ::connect() elsewhere would dodge the Socket
/// wrapper's EINTR retries and MSG_NOSIGNAL discipline, and network I/O
/// would no longer be auditable in one directory. Member calls
/// (`client.connect(...)`) and class-qualified names (`Client::connect`)
/// are fine — only free/global-scope calls of the syscall names count.
void rule_no_raw_sockets(const LexedFile& f, Reporter& r) {
  if (sockets_sanctioned(f.path)) {
    return;
  }
  const char* kRule = "no-raw-sockets";
  static const char* const kHeaders[] = {"sys/socket", "sys/un", "netinet/",
                                         "arpa/inet", "netdb"};
  static const std::set<std::string> kCalls = {
      "socket",      "bind",        "listen",      "accept",
      "accept4",     "connect",     "recv",        "send",
      "recvfrom",    "sendto",      "recvmsg",     "sendmsg",
      "setsockopt",  "getsockopt",  "getsockname", "getpeername",
      "shutdown",    "inet_pton",   "inet_ntop",   "getaddrinfo",
      "freeaddrinfo"};
  const auto& toks = f.tokens;
  int last_line = -1;  // one finding per source line, not per token
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.line == last_line) {
      continue;
    }
    if (t.kind == TokKind::kPreproc &&
        t.text.find("include") != std::string::npos) {
      for (const char* header : kHeaders) {
        if (t.text.find(header) != std::string::npos) {
          r.report(t.line, kRule,
                   std::string("socket header (") + header +
                       ") outside src/netio/; route network I/O through "
                       "netio::Socket/Listener");
          last_line = t.line;
          break;
        }
      }
      continue;
    }
    if (t.kind != TokKind::kIdent || !kCalls.count(t.text)) {
      continue;
    }
    if (i + 1 >= toks.size() || !is_punct(toks[i + 1], "(")) {
      continue;
    }
    if (i > 0) {
      const Token& prev = toks[i - 1];
      if (is_punct(prev, ".") || is_punct(prev, "->")) {
        continue;  // member call on a wrapper object
      }
      if (is_punct(prev, "::") && i >= 2 &&
          toks[i - 2].kind == TokKind::kIdent) {
        continue;  // class/namespace-qualified (std::bind, Client::connect)
      }
      // `int listen(` / `vector<int> accept(` / `char* recv(` are
      // declarations, not calls: a call is never preceded by a bare
      // identifier (two adjacent identifiers form a declaration) except
      // after statement keywords.
      static const std::set<std::string> kCallKeywords = {
          "return", "else", "do", "throw", "case", "co_return", "co_await",
          "co_yield"};
      if (prev.kind == TokKind::kIdent && !kCallKeywords.count(prev.text)) {
        continue;
      }
      if (is_punct(prev, "*") || is_punct(prev, "&") || is_punct(prev, ">")) {
        continue;  // pointer/ref/template return type of a declaration
      }
    }
    r.report(t.line, kRule,
             "raw socket call '" + t.text +
                 "' outside src/netio/; route network I/O through "
                 "netio::Socket/Listener");
    last_line = t.line;
  }
}

/// include-hygiene: headers must open with #pragma once and must not leak
/// `using namespace` into includers. (Self-containment is compile-checked
/// by the generated lint_include_hygiene target.)
void rule_include_hygiene(const LexedFile& f, Reporter& r) {
  if (!is_header(f.path)) {
    return;
  }
  const auto& toks = f.tokens;
  if (toks.empty()) {
    return;
  }
  const Token& first = toks.front();
  const bool pragma_once =
      first.kind == TokKind::kPreproc &&
      first.text.find("pragma") != std::string::npos &&
      first.text.find("once") != std::string::npos;
  if (!pragma_once) {
    r.report(first.line, "include-hygiene",
             "header must start with #pragma once");
  }
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (is_ident(toks[i], "using") && is_ident(toks[i + 1], "namespace")) {
      r.report(toks[i].line, "include-hygiene",
               "'using namespace' in a header leaks into every includer");
    }
  }
}

}  // namespace

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kNames = {
      "no-nan-compare",   "no-nondeterminism", "no-raw-thread",
      "pool-serial-guard", "include-hygiene",  "no-raw-intrinsics",
      "no-raw-sockets",   "guarded-member",    "lock-order",
      "atomics-policy"};
  return kNames;
}

void collect_declarations(const LexedFile& file, GlobalCtx& ctx) {
  // Class concurrency models, FLUXFP_REQUIRES tables, and the per-file
  // suppression tables the global rules need (concurrency.cpp).
  collect_concurrency_decls(file, ctx);

  const auto& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_unordered_container(toks[i])) {
      continue;
    }
    if (i + 1 >= toks.size() || !is_punct(toks[i + 1], "<")) {
      continue;
    }
    std::size_t j = skip_template_args(toks, i + 1);
    // Skip ref/pointer/const qualifiers between type and name.
    while (j < toks.size() &&
           (is_punct(toks[j], "&") || is_punct(toks[j], "*") ||
            is_ident(toks[j], "const"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == TokKind::kIdent) {
      ctx.unordered_names.insert(toks[j].text);
    }
  }
}

void check_file(const LexedFile& file, const GlobalCtx& ctx,
                std::vector<Violation>& out, SuppressionTally& used) {
  Reporter r{file, out, used};
  rule_no_nan_compare(file, r);
  rule_no_nondeterminism(file, ctx, r);
  rule_no_raw_thread(file, r);
  rule_pool_serial_guard(file, r);
  rule_include_hygiene(file, r);
  rule_no_raw_intrinsics(file, r);
  rule_no_raw_sockets(file, r);
  // guarded-member + atomics-policy (concurrency.cpp); routed through the
  // same Reporter so inline allows and the budget apply uniformly.
  for (Violation& v : concurrency_file_findings(file, ctx)) {
    r.report(v.line, v.rule, std::move(v.message));
  }
}

}  // namespace fluxfp::lint
