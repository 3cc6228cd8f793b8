// Tier-1 coverage for the linter itself: each rule has positive, negative,
// and suppressed fixtures under tests/tools/fixtures/, laid out like the
// real tree so directory-scoped rules scope the same way. The tests run
// the actual fluxfp_lint binary (paths injected by CMake) and assert
// exact `file:line: rule` output and exit codes.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#ifndef FLUXFP_LINT_BIN
#error "FLUXFP_LINT_BIN must be defined by the build"
#endif
#ifndef FLUXFP_LINT_FIXTURES
#error "FLUXFP_LINT_FIXTURES must be defined by the build"
#endif

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

RunResult run_lint(const std::string& args) {
  const std::string cmd =
      std::string(FLUXFP_LINT_BIN) + " " + args + " 2>&1";
  RunResult res;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for: " << cmd;
    return res;
  }
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    res.output.append(buf.data(), n);
  }
  const int status = pclose(pipe);
  res.exit_code = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status)
                                                     : -1;
  return res;
}

std::string fixture_args(const std::string& paths) {
  return "--root " + std::string(FLUXFP_LINT_FIXTURES) + " " + paths;
}

std::vector<std::string> lines_of(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == '\n') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) {
    out.push_back(cur);
  }
  return out;
}

bool has_line_starting(const RunResult& r, const std::string& prefix) {
  for (const std::string& line : lines_of(r.output)) {
    if (line.rfind(prefix, 0) == 0) {
      return true;
    }
  }
  return false;
}

constexpr int kClean = 0;
constexpr int kViolations = 1;
constexpr int kUsage = 2;

// ---------------------------------------------------------------------------
// no-nan-compare
// ---------------------------------------------------------------------------

TEST(NoNanCompare, FlagsEqAndNeAgainstSentinel) {
  const RunResult r = run_lint(fixture_args("src/core/nan_compare_bad.cpp"));
  EXPECT_EQ(r.exit_code, kViolations) << r.output;
  EXPECT_TRUE(has_line_starting(
      r, "src/core/nan_compare_bad.cpp:11: no-nan-compare:"))
      << r.output;
  EXPECT_TRUE(has_line_starting(
      r, "src/core/nan_compare_bad.cpp:15: no-nan-compare:"))
      << r.output;
  EXPECT_TRUE(has_line_starting(
      r, "src/core/nan_compare_bad.cpp:19: no-nan-compare:"))
      << r.output;
}

TEST(NoNanCompare, IsMissingAndAssignmentAreClean) {
  const RunResult r = run_lint(fixture_args("src/core/nan_compare_ok.cpp"));
  EXPECT_EQ(r.exit_code, kClean) << r.output;
}

TEST(NoNanCompare, InlineAllowSuppressesAndIsTallied) {
  const RunResult r = run_lint(fixture_args("src/core/nan_compare_ok.cpp"));
  EXPECT_NE(r.output.find("1 suppressions (no-nan-compare x1)"),
            std::string::npos)
      << r.output;
}

TEST(NoNanCompare, SuppressionBudgetZeroFailsTheRun) {
  const RunResult r = run_lint(
      fixture_args("--suppression-budget 0 src/core/nan_compare_ok.cpp"));
  EXPECT_EQ(r.exit_code, kViolations) << r.output;
  EXPECT_NE(r.output.find("suppression budget exceeded"), std::string::npos)
      << r.output;
}

// ---------------------------------------------------------------------------
// no-nondeterminism
// ---------------------------------------------------------------------------

TEST(NoNondeterminism, FlagsEveryEntropyAndOrderSource) {
  const RunResult r = run_lint(fixture_args("src/numeric/nondet_bad.cpp"));
  EXPECT_EQ(r.exit_code, kViolations) << r.output;
  const char* expected[] = {
      "src/numeric/nondet_bad.cpp:15: no-nondeterminism:",  // random_device
      "src/numeric/nondet_bad.cpp:20: no-nondeterminism:",  // srand
      "src/numeric/nondet_bad.cpp:21: no-nondeterminism:",  // rand
      "src/numeric/nondet_bad.cpp:25: no-nondeterminism:",  // time(nullptr)
      "src/numeric/nondet_bad.cpp:29: no-nondeterminism:",  // get_id
      "src/numeric/nondet_bad.cpp:34: no-nondeterminism:",  // unordered for
  };
  for (const char* prefix : expected) {
    EXPECT_TRUE(has_line_starting(r, prefix)) << prefix << "\n" << r.output;
  }
}

TEST(NoNondeterminism, UnorderedIterationOutsideResultBearingDirsIsClean) {
  const RunResult r = run_lint(fixture_args("src/sim/nondet_scope_ok.cpp"));
  EXPECT_EQ(r.exit_code, kClean) << r.output;
}

TEST(NoNondeterminism, ObsDirectoryIsOrderSensitive) {
  // Metric exports are part of the bit-identical-replay guarantee, so
  // src/obs/ folds over unordered containers are violations too.
  const RunResult r = run_lint(fixture_args("src/obs/nondet_bad.cpp"));
  EXPECT_EQ(r.exit_code, kViolations) << r.output;
  EXPECT_TRUE(has_line_starting(
      r, "src/obs/nondet_bad.cpp:12: no-nondeterminism:"))
      << r.output;
}

// ---------------------------------------------------------------------------
// no-raw-thread
// ---------------------------------------------------------------------------

TEST(NoRawThread, FlagsThreadAndAsyncOutsideSanctionedDirs) {
  const RunResult r = run_lint(fixture_args("src/sim/raw_thread_bad.cpp"));
  EXPECT_EQ(r.exit_code, kViolations) << r.output;
  EXPECT_TRUE(has_line_starting(
      r, "src/sim/raw_thread_bad.cpp:8: no-raw-thread:"))
      << r.output;
  EXPECT_TRUE(has_line_starting(
      r, "src/sim/raw_thread_bad.cpp:13: no-raw-thread:"))
      << r.output;
  // hardware_concurrency() is a query, not a spawn.
  EXPECT_FALSE(has_line_starting(
      r, "src/sim/raw_thread_bad.cpp:19:"))
      << r.output;
}

TEST(NoRawThread, StreamRuntimeIsSanctioned) {
  const RunResult r = run_lint(fixture_args("src/stream/raw_thread_ok.cpp"));
  EXPECT_EQ(r.exit_code, kClean) << r.output;
}

TEST(NoRawThread, ByteIdenticalFilesAreJudgedByTheirOwnPaths) {
  // The twins differ only in where they live: one run over both must
  // flag the src/sim copy and nothing else.
  const RunResult r = run_lint(
      fixture_args("src/netio/thread_twin.cpp src/sim/thread_twin.cpp"));
  EXPECT_EQ(r.exit_code, kViolations) << r.output;
  EXPECT_TRUE(has_line_starting(
      r, "src/sim/thread_twin.cpp:9: no-raw-thread:"))
      << r.output;
  EXPECT_NE(r.output.find("2 files, 1 violations"), std::string::npos)
      << r.output;
}

// ---------------------------------------------------------------------------
// pool-serial-guard
// ---------------------------------------------------------------------------

TEST(PoolSerialGuard, FlagsUnguardedWorkerBody) {
  const RunResult r = run_lint(fixture_args("src/stream/guard_bad.cpp"));
  EXPECT_EQ(r.exit_code, kViolations) << r.output;
  EXPECT_TRUE(has_line_starting(
      r, "src/stream/guard_bad.cpp:22: pool-serial-guard:"))
      << r.output;
}

TEST(PoolSerialGuard, GuardFoundThroughOneCallLevel) {
  const RunResult r = run_lint(fixture_args("src/stream/guard_ok.cpp"));
  EXPECT_EQ(r.exit_code, kClean) << r.output;
}

// ---------------------------------------------------------------------------
// include-hygiene
// ---------------------------------------------------------------------------

TEST(IncludeHygiene, FlagsMissingPragmaOnceAndUsingNamespace) {
  const RunResult r = run_lint(fixture_args("src/core/hygiene_bad.hpp"));
  EXPECT_EQ(r.exit_code, kViolations) << r.output;
  EXPECT_TRUE(has_line_starting(
      r, "src/core/hygiene_bad.hpp:3: include-hygiene:"))
      << r.output;
  EXPECT_TRUE(has_line_starting(
      r, "src/core/hygiene_bad.hpp:7: include-hygiene:"))
      << r.output;
}

TEST(IncludeHygiene, WellFormedHeaderIsClean) {
  const RunResult r = run_lint(fixture_args("src/core/hygiene_ok.hpp"));
  EXPECT_EQ(r.exit_code, kClean) << r.output;
}

// ---------------------------------------------------------------------------
// no-raw-intrinsics
// ---------------------------------------------------------------------------

TEST(NoRawIntrinsics, FlagsHeaderTypeAndCallsOutsideSimdDir) {
  const RunResult r = run_lint(fixture_args("src/core/intrinsics_bad.cpp"));
  EXPECT_EQ(r.exit_code, kViolations) << r.output;
  // The include, the __m128d/_mm_loadu_pd line, and each intrinsic call
  // line — one finding per source line.
  EXPECT_TRUE(has_line_starting(
      r, "src/core/intrinsics_bad.cpp:3: no-raw-intrinsics:"))
      << r.output;
  EXPECT_TRUE(has_line_starting(
      r, "src/core/intrinsics_bad.cpp:9: no-raw-intrinsics:"))
      << r.output;
  EXPECT_TRUE(has_line_starting(
      r, "src/core/intrinsics_bad.cpp:10: no-raw-intrinsics:"))
      << r.output;
  EXPECT_TRUE(has_line_starting(
      r, "src/core/intrinsics_bad.cpp:12: no-raw-intrinsics:"))
      << r.output;
}

TEST(NoRawIntrinsics, SimdKernelDirIsSanctioned) {
  const RunResult r =
      run_lint(fixture_args("src/numeric/simd/kernels_ok.cpp"));
  EXPECT_EQ(r.exit_code, kClean) << r.output;
}

TEST(NoRawIntrinsics, InlineAllowSuppressesAndIsTallied) {
  const RunResult r =
      run_lint(fixture_args("src/core/intrinsics_allowed.cpp"));
  EXPECT_EQ(r.exit_code, kClean) << r.output;
  EXPECT_NE(r.output.find("1 suppressions (no-raw-intrinsics x1)"),
            std::string::npos)
      << r.output;
}

// ---------------------------------------------------------------------------
// no-raw-sockets
// ---------------------------------------------------------------------------

TEST(NoRawSockets, FlagsHeaderAndFreeCallsOutsideNetio) {
  const RunResult r = run_lint(fixture_args("src/sim/raw_socket_bad.cpp"));
  EXPECT_EQ(r.exit_code, kViolations) << r.output;
  const char* expected[] = {
      "src/sim/raw_socket_bad.cpp:5: no-raw-sockets:",   // <sys/socket.h>
      "src/sim/raw_socket_bad.cpp:10: no-raw-sockets:",  // socket(
      "src/sim/raw_socket_bad.cpp:11: no-raw-sockets:",  // ::connect(
      "src/sim/raw_socket_bad.cpp:12: no-raw-sockets:",  // send(
      "src/sim/raw_socket_bad.cpp:15: no-raw-sockets:",  // return shutdown(
  };
  for (const char* prefix : expected) {
    EXPECT_TRUE(has_line_starting(r, prefix)) << prefix << "\n" << r.output;
  }
  // The in-struct declaration `int shutdown(int)` on line 14 is not a call.
  EXPECT_FALSE(has_line_starting(r, "src/sim/raw_socket_bad.cpp:14:"))
      << r.output;
}

TEST(NoRawSockets, NetioTransportLayerIsSanctioned) {
  const RunResult r = run_lint(fixture_args("src/netio/raw_socket_ok.cpp"));
  EXPECT_EQ(r.exit_code, kClean) << r.output;
}

TEST(NoRawSockets, MemberCallsAndQualifiedNamesAreClean) {
  const RunResult r =
      run_lint(fixture_args("src/core/socket_member_ok.cpp"));
  EXPECT_EQ(r.exit_code, kClean) << r.output;
}

// ---------------------------------------------------------------------------
// CLI contract
// ---------------------------------------------------------------------------

TEST(Cli, WholeFixtureTreeReportsEveryViolation) {
  const RunResult r = run_lint(fixture_args("src"));
  EXPECT_EQ(r.exit_code, kViolations) << r.output;
  EXPECT_NE(r.output.find("35 violations"), std::string::npos) << r.output;
}

TEST(Cli, RuleFilterNarrowsFindings) {
  const RunResult r = run_lint(fixture_args("--rule no-raw-thread src"));
  EXPECT_EQ(r.exit_code, kViolations) << r.output;
  EXPECT_TRUE(has_line_starting(
      r, "src/sim/raw_thread_bad.cpp:8: no-raw-thread:"))
      << r.output;
  EXPECT_EQ(r.output.find("no-nan-compare:"), std::string::npos) << r.output;
}

TEST(Cli, ListRulesNamesAllTen) {
  const RunResult r = run_lint("--list-rules");
  EXPECT_EQ(r.exit_code, kClean) << r.output;
  for (const char* rule :
       {"no-nan-compare", "no-nondeterminism", "no-raw-thread",
        "pool-serial-guard", "include-hygiene", "no-raw-intrinsics",
        "no-raw-sockets", "guarded-member", "lock-order",
        "atomics-policy"}) {
    EXPECT_NE(r.output.find(rule), std::string::npos) << r.output;
  }
}

TEST(Cli, ExpectSuppressionsFailsOnDriftEitherWay) {
  // The fixture has exactly one exercised suppression; expecting two must
  // fail even though two is ABOVE the actual count (drift, not budget).
  const RunResult drift = run_lint(
      fixture_args("--expect-suppressions 2 src/core/nan_compare_ok.cpp"));
  EXPECT_EQ(drift.exit_code, kViolations) << drift.output;
  EXPECT_NE(drift.output.find("suppression tally drifted"),
            std::string::npos)
      << drift.output;
  const RunResult exact = run_lint(
      fixture_args("--expect-suppressions 1 src/core/nan_compare_ok.cpp"));
  EXPECT_EQ(exact.exit_code, kClean) << exact.output;
}

TEST(Cli, MissingPathExitsUsage) {
  const RunResult r = run_lint(fixture_args("no/such/dir.cpp"));
  EXPECT_EQ(r.exit_code, kUsage) << r.output;
}

TEST(Cli, UnknownRuleExitsUsage) {
  const RunResult r = run_lint(fixture_args("--rule no-such-rule src"));
  EXPECT_EQ(r.exit_code, kUsage) << r.output;
}

// ---------------------------------------------------------------------------
// guarded-member
// ---------------------------------------------------------------------------

TEST(GuardedMember, FlagsUnannotatedWriteAndBareGuardedRead) {
  const RunResult r =
      run_lint(fixture_args("src/stream/guarded_member_bad.cpp"));
  EXPECT_EQ(r.exit_code, kViolations) << r.output;
  // ++hits_ under mu_ with no FLUXFP_GUARDED_BY on the declaration.
  EXPECT_TRUE(has_line_starting(
      r, "src/stream/guarded_member_bad.cpp:14: guarded-member:"))
      << r.output;
  // total_ is guarded but read with no lock held.
  EXPECT_TRUE(has_line_starting(
      r, "src/stream/guarded_member_bad.cpp:18: guarded-member:"))
      << r.output;
}

TEST(GuardedMember, AnnotatedAccessRequiresHelperAndAllowAreClean) {
  const RunResult r =
      run_lint(fixture_args("src/stream/guarded_member_ok.cpp"));
  EXPECT_EQ(r.exit_code, kClean) << r.output;
  EXPECT_NE(r.output.find("1 suppressions (guarded-member x1)"),
            std::string::npos)
      << r.output;
}

// ---------------------------------------------------------------------------
// atomics-policy
// ---------------------------------------------------------------------------

TEST(AtomicsPolicy, FlagsOrderingMixingAndImplicitSeqCst) {
  const RunResult r = run_lint(fixture_args("src/stream/atomics_bad.cpp"));
  EXPECT_EQ(r.exit_code, kViolations) << r.output;
  const char* expected[] = {
      "src/stream/atomics_bad.cpp:13: atomics-policy:",  // release order
      "src/stream/atomics_bad.cpp:17: atomics-policy:",  // implicit ++
      "src/stream/atomics_bad.cpp:23: atomics-policy:",  // flag_ + mutex
      "src/stream/atomics_bad.cpp:24: atomics-policy:",  // ticks_ + mutex
  };
  for (const char* prefix : expected) {
    EXPECT_TRUE(has_line_starting(r, prefix)) << prefix << "\n" << r.output;
  }
}

TEST(AtomicsPolicy, RelaxedOnlyAndJustifiedMixAreClean) {
  const RunResult r = run_lint(fixture_args("src/stream/atomics_ok.cpp"));
  EXPECT_EQ(r.exit_code, kClean) << r.output;
  EXPECT_NE(r.output.find("1 suppressions (atomics-policy x1)"),
            std::string::npos)
      << r.output;
}

TEST(AtomicsPolicy, ObsDirectoryIsSanctionedForAcquireRelease) {
  const RunResult r =
      run_lint(fixture_args("src/obs/atomics_sanctioned_ok.cpp"));
  EXPECT_EQ(r.exit_code, kClean) << r.output;
}

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

TEST(LockOrder, FlagsPinnedRankInversionAndCycle) {
  const RunResult r = run_lint(fixture_args("src/stream/lock_order_bad.cpp"));
  EXPECT_EQ(r.exit_code, kViolations) << r.output;
  // queue -> conns runs backwards through the canonical order.
  EXPECT_TRUE(has_line_starting(
      r, "src/stream/lock_order_bad.cpp:21: lock-order:"))
      << r.output;
  // Both edges of the ping/pong cycle are reported.
  EXPECT_TRUE(has_line_starting(
      r, "src/stream/lock_order_bad.cpp:42: lock-order:"))
      << r.output;
  EXPECT_TRUE(has_line_starting(
      r, "src/stream/lock_order_bad.cpp:51: lock-order:"))
      << r.output;
  EXPECT_NE(r.output.find("acquisition cycle"), std::string::npos)
      << r.output;
}

TEST(LockOrder, ForwardNestingIsCleanAndBackEdgeAllowIsTallied) {
  const RunResult r = run_lint(fixture_args("src/stream/lock_order_ok.cpp"));
  EXPECT_EQ(r.exit_code, kClean) << r.output;
  EXPECT_NE(r.output.find("1 suppressions (lock-order x1)"),
            std::string::npos)
      << r.output;
}

// ---------------------------------------------------------------------------
// lexer regressions
// ---------------------------------------------------------------------------

TEST(Lexer, LineNumbersSurviveRawStringsSplicesAndSeparators) {
  // The fixture stacks prefixed raw strings (incl. a fake `)"` closer and
  // a multi-line body), a line splice inside a literal, and digit
  // separators above a single violation: the finding must land on its
  // exact line, and nothing above it may be flagged.
  const RunResult r =
      run_lint(fixture_args("src/core/lexer_tricky_bad.cpp"));
  EXPECT_EQ(r.exit_code, kViolations) << r.output;
  EXPECT_TRUE(has_line_starting(
      r, "src/core/lexer_tricky_bad.cpp:31: no-nan-compare:"))
      << r.output;
  EXPECT_NE(r.output.find("1 violations"), std::string::npos) << r.output;
}

TEST(Lexer, RawStringOpenerAtEofDoesNotCrash) {
  const RunResult r =
      run_lint(fixture_args("src/core/lexer_unterminated_ok.cpp"));
  EXPECT_EQ(r.exit_code, kClean) << r.output;
}

}  // namespace
