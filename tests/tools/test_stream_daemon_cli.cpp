// CLI contract of the stream_daemon binary: every argument-parsing
// failure — unknown subcommand, unknown flag, missing value, non-numeric
// value, missing positional — exits 2 through the single usage_error path
// with a one-line diagnostic plus the brief usage; --help exits 0. The
// fluxfp_loadgen client shares the numeric-flag contract. These run the
// real binaries (paths injected by CMake) so the contract covers the
// actual main(), not a reimplementation.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

#if !defined(STREAM_DAEMON_BIN) || !defined(LOADGEN_BIN)
#error "STREAM_DAEMON_BIN and LOADGEN_BIN must be defined by the build"
#endif

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

RunResult run(const char* bin, const std::string& args) {
  const std::string cmd = std::string(bin) + " " + args + " 2>&1";
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

RunResult run_daemon(const std::string& args) {
  return run(STREAM_DAEMON_BIN, args);
}

void expect_usage_error(const std::string& args, const std::string& needle,
                        const char* bin = STREAM_DAEMON_BIN,
                        const std::string& tool = "stream_daemon") {
  const RunResult res = run(bin, args);
  EXPECT_EQ(res.exit_code, 2) << args << "\n" << res.output;
  EXPECT_NE(res.output.find(tool + ":"), std::string::npos)
      << args << "\n" << res.output;
  EXPECT_NE(res.output.find("usage:"), std::string::npos)
      << args << "\n" << res.output;
  EXPECT_NE(res.output.find(needle), std::string::npos)
      << args << "\n" << res.output;
}

TEST(StreamDaemonCli, HelpExitsZeroAndListsSubcommands) {
  const RunResult res = run_daemon("--help");
  EXPECT_EQ(res.exit_code, 0) << res.output;
  for (const char* sub : {"local", "serve", "query"}) {
    EXPECT_NE(res.output.find(sub), std::string::npos) << res.output;
  }
  const RunResult help_word = run_daemon("help");
  EXPECT_EQ(help_word.exit_code, 0) << help_word.output;
}

TEST(StreamDaemonCli, UnknownSubcommandExitsTwo) {
  expect_usage_error("frobnicate", "unknown subcommand");
}

TEST(StreamDaemonCli, UnknownFlagExitsTwoInEverySubcommand) {
  expect_usage_error("local --no-such-flag", "--no-such-flag");
  expect_usage_error("serve --bogus", "--bogus");
  expect_usage_error("query tcp:127.0.0.1:1 --bogus", "--bogus");
}

TEST(StreamDaemonCli, MissingFlagValueExitsTwo) {
  expect_usage_error("local --sessions", "--sessions");
  expect_usage_error("serve --listen", "--listen");
}

TEST(StreamDaemonCli, NonNumericValueExitsTwoInsteadOfParsingAsZero) {
  // The historical bug: strtoull silently turned "abc" into 0. Every
  // numeric flag now goes through checked parsing.
  expect_usage_error("local --sessions abc", "--sessions");
  expect_usage_error("local --rounds 3x", "--rounds");
  expect_usage_error("local --speed fast", "--speed");
  expect_usage_error("serve --queue-capacity -", "--queue-capacity");
  // strtoull negates a leading '-' instead of failing: "-1" would be a
  // 2^64-1 session count (an uncaught length_error, not a usage error).
  expect_usage_error("local --sessions -1", "--sessions");
}

TEST(LoadgenCli, NegativeCountExitsTwoInsteadOfWrapping) {
  // Rejected while parsing, before the missing trace is ever opened.
  expect_usage_error("unix:/x --trace /nonexistent --connections -1",
                     "--connections", LOADGEN_BIN, "fluxfp_loadgen");
}

TEST(StreamDaemonCli, ClientSubcommandsRequireAnAddress) {
  expect_usage_error("query", "ADDR");
}

TEST(StreamDaemonCli, MalformedEndpointExitsTwo) {
  expect_usage_error("serve --listen nonsense", "nonsense");
}

TEST(StreamDaemonCli, BareFlagsStillMeanLocalForBackCompat) {
  // The pre-subcommand invocation `stream_daemon --sessions N ...` must
  // keep working; a tiny run proves it routes to `local` and succeeds.
  const std::string trace = "/tmp/fxn_cli_smoke.trace";
  const RunResult res = run_daemon(
      "--sessions 1 --rounds 1 --workers 1 --trace " + trace);
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("replayed"), std::string::npos) << res.output;
  std::remove(trace.c_str());
}

TEST(StreamDaemonCli, BadTokenSpecExitsTwo) {
  expect_usage_error("serve --token notanumber", "--token");
  expect_usage_error("serve --token 3", "--token");
}

}  // namespace
