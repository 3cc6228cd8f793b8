// CLI contract of the stream_daemon binary: every argument-parsing
// failure — unknown subcommand, unknown flag, missing value, non-numeric
// value, missing positional — exits 2 through the single usage_error path
// with a one-line diagnostic plus the brief usage; --help exits 0. The
// fluxfp_loadgen client shares the numeric-flag contract. These run the
// real binaries (paths injected by CMake) so the contract covers the
// actual main(), not a reimplementation.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>

#include "stream/checkpoint.hpp"
#include "stream/stream_tracker.hpp"

#if !defined(STREAM_DAEMON_BIN) || !defined(LOADGEN_BIN)
#error "STREAM_DAEMON_BIN and LOADGEN_BIN must be defined by the build"
#endif

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

/// Runs a shell command line, capturing its output.
RunResult run_shell(const std::string& cmd) {
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

RunResult run(const char* bin, const std::string& args) {
  return run_shell(std::string(bin) + " " + args + " 2>&1");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

RunResult run_daemon(const std::string& args) {
  return run(STREAM_DAEMON_BIN, args);
}

/// The trace events the FLUXFPC1 image at `path` covers: its sessions'
/// events_taken sum, which `local --restore` skips (each session its
/// own). 0 while no image decodes.
std::uint64_t image_events(const std::string& path) {
  fluxfp::stream::ManagerCheckpoint cp;
  if (fluxfp::stream::read_checkpoint_file(path, cp)) {
    return 0;
  }
  std::uint64_t events = 0;
  for (const fluxfp::stream::SessionCheckpoint& sc : cp.sessions) {
    events += fluxfp::stream::events_taken(sc.state.stats);
  }
  return events;
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

TEST(StreamDaemonCli, RestoreFromAnotherDeploymentExitsOne) {
  // An image recorded with 4 sessions cannot seed a 3-session deployment:
  // the refused restore is a runtime failure with a diagnostic, not an
  // uncaught exception.
  const std::string trace = ::testing::TempDir() + "fxn_cli_restore.trace";
  const std::string ckpt = ::testing::TempDir() + "fxn_cli_restore.ckpt";
  const std::string common = " --rounds 1 --workers 1 --trace " + trace;
  const RunResult recorded =
      run_daemon("local --sessions 4 --checkpoint " + ckpt + common);
  ASSERT_EQ(recorded.exit_code, 0) << recorded.output;
  const RunResult res =
      run_daemon("local --sessions 3 --restore " + ckpt + common);
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("restore " + ckpt + ": "), std::string::npos)
      << res.output;
  for (const std::string& path : {trace, ckpt}) {
    std::remove(path.c_str());
  }
}

TEST(StreamDaemonCli, UnwritableCheckpointPathExitsOne) {
  // The baseline image cannot be written: a diagnostic and exit 1, not an
  // uncaught std::runtime_error.
  const std::string trace = ::testing::TempDir() + "fxn_cli_unwritable.trace";
  const std::string ckpt = "/nonexistent-dir/fxn_cli.ckpt";
  const RunResult res =
      run_daemon("local --sessions 1 --rounds 1 --workers 1 --trace " +
                 trace + " --checkpoint " + ckpt);
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("checkpoint " + ckpt + ": "), std::string::npos)
      << res.output;
  std::remove(trace.c_str());
}

TEST(StreamDaemonCli, ServeWhoseFinalImageCannotBeWrittenExitsOne) {
  // serve writes its baseline image, then loses the checkpoint directory;
  // on SIGINT the final image cannot be written: a diagnostic and exit 1,
  // not an uncaught std::runtime_error.
  const std::string base = ::testing::TempDir() + "fxn_cli_serve_" +
                           std::to_string(getpid());
  const std::string dir = base + ".d";
  const std::string ckpt = dir + "/x.ckpt";
  const std::string sock = base + ".sock";
  const std::string out = base + ".out";
  ASSERT_EQ(mkdir(dir.c_str(), 0700), 0);
  const std::string cmd = std::string("exec ") + STREAM_DAEMON_BIN +
                          " serve --sessions 1 --listen unix:" + sock +
                          " --checkpoint " + ckpt + " > " + out + " 2>&1";
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    execl("/bin/sh", "sh", "-c", cmd.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  // The baseline lands in Server::start(), after the signal handlers.
  bool baseline = false;
  for (int n = 0; n < 3000 && !baseline; ++n) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    baseline = std::ifstream(ckpt).good();
  }
  EXPECT_TRUE(baseline);
  std::remove(ckpt.c_str());
  rmdir(dir.c_str());
  kill(pid, SIGINT);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  const std::string output = read_file(out);
  ASSERT_TRUE(WIFEXITED(status)) << "wait status " << status << "\n"
                                 << output;
  EXPECT_EQ(WEXITSTATUS(status), 1) << output;
  EXPECT_NE(output.find("checkpoint " + ckpt + ": "), std::string::npos)
      << output;
  for (const std::string& path : {out, sock}) {
    std::remove(path.c_str());
  }
}

TEST(StreamDaemonCli, KilledAndRestoredRunEndsWithTheUninterruptedImage) {
  // kill -9 a paced run once its first periodic commit is on disk, resume
  // it with --restore, and the final image must be the uninterrupted
  // run's, byte for byte: each session's record must hold exactly the
  // session's first events_taken events, which the resume skips per
  // session, although the workers cut their sessions at different points.
  const std::string dir = ::testing::TempDir();
  const std::string trace = dir + "fxn_cli_kill.trace";
  const std::string killed = dir + "fxn_cli_kill.ckpt";
  const std::string whole = dir + "fxn_cli_whole.ckpt";
  const std::array<std::string, 5> files = {trace, killed, killed + ".tmp",
                                            whole, whole + ".tmp"};
  for (const std::string& path : files) {
    std::remove(path.c_str());
  }
  const std::string common = std::string(STREAM_DAEMON_BIN) +
                             " local --sessions 4 --rounds 40 --workers 2"
                             " --seed 5 --trace " +
                             trace;
  // The paced run is this process's child, so it is killed and reaped
  // here. The epoch-zero baseline image covers no event; the first
  // periodic commit covers some.
  const std::string paced =
      "exec " + common + " --speed 20 --checkpoint " + killed +
      " > /dev/null 2>&1";
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    execl("/bin/sh", "sh", "-c", paced.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  for (int n = 0; n < 3000 && image_events(killed) == 0; ++n) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill(pid, SIGKILL);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "the paced run was not killed mid-stream (wait status " << status
      << ")";
  const std::uint64_t covered = image_events(killed);
  EXPECT_GT(covered, 0u);

  const RunResult resumed = run_shell(common + " --checkpoint " + killed +
                                      " --restore " + killed + " 2>&1");
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("skipping " + std::to_string(covered) + " "),
            std::string::npos)
      << resumed.output;
  const RunResult uninterrupted =
      run_shell(common + " --checkpoint " + whole + " 2>&1");
  ASSERT_EQ(uninterrupted.exit_code, 0) << uninterrupted.output;

  const std::string want = read_file(whole);
  ASSERT_FALSE(want.empty());
  EXPECT_TRUE(read_file(killed) == want)
      << "killed + restored final image differs from the uninterrupted one";
  for (const std::string& path : files) {
    std::remove(path.c_str());
  }
}

TEST(StreamDaemonCli, BadTokenSpecExitsTwo) {
  expect_usage_error("serve --token notanumber", "--token");
  expect_usage_error("serve --token 3", "--token");
}

}  // namespace
