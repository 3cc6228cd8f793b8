// Streaming tracking service CLI — three subcommands over one seeded
// deployment:
//
//   local      the self-contained demo: simulate sessions, record the
//              event stream to a FLUXFPT1 trace, replay it into a
//              supervised TrackerManager in-process (crash recovery via
//              --checkpoint/--restore, see README "Surviving crashes");
//   serve      run the FXN1 network service: the same deployment behind
//              a TCP/Unix socket, multi-tenant admission, supervised
//              crash recovery under live connections;
//   query      ask a running server for a quiesced estimate, service
//              metrics, or the newest checkpoint image.
//
// Invoked with flags only (no subcommand), `local` is assumed — the
// pre-subcommand invocations in older docs keep working.
//
// Every parse failure — unknown subcommand, unknown flag, missing,
// non-numeric or negative value — goes through one usage_error() path:
// message to stderr, brief usage, exit 2. `--help` prints the full help
// to stdout and exits 0.

#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "eval/service_recipe.hpp"
#include "netio/client.hpp"
#include "netio/server.hpp"
#include "sim/faults.hpp"
#include "stream/manager.hpp"
#include "stream/supervisor.hpp"
#include "stream/trace_io.hpp"

#if defined(FLUXFP_OBS_ENABLED)
#include "obs/obs.hpp"
#endif

namespace {

using namespace fluxfp;

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

constexpr const char* kUsageBrief =
    "usage: stream_daemon [local|serve|query ADDR] [flags]\n"
    "       stream_daemon --help\n";

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "stream_daemon: %s\n%s", message.c_str(),
               kUsageBrief);
  std::exit(2);
}

void print_help() {
  std::puts(
      "stream_daemon - streaming tracking service\n"
      "\n"
      "  stream_daemon local [flags]       in-process demo "
      "(default subcommand)\n"
      "  stream_daemon serve [flags]       run the FXN1 network service\n"
      "  stream_daemon query ADDR          query a running server\n"
      "\n"
      "ADDR is unix:/path/to.sock or tcp:HOST:PORT.\n"
      "\n"
      "shared deployment flags (local, serve):\n"
      "  --sessions N          tracking sessions (default 4)\n"
      "  --workers W           worker threads (default 2)\n"
      "  --seed X              deployment + mobility seed (default 42)\n"
      "\n"
      "local:\n"
      "  --rounds R            observation rounds per session (default 30)\n"
      "  --speed S             replay pacing: 0 = max speed (default),\n"
      "                        1 = real time, 8 = 8x real time\n"
      "  --trace PATH          event trace file (default "
      "stream_daemon.trace)\n"
      "  --faulty              apply transport faults "
      "(drop/dup/late/jitter)\n"
      "  --checkpoint PATH     write FLUXFPC1 snapshots to PATH (every 32\n"
      "                        fired epochs)\n"
      "  --restore PATH        resume from the snapshot at PATH, skipping\n"
      "                        each session's trace events it covers\n"
      "  --metrics             print the Prometheus exposition at exit\n"
      "\n"
      "serve:\n"
      "  --listen ADDR         endpoint (default tcp:127.0.0.1:7440;\n"
      "                        tcp port 0 = ephemeral, printed at start)\n"
      "  --tenants T           spread sessions over T tenants, session s\n"
      "                        owned by tenant s%T (default 1)\n"
      "  --token T:TOK         require token TOK for tenant T "
      "(repeatable;\n"
      "                        none = open auth)\n"
      "  --quota N             max in-flight events per tenant; a tenant\n"
      "                        at its quota has its next event shed\n"
      "                        (default 0 = off)\n"
      "  --queue-capacity N    per-worker ingest queue bound "
      "(default 256)\n"
      "  --checkpoint PATH     persist FLUXFPC1 snapshots to PATH (every 32\n"
      "                        fired epochs)\n"
      "\n"
      "query ADDR:\n"
      "  --tenant T --token K  authenticate as tenant T\n"
      "  --user U              print the quiesced estimate of session U\n"
      "  --metrics             print the server's METRICS report\n"
      "  --snapshot PATH       save the newest checkpoint image to PATH\n"
      "\n"
      "exit status: 0 ok, 1 runtime failure, 2 usage error.");
}

std::uint64_t parse_u64(const char* flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  // strtoull skips blanks and negates a leading '-' without ERANGE ("-1"
  // would parse as 2^64-1), so the text must start with a digit.
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
      errno == ERANGE) {
    usage_error(std::string(flag) + " needs a non-negative integer, got '" +
                text + "'");
  }
  return v;
}

double parse_f64(const char* flag, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    usage_error(std::string(flag) + " needs a number, got '" + text + "'");
  }
  return v;
}

netio::Endpoint parse_endpoint(const std::string& spec) {
  std::string why;
  const auto ep = netio::Endpoint::parse(spec, &why);
  if (!ep) {
    usage_error(why);
  }
  return *ep;
}

/// Pulls flag values off argv; missing values go through usage_error.
struct ArgCursor {
  int argc;
  char** argv;
  int i;

  std::string value(const char* flag) {
    if (i + 1 >= argc) {
      usage_error(std::string(flag) + " needs a value");
    }
    return argv[++i];
  }
};

/// Supervisor factory over the shared deployment (eval::ServiceDeployment):
/// sessions 0..N-1 of one user each, tenant s%tenants.
stream::Supervisor::ManagerFactory make_factory(
    const eval::ServiceDeployment& dep, std::size_t sessions,
    std::size_t tenants, stream::ManagerConfig mcfg, std::uint64_t seed,
    const stream::ManagerCheckpoint* restored) {
  const stream::StreamTrackerConfig tcfg = eval::service_tracker_config(dep);
  return [&dep, sessions, tenants, mcfg, tcfg, seed, restored]() {
    auto m = std::make_unique<stream::TrackerManager>(mcfg);
    for (std::size_t s = 0; s < sessions; ++s) {
      stream::SessionOptions opts;
      opts.tenant = static_cast<std::uint32_t>(s % tenants);
      m->add_session(static_cast<std::uint32_t>(s),
                     eval::make_service_tracker(dep, tcfg, s, 1, seed), opts);
    }
    if (restored != nullptr) {
      m->restore(*restored);
    }
    return m;
  };
}

// ---------------------------------------------------------------------------
// local
// ---------------------------------------------------------------------------

int run_local(int argc, char** argv, int first) {
  std::size_t sessions = 4;
  int rounds = 30;
  std::size_t workers = 2;
  double speed = 0.0;
  std::uint64_t seed = 42;
  std::string trace_path = "stream_daemon.trace";
  std::string checkpoint_path;
  std::string restore_path;
  bool faulty = false;
  bool metrics = false;
  ArgCursor args{argc, argv, first};
  for (; args.i < argc; ++args.i) {
    const char* a = argv[args.i];
    if (!std::strcmp(a, "--sessions")) {
      sessions = parse_u64(a, args.value(a));
    } else if (!std::strcmp(a, "--rounds")) {
      rounds = static_cast<int>(parse_u64(a, args.value(a)));
    } else if (!std::strcmp(a, "--workers")) {
      workers = parse_u64(a, args.value(a));
    } else if (!std::strcmp(a, "--speed")) {
      speed = parse_f64(a, args.value(a));
    } else if (!std::strcmp(a, "--seed")) {
      seed = parse_u64(a, args.value(a));
    } else if (!std::strcmp(a, "--trace")) {
      trace_path = args.value(a);
    } else if (!std::strcmp(a, "--checkpoint")) {
      checkpoint_path = args.value(a);
    } else if (!std::strcmp(a, "--restore")) {
      restore_path = args.value(a);
    } else if (!std::strcmp(a, "--faulty")) {
      faulty = true;
    } else if (!std::strcmp(a, "--metrics")) {
      metrics = true;
    } else if (!std::strcmp(a, "--help")) {
      print_help();
      return 0;
    } else {
      usage_error(std::string("unknown flag '") + a + "' for local");
    }
  }
  if (sessions == 0 || rounds <= 0 || workers == 0) {
    usage_error("need --sessions/--rounds/--workers >= 1");
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  const eval::ServiceDeployment dep(seed);
  std::printf("network: %zu nodes, %zu sniffers, field %.0fx%.0f\n",
              dep.graph.size(), dep.sniffed.size(), 20.0, 20.0);

  // One user per session; staggered starts interleave the sessions
  // (asynchronous collections).
  eval::ServiceSessions simulated =
      eval::simulate_service_sessions(dep, sessions, rounds, 1, seed);
  const std::vector<std::vector<std::vector<geom::Vec2>>>& truths =
      simulated.truths;
  std::vector<stream::FluxEvent> events = std::move(simulated.events);

  if (faulty) {
    sim::EventFaultPlan fplan;
    fplan.seed = seed + 7;
    fplan.drop_prob = 0.02;
    fplan.dup_prob = 0.05;
    fplan.late_prob = 0.02;
    fplan.jitter = 0.3;
    events = sim::apply_event_faults(events, fplan);
    std::puts("transport faults on: 2% drop, 5% dup, 2% late, 0.3 jitter");
  }

  stream::write_trace_file(trace_path, events);
  std::printf("recorded %zu events to %s (%zu bytes)\n", events.size(),
              trace_path.c_str(),
              stream::kTraceHeaderBytes +
                  events.size() * stream::kTraceRecordBytes);

  // Resume state: the snapshot, and the events it covers. The image is
  // session-wise: each session's record covers that session's first
  // events_taken events. The replay below sets no quota and the trace
  // holds only this deployment's sessions, so every offered event reaches
  // its session's on_event(): a resume skips, per session, that many of
  // the session's events.
  stream::ManagerCheckpoint restored;
  bool have_restore = false;
  std::map<std::uint32_t, std::uint64_t> skip;  // user -> events left
  if (!restore_path.empty()) {
    if (const auto err =
            stream::read_checkpoint_file(restore_path, restored)) {
      std::fprintf(stderr, "restore %s: %s\n", restore_path.c_str(),
                   err->to_string().c_str());
      return 1;
    }
    std::uint64_t covered = 0;
    for (const stream::SessionCheckpoint& sc : restored.sessions) {
      skip[sc.user] = stream::events_taken(sc.state.stats);
      covered += skip[sc.user];
    }
    have_restore = true;
    std::printf("restoring %zu sessions from %s, skipping %llu committed "
                "events\n",
                restored.sessions.size(), restore_path.c_str(),
                static_cast<unsigned long long>(covered));
  }

  stream::ManagerConfig mcfg;
  mcfg.workers = workers;
  const auto factory = make_factory(dep, sessions, 1, mcfg, seed,
                                    have_restore ? &restored : nullptr);

  stream::SupervisorConfig scfg2;
  scfg2.checkpoint_path = checkpoint_path;
  stream::Supervisor supervisor(factory, scfg2);
  // An unwritable --checkpoint path ends the run when the baseline
  // (start()) or the final image (finish()) cannot be written; a commit
  // of the workers' cuts that fails in between is counted and reported.
  const auto checkpoint_failed = [&](const std::runtime_error& e) {
    std::fprintf(stderr, "checkpoint %s: %s\n", checkpoint_path.c_str(),
                 e.what());
    return 1;
  };
  try {
    supervisor.start();
  } catch (const std::invalid_argument& e) {
    // The factory's manager restores the image; one taken against another
    // deployment (session count, sniffer set) is refused here.
    std::fprintf(stderr, "restore %s: %s\n", restore_path.c_str(), e.what());
    return 1;
  } catch (const std::runtime_error& e) {
    return checkpoint_failed(e);
  }

  // The replay loop stops between events on SIGINT/SIGTERM, and pacing
  // sleeps stay interruptible.
  std::ifstream trace_in(trace_path, std::ios::binary);
  stream::TraceReplayer replayer(trace_in);
  std::uint64_t offered = 0;
  std::optional<stream::ReplayPacer> pacer;
  stream::FluxEvent event;
  bool trace_ok = true;
  const auto replay_start = std::chrono::steady_clock::now();
  while (!g_stop && replayer.try_next(event)) {
    if (const auto left = skip.find(event.user);
        left != skip.end() && left->second > 0) {
      --left->second;  // its session's record already holds it
      continue;
    }
    if (speed > 0.0) {
      if (!pacer) {
        pacer.emplace(speed, event.time);
      }
      if (!pacer->pace(event.time, [] { return g_stop != 0; })) {
        break;  // the un-offered event replays on the next --restore run
      }
    }
    supervisor.offer(event);
    ++offered;
  }
  if (replayer.error()) {
    std::fprintf(stderr, "trace %s: %s\n", trace_path.c_str(),
                 replayer.error()->to_string().c_str());
    trace_ok = false;
  }
  if (g_stop) {
    std::puts("\nsignal received: draining...");
  }
  try {
    supervisor.finish();
  } catch (const std::runtime_error& e) {
    return checkpoint_failed(e);
  }
  const double replay_seconds = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    replay_start)
                                    .count();

  const stream::TrackerManager* manager = supervisor.manager();
  const stream::SupervisorStats sstats = supervisor.stats();
  // Every offered event is accepted and folded (no quota, and the trace
  // holds only this deployment's sessions).
  std::printf("\nreplayed %llu events at %s over %zu workers in %.3fs "
              "(%.0f events/s)\n",
              static_cast<unsigned long long>(offered),
              speed <= 0.0 ? "max speed" : "paced speed", manager->workers(),
              replay_seconds,
              replay_seconds > 0.0
                  ? static_cast<double>(offered) / replay_seconds
                  : 0.0);
  if (pacer && pacer->max_behind_seconds() > 0.0) {
    std::printf("pacing: worst lag behind schedule %.1f ms\n",
                1e3 * pacer->max_behind_seconds());
  }
  std::printf("checkpoints: %llu committed, newest %llu bytes%s%s\n",
              static_cast<unsigned long long>(sstats.checkpoints),
              static_cast<unsigned long long>(sstats.checkpoint_bytes),
              checkpoint_path.empty() ? "" : ", persisted to ",
              checkpoint_path.c_str());
  if (sstats.checkpoint_write_failures > 0) {
    std::printf("checkpoint writes failed: %llu\n",
                static_cast<unsigned long long>(
                    sstats.checkpoint_write_failures));
  }
  std::uint64_t epochs = 0;
  for (std::size_t s = 0; s < sessions; ++s) {
    epochs += manager->session(static_cast<std::uint32_t>(s))
                  .stats()
                  .epochs_fired;
  }
  std::printf("epochs fired: %llu (filter latency histogram: --metrics)\n",
              static_cast<unsigned long long>(epochs));

  // final-err: the session's final estimate (what QUERY_ESTIMATE serves)
  // against its true position at the last epoch it fired.
  std::puts("\nsession  epochs  dup  late  forced  final-err");
  for (std::size_t s = 0; s < sessions; ++s) {
    const stream::StreamTracker& tracker =
        manager->session(static_cast<std::uint32_t>(s));
    const stream::StreamStats& ss = tracker.stats();
    const std::uint32_t last = tracker.save_state().last_fired_epoch;
    const double final_err =
        ss.epochs_fired > 0 && last < truths[s].size()
            ? geom::distance(tracker.estimate(0), truths[s][last][0])
            : -1.0;
    std::printf("%7zu  %6llu  %3llu  %4llu  %6llu  %9.2f\n", s,
                static_cast<unsigned long long>(ss.epochs_fired),
                static_cast<unsigned long long>(ss.duplicates),
                static_cast<unsigned long long>(ss.late),
                static_cast<unsigned long long>(ss.forced_closes),
                final_err);
  }

  if (metrics) {
#if defined(FLUXFP_OBS_ENABLED)
    std::puts("\n# metrics (Prometheus text exposition)");
    std::fputs(obs::MetricsRegistry::global().export_text().c_str(), stdout);
#else
    std::puts("\nmetrics: this binary was built with FLUXFP_OBS=OFF");
#endif
  }
  return trace_ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

int run_serve(int argc, char** argv, int first) {
  std::string listen = "tcp:127.0.0.1:7440";
  std::size_t sessions = 4;
  std::size_t tenants = 1;
  std::size_t workers = 2;
  std::uint64_t seed = 42;
  std::size_t quota = 0;
  std::size_t queue_capacity = 256;
  std::string checkpoint_path;
  std::map<std::uint32_t, std::uint64_t> tokens;
  ArgCursor args{argc, argv, first};
  for (; args.i < argc; ++args.i) {
    const char* a = argv[args.i];
    if (!std::strcmp(a, "--listen")) {
      listen = args.value(a);
    } else if (!std::strcmp(a, "--sessions")) {
      sessions = parse_u64(a, args.value(a));
    } else if (!std::strcmp(a, "--tenants")) {
      tenants = parse_u64(a, args.value(a));
    } else if (!std::strcmp(a, "--workers")) {
      workers = parse_u64(a, args.value(a));
    } else if (!std::strcmp(a, "--seed")) {
      seed = parse_u64(a, args.value(a));
    } else if (!std::strcmp(a, "--quota")) {
      quota = parse_u64(a, args.value(a));
    } else if (!std::strcmp(a, "--queue-capacity")) {
      queue_capacity = parse_u64(a, args.value(a));
    } else if (!std::strcmp(a, "--checkpoint")) {
      checkpoint_path = args.value(a);
    } else if (!std::strcmp(a, "--token")) {
      const std::string pair = args.value(a);
      const std::size_t colon = pair.find(':');
      if (colon == std::string::npos) {
        usage_error("--token needs TENANT:TOKEN, got '" + pair + "'");
      }
      const std::uint64_t tenant =
          parse_u64("--token tenant", pair.substr(0, colon));
      tokens[static_cast<std::uint32_t>(tenant)] =
          parse_u64("--token value", pair.substr(colon + 1));
    } else if (!std::strcmp(a, "--help")) {
      print_help();
      return 0;
    } else {
      usage_error(std::string("unknown flag '") + a + "' for serve");
    }
  }
  if (sessions == 0 || tenants == 0 || workers == 0) {
    usage_error("need --sessions/--tenants/--workers >= 1");
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  const eval::ServiceDeployment dep(seed);
  stream::ManagerConfig mcfg;
  mcfg.workers = workers;
  mcfg.queue_capacity = queue_capacity;
  mcfg.tenant_quota = quota;
  const auto factory =
      make_factory(dep, sessions, tenants, mcfg, seed, nullptr);
  stream::SupervisorConfig scfg;
  scfg.checkpoint_path = checkpoint_path;

  netio::ServerConfig ncfg;
  ncfg.endpoint = parse_endpoint(listen);
  ncfg.tenant_tokens = std::move(tokens);

  netio::Server server(factory, scfg, ncfg);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve: %s\n", e.what());
    return 1;
  }
  std::printf("serving %zu sessions (%zu tenants) on %s over %zu workers; "
              "Ctrl-C to stop\n",
              sessions, tenants, server.endpoint().to_string().c_str(),
              workers);
  std::fflush(stdout);
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  const netio::MetricsMsg m = server.metrics();
  try {
    server.stop();
  } catch (const std::runtime_error& e) {
    // The final image could not be written; the file, if any, keeps the
    // last image committed before it.
    std::fprintf(stderr, "checkpoint %s: %s\n", checkpoint_path.c_str(),
                 e.what());
    return 1;
  }
  std::printf("\nserved %llu connections: %llu events accepted, %llu "
              "processed, %llu shed, %llu foreign, %llu error frames\n",
              static_cast<unsigned long long>(m.connections_opened),
              static_cast<unsigned long long>(m.events_accepted),
              static_cast<unsigned long long>(m.events_processed),
              static_cast<unsigned long long>(m.events_shed),
              static_cast<unsigned long long>(m.events_foreign),
              static_cast<unsigned long long>(m.error_frames));
  std::printf("checkpoints %llu, restarts %llu, ingest-to-estimate us: "
              "p50 %.0f  p99 %.0f (%llu samples)\n",
              static_cast<unsigned long long>(m.checkpoints),
              static_cast<unsigned long long>(m.restarts), m.ingest_p50_us,
              m.ingest_p99_us,
              static_cast<unsigned long long>(m.ingest_samples));
  return 0;
}

// ---------------------------------------------------------------------------
// query
// ---------------------------------------------------------------------------

int run_query(int argc, char** argv, int first) {
  if (first >= argc || argv[first][0] == '-') {
    usage_error("query needs an ADDR operand");
  }
  const netio::Endpoint endpoint = parse_endpoint(argv[first]);
  std::uint64_t tenant = 0;
  std::uint64_t token = 0;
  std::optional<std::uint32_t> user;
  bool metrics = false;
  std::string snapshot_path;
  ArgCursor args{argc, argv, first + 1};
  for (; args.i < argc; ++args.i) {
    const char* a = argv[args.i];
    if (!std::strcmp(a, "--tenant")) {
      tenant = parse_u64(a, args.value(a));
    } else if (!std::strcmp(a, "--token")) {
      token = parse_u64(a, args.value(a));
    } else if (!std::strcmp(a, "--user")) {
      user = static_cast<std::uint32_t>(parse_u64(a, args.value(a)));
    } else if (!std::strcmp(a, "--metrics")) {
      metrics = true;
    } else if (!std::strcmp(a, "--snapshot")) {
      snapshot_path = args.value(a);
    } else if (!std::strcmp(a, "--help")) {
      print_help();
      return 0;
    } else {
      usage_error(std::string("unknown flag '") + a + "' for query");
    }
  }
  if (!user && !metrics && snapshot_path.empty()) {
    usage_error("query needs --user, --metrics, or --snapshot");
  }

  netio::Client client;
  if (!client.connect(endpoint, static_cast<std::uint32_t>(tenant),
                      token)) {
    std::fprintf(stderr, "query: %s\n", client.last_error().c_str());
    return 1;
  }

  if (user) {
    netio::EstimateMsg est;
    if (!client.query_estimate(*user, est)) {
      std::fprintf(stderr, "query: %s\n", client.last_error().c_str());
      return 1;
    }
    std::printf("session %u: %llu epochs fired, %llu events folded, "
                "t=%.3f\n",
                est.user,
                static_cast<unsigned long long>(est.epochs_fired),
                static_cast<unsigned long long>(est.events_folded),
                est.time);
    for (std::size_t slot = 0; slot < est.estimates.size(); ++slot) {
      std::printf("  slot %zu: (%.3f, %.3f)\n", slot,
                  est.estimates[slot].x, est.estimates[slot].y);
    }
  }
  if (metrics) {
    netio::MetricsMsg m;
    if (!client.metrics(m)) {
      std::fprintf(stderr, "query: %s\n", client.last_error().c_str());
      return 1;
    }
    std::printf("events: %llu accepted, %llu processed, %llu shed, %llu "
                "unknown, %llu foreign (%llu batches, %llu error frames)\n",
                static_cast<unsigned long long>(m.events_accepted),
                static_cast<unsigned long long>(m.events_processed),
                static_cast<unsigned long long>(m.events_shed),
                static_cast<unsigned long long>(m.events_unknown),
                static_cast<unsigned long long>(m.events_foreign),
                static_cast<unsigned long long>(m.batches),
                static_cast<unsigned long long>(m.error_frames));
    std::printf("connections: %llu opened, %llu active; sessions %llu; "
                "checkpoints %llu; restarts %llu\n",
                static_cast<unsigned long long>(m.connections_opened),
                static_cast<unsigned long long>(m.connections_active),
                static_cast<unsigned long long>(m.sessions),
                static_cast<unsigned long long>(m.checkpoints),
                static_cast<unsigned long long>(m.restarts));
    std::printf("throughput %.0f events/s over %.3fs; ingest-to-estimate "
                "us: p50 %.0f  p99 %.0f  max %.0f (%llu samples)\n",
                m.events_per_second, m.wall_seconds, m.ingest_p50_us,
                m.ingest_p99_us, m.ingest_max_us,
                static_cast<unsigned long long>(m.ingest_samples));
  }
  if (!snapshot_path.empty()) {
    std::string image;
    if (!client.snapshot(image)) {
      std::fprintf(stderr, "query: %s\n", client.last_error().c_str());
      return 1;
    }
    std::ofstream out(snapshot_path, std::ios::binary | std::ios::trunc);
    out.write(image.data(),
              static_cast<std::streamsize>(image.size()));
    if (!out) {
      std::fprintf(stderr, "query: cannot write %s\n",
                   snapshot_path.c_str());
      return 1;
    }
    std::printf("snapshot: %zu bytes -> %s\n", image.size(),
                snapshot_path.c_str());
  }
  client.goodbye();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (!std::strcmp(argv[1], "--help") ||
                    !std::strcmp(argv[1], "help"))) {
    print_help();
    return 0;
  }
  // Flags-only invocation (or none) keeps the historical behavior: local.
  std::string cmd = "local";
  int first = 1;
  if (argc >= 2 && argv[1][0] != '-') {
    cmd = argv[1];
    first = 2;
  }
  if (cmd == "local") {
    return run_local(argc, argv, first);
  }
  if (cmd == "serve") {
    return run_serve(argc, argv, first);
  }
  if (cmd == "query") {
    return run_query(argc, argv, first);
  }
  usage_error("unknown subcommand '" + cmd + "'");
}
