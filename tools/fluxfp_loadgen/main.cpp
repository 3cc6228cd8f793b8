// fluxfp_loadgen: replays a FLUXFPT1 trace against a running FXN1 tracking
// service at Nx speed over M concurrent connections.
//
// The trace is partitioned by session: connection c carries every event of
// users u with u % M == c, so each session's events stay on one connection
// and arrive in trace order — the property that makes accepted-event
// folding bit-identical at any worker count. Connection c
// authenticates as tenant c % T, which matches the server's session->tenant
// map (session s belongs to tenant s % T) exactly when M is a multiple of
// T; the tool enforces that so a foreign-event rejection is always a real
// finding, never a partitioning artifact.
//
// All connections pace against the SAME stream epoch clock (the global
// first event's timestamp), so the offered interleaving across connections
// tracks the recorded one at any speedup. After the replay, one control
// connection fetches METRICS. The server quiesces first, then counts where
// the work happened: events_processed is its sessions' own count of
// events taken (folded, late or from an unknown node), and each
// ingest-to-estimate sample is one run a batch appended to a worker
// queue, timed from that append to the fold of the run's last event.
//
// --check turns the report into a gate: nonzero processed events, zero
// error frames, and processed == accepted (a tenant quota sheds before
// acceptance, never after, so a fold the workers skip fails it), or
// exit 1.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "netio/client.hpp"
#include "stream/trace_io.hpp"

namespace {

using namespace fluxfp;

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

constexpr const char* kUsage =
    "usage: fluxfp_loadgen ADDR --trace PATH [--connections M] "
    "[--tenants T]\n"
    "                      [--speed N] [--batch B] [--token T:TOK]... "
    "[--check]\n"
    "\n"
    "  ADDR              unix:/path/to.sock or tcp:HOST:PORT\n"
    "  --trace PATH      FLUXFPT1 trace to replay (required)\n"
    "  --connections M   concurrent client connections (default 4)\n"
    "  --tenants T       tenant count of the target server (default 1;\n"
    "                    M must be a multiple of T)\n"
    "  --speed N         replay speedup vs trace time (default 10;\n"
    "                    0 = as fast as the server accepts)\n"
    "  --batch B         events per EVENT_BATCH frame (default 64)\n"
    "  --token T:TOK     auth token for tenant T (repeatable)\n"
    "  --check           exit 1 unless the server processed >0 events,\n"
    "                    sent 0 error frames, and processed == accepted\n"
    "\n"
    "exit status: 0 ok, 1 runtime or --check failure, 2 usage error.\n";

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "fluxfp_loadgen: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
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

/// One connection's share of the replay and what came back for it.
struct ConnResult {
  std::uint64_t sent = 0;
  netio::BatchAckMsg acks;
  double max_behind = 0.0;
  bool ok = true;
  std::string error;
};

void run_connection(const netio::Endpoint& endpoint, std::uint32_t tenant,
                    std::uint64_t token,
                    const std::vector<stream::FluxEvent>& events,
                    double speed, double epoch_time, std::size_t batch_size,
                    ConnResult& out) {
  netio::Client client;
  if (!client.connect(endpoint, tenant, token)) {
    out.ok = false;
    out.error = client.last_error();
    return;
  }
  stream::ReplayPacer pacer(speed, epoch_time);
  std::vector<stream::FluxEvent> batch;
  batch.reserve(batch_size);
  auto flush = [&]() {
    if (batch.empty()) {
      return true;
    }
    netio::BatchAckMsg ack;
    if (!client.send_batch(batch, ack)) {
      out.ok = false;
      out.error = client.last_error();
      return false;
    }
    out.acks.accepted += ack.accepted;
    out.acks.shed += ack.shed;
    out.acks.unknown += ack.unknown;
    out.acks.foreign += ack.foreign;
    out.acks.closed += ack.closed;
    batch.clear();
    return true;
  };
  for (const stream::FluxEvent& event : events) {
    if (g_stop != 0 ||
        !pacer.pace(event.time, [] { return g_stop != 0; })) {
      break;
    }
    batch.push_back(event);
    ++out.sent;
    if (batch.size() >= batch_size && !flush()) {
      return;
    }
  }
  flush();
  out.max_behind = pacer.max_behind_seconds();
  if (out.ok) {
    client.goodbye();
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string addr;
  std::string trace_path;
  std::size_t connections = 4;
  std::size_t tenants = 1;
  double speed = 10.0;
  std::size_t batch_size = 64;
  bool check = false;
  std::map<std::uint32_t, std::uint64_t> tokens;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage_error(std::string(a) + " needs a value");
      }
      return argv[++i];
    };
    if (!std::strcmp(a, "--trace")) {
      trace_path = value();
    } else if (!std::strcmp(a, "--connections")) {
      connections = parse_u64(a, value());
    } else if (!std::strcmp(a, "--tenants")) {
      tenants = parse_u64(a, value());
    } else if (!std::strcmp(a, "--speed")) {
      speed = parse_f64(a, value());
    } else if (!std::strcmp(a, "--batch")) {
      batch_size = parse_u64(a, value());
    } else if (!std::strcmp(a, "--token")) {
      const std::string pair = value();
      const std::size_t colon = pair.find(':');
      if (colon == std::string::npos) {
        usage_error("--token needs TENANT:TOKEN, got '" + pair + "'");
      }
      tokens[static_cast<std::uint32_t>(
          parse_u64("--token tenant", pair.substr(0, colon)))] =
          parse_u64("--token value", pair.substr(colon + 1));
    } else if (!std::strcmp(a, "--check")) {
      check = true;
    } else if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (a[0] == '-') {
      usage_error(std::string("unknown flag '") + a + "'");
    } else if (addr.empty()) {
      addr = a;
    } else {
      usage_error(std::string("unexpected operand '") + a + "'");
    }
  }
  if (addr.empty()) {
    usage_error("ADDR operand is required");
  }
  if (trace_path.empty()) {
    usage_error("--trace is required");
  }
  if (connections == 0 || tenants == 0 || batch_size == 0) {
    usage_error("--connections/--tenants/--batch must be >= 1");
  }
  if (connections % tenants != 0) {
    usage_error("--connections must be a multiple of --tenants so the "
                "connection->tenant map matches the server's "
                "session->tenant map");
  }
  std::string why;
  const auto endpoint = netio::Endpoint::parse(addr, &why);
  if (!endpoint) {
    usage_error(why);
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  std::vector<stream::FluxEvent> events;
  try {
    events = stream::read_trace_file(trace_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fluxfp_loadgen: %s\n", e.what());
    return 1;
  }
  if (events.empty()) {
    std::fprintf(stderr, "fluxfp_loadgen: %s holds no events\n",
                 trace_path.c_str());
    return 1;
  }
  double epoch_time = events.front().time;
  for (const stream::FluxEvent& e : events) {
    epoch_time = std::min(epoch_time, e.time);
  }

  // Session-stable partition: all of user u rides connection u % M.
  std::vector<std::vector<stream::FluxEvent>> shares(connections);
  for (const stream::FluxEvent& e : events) {
    shares[e.user % connections].push_back(e);
  }

  std::printf("replaying %zu events from %s to %s\n", events.size(),
              trace_path.c_str(), endpoint->to_string().c_str());
  std::printf("%zu connections over %zu tenants, %.0fx speed, batch %zu\n",
              connections, tenants, speed, batch_size);

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<ConnResult> results(connections);
  {
    std::vector<std::thread> threads;
    threads.reserve(connections);
    for (std::size_t c = 0; c < connections; ++c) {
      const auto tenant = static_cast<std::uint32_t>(c % tenants);
      const auto it = tokens.find(tenant);
      const std::uint64_t token = it == tokens.end() ? 0 : it->second;
      threads.emplace_back(run_connection, std::cref(*endpoint), tenant,
                           token, std::cref(shares[c]), speed, epoch_time,
                           batch_size, std::ref(results[c]));
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  std::puts("\nconn  tenant     sent  accepted   shed  unknown  foreign  "
            "closed  lag-ms");
  netio::BatchAckMsg totals;
  std::uint64_t sent_total = 0;
  bool all_ok = true;
  for (std::size_t c = 0; c < connections; ++c) {
    const ConnResult& r = results[c];
    std::printf("%4zu  %6zu  %7llu  %8llu  %5llu  %7llu  %7llu  %6llu  "
                "%6.1f\n",
                c, c % tenants, static_cast<unsigned long long>(r.sent),
                static_cast<unsigned long long>(r.acks.accepted),
                static_cast<unsigned long long>(r.acks.shed),
                static_cast<unsigned long long>(r.acks.unknown),
                static_cast<unsigned long long>(r.acks.foreign),
                static_cast<unsigned long long>(r.acks.closed),
                1e3 * r.max_behind);
    sent_total += r.sent;
    totals.accepted += r.acks.accepted;
    totals.shed += r.acks.shed;
    totals.unknown += r.acks.unknown;
    totals.foreign += r.acks.foreign;
    totals.closed += r.acks.closed;
    if (!r.ok) {
      std::fprintf(stderr, "conn %zu failed: %s\n", c, r.error.c_str());
      all_ok = false;
    }
  }
  std::printf("\noffered %llu events in %.3fs (%.0f events/s aggregate)\n",
              static_cast<unsigned long long>(sent_total), wall,
              wall > 0.0 ? static_cast<double>(sent_total) / wall : 0.0);

  // The control connection quiesces the server, so the processed count and
  // latency samples below cover every batch accepted above.
  netio::Client control;
  netio::MetricsMsg m;
  const std::uint64_t control_token =
      tokens.empty() ? 0 : tokens.begin()->second;
  const std::uint32_t control_tenant =
      tokens.empty() ? 0 : tokens.begin()->first;
  if (!control.connect(*endpoint, control_tenant, control_token) ||
      !control.metrics(m)) {
    std::fprintf(stderr, "fluxfp_loadgen: metrics fetch failed: %s\n",
                 control.last_error().c_str());
    return 1;
  }
  control.goodbye();
  std::printf("server: %llu accepted, %llu processed, %llu shed, %llu "
              "foreign, %llu error frames, %llu restarts\n",
              static_cast<unsigned long long>(m.events_accepted),
              static_cast<unsigned long long>(m.events_processed),
              static_cast<unsigned long long>(m.events_shed),
              static_cast<unsigned long long>(m.events_foreign),
              static_cast<unsigned long long>(m.error_frames),
              static_cast<unsigned long long>(m.restarts));
  std::printf("ingest-to-estimate us: p50 %.0f  p99 %.0f  max %.0f "
              "(%llu samples)\n",
              m.ingest_p50_us, m.ingest_p99_us, m.ingest_max_us,
              static_cast<unsigned long long>(m.ingest_samples));

  if (check) {
    bool pass = all_ok;
    if (m.events_processed == 0) {
      std::fputs("check: FAIL — server processed no events\n", stderr);
      pass = false;
    }
    if (m.error_frames != 0) {
      std::fprintf(stderr, "check: FAIL — %llu error frames\n",
                   static_cast<unsigned long long>(m.error_frames));
      pass = false;
    }
    if (m.events_processed != m.events_accepted) {
      std::fprintf(stderr,
                   "check: FAIL — processed %llu != accepted %llu\n",
                   static_cast<unsigned long long>(m.events_processed),
                   static_cast<unsigned long long>(m.events_accepted));
      pass = false;
    }
    if (!pass) {
      return 1;
    }
    std::puts("check: PASS");
  }
  return all_ok ? 0 : 1;
}
