// The two stream workloads: a 16-session trace from the stream_daemon
// deployment recipe, replayed into a fresh in-process netio::Server on a
// Unix socket for every repetition.
//
//   ingest_max          closed loop: two tenant connections send 64-event
//                       batches, each waiting for its BATCH_ACK;
//   ingest_paced_reads  open loop: the same trace offered at a fixed
//                       40k events/s over two connections, while a reader
//                       sends QUERY_ESTIMATE 50 times a second (round-robin
//                       over sessions) and METRICS once a second.
//
// The traced run adds spans around Client::send_batch / query_estimate,
// a second in-process pass (wire codec, Supervisor::offer/quiesce with the
// server's configuration, single-threaded StreamTracker::on_event), and
// the SMC's candidate kernels at its 1,000-candidate block size.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <latch>
#include <memory>
#include <optional>
#include <thread>

#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include "core/flux_model.hpp"
#include "eval/experiment.hpp"
#include "geom/field.hpp"
#include "harness.hpp"
#include "netio/client.hpp"
#include "netio/server.hpp"
#include "netio/wire.hpp"
#include "numeric/parallel.hpp"
#include "sim/mobility.hpp"
#include "sim/scenario.hpp"
#include "sim/sniffer.hpp"
#include "stream/emit.hpp"
#include "stream/stream_tracker.hpp"
#include "stream/supervisor.hpp"
#include "workload_common.hpp"

namespace perfbench {
namespace {

using namespace fluxfp;

constexpr std::size_t kTenants = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kBatch = 64;
constexpr double kPacedEventsPerSecond = 40000.0;
constexpr double kQueriesPerSecond = 50.0;
constexpr double kMetricsPerSecond = 1.0;
constexpr std::size_t kReferenceSessions = 4;
constexpr std::size_t kSmcBlock = 1000;
/// A paced repetition whose generator (not the server) ran later than this
/// at its p99 is invalid: its latencies would describe the load generator.
constexpr double kMaxGeneratorLateSeconds = 0.010;

struct Sizes {
  std::size_t sessions;
  int rounds;
};

Sizes sizes_for(const Options& opts) {
  return opts.tiny ? Sizes{4, 6} : Sizes{16, 60};
}

/// The stream_daemon deployment: 20x20 RectField, default NetworkSpec,
/// 12% sniffers, all derived from the seed.
struct Deployment {
  geom::Rng rng;
  geom::RectField field;
  net::UnitDiskGraph graph;
  core::FluxModel model;
  std::vector<std::size_t> sniffed;

  explicit Deployment(std::uint64_t seed)
      : rng(seed),
        field(20.0, 20.0),
        graph(eval::build_connected_network({}, field, rng)),
        model(field, eval::estimate_d_min(graph, field, rng)),
        sniffed(sim::sample_nodes_fraction(graph.size(), 0.12, rng)) {}
};

/// The final estimate an in-process StreamTracker reaches on one session.
struct Reference {
  std::uint32_t user = 0;
  geom::Vec2 estimate;
  std::uint64_t epochs = 0;
  std::uint64_t events = 0;
  double time = 0.0;
};

/// First event of one (session, epoch) burst: the virtual time a reply can
/// report and the trace position whose due time starts its age.
struct Burst {
  double time = 0.0;
  std::uint32_t epoch = 0;
  std::size_t index = 0;
};

struct Inputs {
  std::uint64_t seed = 0;
  std::unique_ptr<Deployment> dep;
  stream::StreamTrackerConfig tracker_config;
  std::vector<stream::FluxEvent> events;
  std::vector<std::vector<geom::Vec2>> truths;  ///< [session][round]
  std::vector<std::vector<Burst>> bursts;       ///< [session], time order
  std::vector<Reference> reference;
  /// Trace positions per writer connection: connection c carries every
  /// event of the sessions of tenant c, in trace order.
  std::array<std::vector<std::size_t>, kTenants> shares;
  std::string digest;
};

stream::StreamTracker make_tracker(const Inputs& in, std::size_t s) {
  return stream::StreamTracker(in.dep->model, in.dep->graph, in.dep->sniffed,
                               1, in.tracker_config, in.seed + 500 * (s + 1));
}

Inputs build_inputs(const Options& opts) {
  const Sizes sz = sizes_for(opts);
  Inputs in;
  in.seed = opts.seed;
  in.dep = std::make_unique<Deployment>(opts.seed);
  in.tracker_config.expected_readings = in.dep->sniffed.size();

  std::vector<std::vector<stream::FluxEvent>> per_session;
  in.truths.resize(sz.sessions);
  for (std::size_t s = 0; s < sz.sessions; ++s) {
    geom::Rng srng(opts.seed + 1000 * (s + 1));
    sim::SimUser user;
    user.mobility = std::make_shared<sim::RandomWaypointMobility>(
        in.dep->field, 0.8, static_cast<double>(sz.rounds) + 1.0, srng);
    sim::ScenarioConfig scfg;
    scfg.rounds = sz.rounds;
    scfg.start_time = 0.13 * static_cast<double>(s);
    const auto obs = sim::run_scenario(in.dep->graph, {user}, scfg, srng);
    for (const auto& o : obs) {
      in.truths[s].push_back(o.true_positions[0]);
    }
    per_session.push_back(stream::scenario_events(
        in.dep->graph, obs, in.dep->sniffed, static_cast<std::uint32_t>(s)));
  }
  in.events = stream::merge_by_time(per_session);

  in.bursts.resize(sz.sessions);
  Digest digest;
  for (std::size_t i = 0; i < in.events.size(); ++i) {
    const stream::FluxEvent& e = in.events[i];
    in.shares[e.user % kTenants].push_back(i);
    auto& b = in.bursts[e.user];
    if (b.empty() || b.back().epoch != e.epoch) {
      b.push_back({e.time, e.epoch, i});
    }
    digest.add_value(e.time);
    digest.add_value(e.user);
    digest.add_value(e.epoch);
    digest.add_value(e.node);
    digest.add_value(e.reading);
  }
  for (const std::size_t n : in.dep->sniffed) {
    digest.add_value(n);
  }

  // Reference pass over a seeded sample of sessions, single-threaded.
  geom::Rng pick(eval::derive_seed(opts.seed, {0x7265ull}));
  std::vector<std::size_t> order(sz.sessions);
  for (std::size_t s = 0; s < sz.sessions; ++s) {
    order[s] = s;
  }
  std::shuffle(order.begin(), order.end(), pick);
  order.resize(std::min(kReferenceSessions, sz.sessions));
  std::sort(order.begin(), order.end());
  const numeric::SerialRegionGuard serial;
  for (const std::size_t s : order) {
    stream::StreamTracker tracker = make_tracker(in, s);
    for (const stream::FluxEvent& e : in.events) {
      if (e.user == s) {
        tracker.on_event(e);
      }
    }
    Reference r;
    r.user = static_cast<std::uint32_t>(s);
    r.estimate = tracker.estimate(0);
    r.epochs = tracker.stats().epochs_fired;
    r.events = tracker.stats().events;
    r.time = tracker.now();
    in.reference.push_back(r);
  }
  if (opts.corrupt_reference && !in.reference.empty()) {
    in.reference[0].estimate.x =
        std::nextafter(in.reference[0].estimate.x, 1e300);
  }
  in.digest = digest.hex();
  return in;
}

stream::Supervisor::ManagerFactory make_factory(const Inputs& in) {
  return [&in]() {
    stream::ManagerConfig mcfg;  // kBlock, no quota: the shipped defaults
    mcfg.workers = kWorkers;
    auto m = std::make_unique<stream::TrackerManager>(mcfg);
    for (std::size_t s = 0; s < in.truths.size(); ++s) {
      stream::SessionOptions o;
      o.tenant = static_cast<std::uint32_t>(s % kTenants);
      o.priority = static_cast<std::uint32_t>(s);
      m->add_session(static_cast<std::uint32_t>(s), make_tracker(in, s), o);
    }
    return m;
  };
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// What one repetition measured.
struct Rep {
  bool valid = true;
  double start_s = 0.0;  ///< server start (counted in setup_s)
  double wall_s = 0.0;   ///< first send -> quiesced METRICS reply
  double cpu_s = 0.0;    ///< process CPU over the same interval
  double steal = 0.0;    ///< share of the machine's CPU time stolen
  std::uint64_t events = 0;
  std::uint64_t checkpoints = 0;
  Clock::time_point begin;
  Clock::time_point end;
  std::vector<double> ack_us;
  std::vector<double> rtt_us;  ///< send -> BATCH_ACK, without any wait
  std::vector<double> query_us;
  std::vector<double> metrics_us;
  std::vector<double> age_ms;
  std::vector<double> read_err;
  std::vector<double> late_ms;  ///< generator lag per request
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return 1e3 * seconds_between(a, b);
}

/// Busy-waiting SCHED_IDLE threads, one per CPU, that keep every CPU out of
/// its idle state during the paced workload. On the reference VM a thread
/// woken on an idle CPU starts about 0.45 ms late (the hypervisor's idle
/// exit), and whether CPUs idle deeply changed from run to run: paced ack
/// latency switched between ~1 ms and ~0.2 ms modes. With the CPUs kept
/// busy it measures the service's request path. SCHED_IDLE threads run
/// only when nothing else is runnable and are preempted at once by any
/// wakeup; their CPU time is tracked so it can be left out of
/// cpu_us_per_op.
class IdleSpinners {
 public:
  explicit IdleSpinners(unsigned count)
      : cpu_ns_(std::make_unique<std::atomic<std::int64_t>[]>(count)),
        count_(count) {
    for (unsigned i = 0; i < count; ++i) {
      threads_.emplace_back([this, i] { spin(i); });
    }
  }
  ~IdleSpinners() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) {
      t.join();
    }
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

  /// CPU seconds the spinners have used so far (each updates its own count
  /// about every 0.1 ms).
  double cpu_seconds() const {
    std::int64_t ns = 0;
    for (unsigned i = 0; i < count_; ++i) {
      ns += cpu_ns_[i].load(std::memory_order_relaxed);
    }
    return 1e-9 * static_cast<double>(ns);
  }
  /// False when the platform refused SCHED_IDLE (the spinners then exit
  /// rather than compete with the service at normal priority).
  bool active() const { return !refused_.load(std::memory_order_relaxed); }

 private:
  void spin(unsigned i) {
    sched_param param{};
    if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
      refused_.store(true, std::memory_order_relaxed);
      return;
    }
    while (!stop_.load(std::memory_order_relaxed)) {
      for (int k = 0; k < 1024; ++k) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
      timespec ts{};
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
      cpu_ns_[i].store(static_cast<std::int64_t>(ts.tv_sec) * 1000000000 +
                           ts.tv_nsec,
                       std::memory_order_relaxed);
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<bool> refused_{false};
  std::unique_ptr<std::atomic<std::int64_t>[]> cpu_ns_;
  unsigned count_;
  std::vector<std::thread> threads_;  // last: the threads use the above
};

class StreamBench {
 public:
  StreamBench(const Options& opts, bool paced, Report& report)
      : opts_(opts), paced_(paced), report_(report), tracer_(opts.trace) {
    send_id_ = tracer_.name_id("netio.send_batch");
    query_id_ = tracer_.name_id("netio.query");
  }

  void run();

 private:
  Rep repetition(const Inputs& in, bool traced, int index);
  void writer(const Inputs& in, const netio::Endpoint& ep, std::size_t conn,
              std::latch& connected, std::latch& go,
              const Clock::time_point& start, bool traced, Rep& rep,
              std::mutex& rep_mu);
  void reader(const Inputs& in, const netio::Endpoint& ep,
              std::latch& connected, std::latch& go,
              const Clock::time_point& start,
              const std::atomic<bool>& writers_done, bool traced, Rep& rep,
              std::mutex& rep_mu);
  void in_process_pass(const Inputs& in, std::map<std::string, Measured>& m);
  void single_thread_pass(const Inputs& in,
                          std::map<std::string, Measured>& m);
  Clock::time_point due(Clock::time_point start, std::size_t index) const {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(index) /
                           kPacedEventsPerSecond));
  }
  void check(bool ok, const std::string& why) {
    if (ok) {
      report_.op(true);
    } else {
      report_.check_failed(why);
    }
  }

  const Options& opts_;
  bool paced_;
  Report& report_;
  Tracer tracer_;
  std::uint32_t send_id_;
  std::uint32_t query_id_;
  /// Present while the paced workload's repetitions run.
  std::unique_ptr<IdleSpinners> spinners_;
};

void StreamBench::writer(const Inputs& in, const netio::Endpoint& ep,
                         std::size_t conn, std::latch& connected,
                         std::latch& go, const Clock::time_point& start,
                         bool traced, Rep& rep, std::mutex& rep_mu) {
  netio::Client client;
  const bool up = client.connect(ep, static_cast<std::uint32_t>(conn));
  connected.count_down();
  go.wait();
  if (!up) {
    check(false, "writer connect: " + client.last_error());
    return;
  }
  Tracer::Buffer* buf = traced ? &tracer_.buffer() : nullptr;
  const std::vector<std::size_t>& share = in.shares[conn];
  std::vector<stream::FluxEvent> batch;
  batch.reserve(kBatch);
  std::vector<double> ack_us;
  std::vector<double> rtt_us;
  std::vector<double> late_ms;
  Clock::time_point prev_done = start;
  for (std::size_t k = 0; k < share.size(); k += kBatch) {
    const std::size_t hi = std::min(share.size(), k + kBatch);
    batch.clear();
    for (std::size_t j = k; j < hi; ++j) {
      batch.push_back(in.events[share[j]]);
    }
    // Open loop: the batch is due when its last event is due.
    const Clock::time_point due_at = paced_ ? due(start, share[hi - 1]) : start;
    if (paced_) {
      std::this_thread::sleep_until(due_at);
    }
    const Clock::time_point sent = Clock::now();
    late_ms.push_back(
        std::max(0.0, ms_between(paced_ ? std::max(due_at, prev_done)
                                        : prev_done,
                                 sent)));
    netio::BatchAckMsg ack;
    bool ok = false;
    {
      const ScopedSpan span(tracer_, buf, send_id_, k);
      ok = client.send_batch(batch, ack);
    }
    const Clock::time_point done = Clock::now();
    ack_us.push_back(1e6 * seconds_between(paced_ ? due_at : sent, done));
    rtt_us.push_back(1e6 * seconds_between(sent, done));
    prev_done = done;
    if (!ok) {
      check(false, "send_batch: " + client.last_error());
      return;
    }
    check(ack.accepted == batch.size() && ack.shed == 0 &&
              ack.unknown == 0 && ack.foreign == 0 && ack.closed == 0,
          "BATCH_ACK did not accept every record");
  }
  client.goodbye();
  const std::lock_guard<std::mutex> lock(rep_mu);
  rep.ack_us.insert(rep.ack_us.end(), ack_us.begin(), ack_us.end());
  rep.rtt_us.insert(rep.rtt_us.end(), rtt_us.begin(), rtt_us.end());
  rep.late_ms.insert(rep.late_ms.end(), late_ms.begin(), late_ms.end());
}

void StreamBench::reader(const Inputs& in, const netio::Endpoint& ep,
                         std::latch& connected, std::latch& go,
                         const Clock::time_point& start,
                         const std::atomic<bool>& writers_done, bool traced,
                         Rep& rep, std::mutex& rep_mu) {
  // The query fields are the reader's alone; late_ms is shared with the
  // writers and merged under rep_mu once the reader is done.
  // One connection per tenant, so the round-robin covers every session.
  std::array<netio::Client, kTenants> clients;
  bool up = true;
  for (std::size_t t = 0; t < kTenants; ++t) {
    up = up && clients[t].connect(ep, static_cast<std::uint32_t>(t));
  }
  connected.count_down();
  go.wait();
  if (!up) {
    check(false, "reader connect failed");
    return;
  }
  Tracer::Buffer* buf = traced ? &tracer_.buffer() : nullptr;
  const std::size_t sessions = in.truths.size();
  std::size_t queries = 0;
  std::size_t scrapes = 1;  // the first METRICS is due one second in
  std::vector<double> late_ms;
  Clock::time_point prev_done = start;
  while (true) {
    const Clock::time_point due_q =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        static_cast<double>(queries) / kQueriesPerSecond));
    const Clock::time_point due_m =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        static_cast<double>(scrapes) / kMetricsPerSecond));
    const bool is_query = due_q <= due_m;
    const Clock::time_point due_at = is_query ? due_q : due_m;
    std::this_thread::sleep_until(due_at);
    if (writers_done.load(std::memory_order_acquire)) {
      break;
    }
    const Clock::time_point sent = Clock::now();
    late_ms.push_back(
        std::max(0.0, ms_between(std::max(due_at, prev_done), sent)));
    if (is_query) {
      const auto user = static_cast<std::uint32_t>(queries % sessions);
      netio::EstimateMsg est;
      bool ok = false;
      {
        const ScopedSpan span(tracer_, buf, query_id_, queries);
        ok = clients[user % kTenants].query_estimate(user, est);
      }
      const Clock::time_point done = Clock::now();
      prev_done = done;
      rep.query_us.push_back(1e6 * seconds_between(due_at, done));
      check(ok && !est.estimates.empty(),
            "QUERY_ESTIMATE failed: " +
                clients[user % kTenants].last_error());
      if (!ok) {
        break;
      }
      if (est.epochs_fired > 0) {
        const auto& bursts = in.bursts[user];
        const auto it = std::lower_bound(
            bursts.begin(), bursts.end(), est.time,
            [](const Burst& b, double t) { return b.time < t; });
        if (it != bursts.end() && it->time == est.time) {
          rep.age_ms.push_back(ms_between(due(start, it->index), done));
          rep.read_err.push_back(geom::distance(
              est.estimates[0], in.truths[user][it->epoch]));
        }
      }
      ++queries;
    } else {
      netio::MetricsMsg m;
      const bool ok = clients[0].metrics(m);
      const Clock::time_point done = Clock::now();
      prev_done = done;
      rep.metrics_us.push_back(1e6 * seconds_between(due_at, done));
      check(ok && m.error_frames == 0, "METRICS failed or saw error frames");
      if (!ok) {
        break;
      }
      ++scrapes;
    }
  }
  for (netio::Client& c : clients) {
    c.goodbye();
  }
  const std::lock_guard<std::mutex> lock(rep_mu);
  rep.late_ms.insert(rep.late_ms.end(), late_ms.begin(), late_ms.end());
}

Rep StreamBench::repetition(const Inputs& in, bool traced, int index) {
  Rep rep;
  netio::ServerConfig ncfg;
  ncfg.endpoint.kind = netio::Endpoint::Kind::kUnix;
  ncfg.endpoint.path = opts_.socket_dir + "/perfbench-" +
                       std::to_string(::getpid()) + "-" +
                       std::to_string(index) + ".sock";
  // Shipped supervision defaults: epoch-cadence checkpoints every 32.
  netio::Server server(make_factory(in), stream::SupervisorConfig{}, ncfg);
  const Clock::time_point t0 = Clock::now();
  server.start();
  rep.start_s = seconds_between(t0, Clock::now());
  const netio::Endpoint ep = server.endpoint();

  const std::ptrdiff_t parties =
      static_cast<std::ptrdiff_t>(kTenants + (paced_ ? 1 : 0));
  std::latch connected(parties);
  std::latch go(1);
  Clock::time_point start;
  std::mutex rep_mu;
  std::atomic<bool> writers_done{false};
  std::vector<std::thread> writers;
  for (std::size_t c = 0; c < kTenants; ++c) {
    writers.emplace_back([&, c] {
      writer(in, ep, c, connected, go, start, traced, rep, rep_mu);
    });
  }
  std::thread read_thread;
  if (paced_) {
    read_thread = std::thread([&] {
      reader(in, ep, connected, go, start, writers_done, traced, rep, rep_mu);
    });
  }
  // Control connections for the closing METRICS and the correctness reads,
  // opened before the clock starts.
  std::array<netio::Client, kTenants> control;
  bool up = true;
  for (std::size_t t = 0; t < kTenants; ++t) {
    up = up && control[t].connect(ep, static_cast<std::uint32_t>(t));
  }
  connected.wait();
  const double spin0 = spinners_ ? spinners_->cpu_seconds() : 0.0;
  const double cpu0 = process_cpu_seconds();
  const HostCpuTicks ticks0 = host_cpu_ticks();
  start = Clock::now();
  go.count_down();
  for (std::thread& t : writers) {
    t.join();
  }
  writers_done.store(true, std::memory_order_release);
  if (read_thread.joinable()) {
    read_thread.join();
  }

  // The quiesced METRICS reply closes the interval: every accepted event
  // has been folded when it arrives.
  netio::MetricsMsg m;
  const bool got = up && control[0].metrics(m);
  rep.end = Clock::now();
  rep.begin = start;
  rep.wall_s = seconds_between(start, rep.end);
  rep.cpu_s = process_cpu_seconds() - cpu0 -
              (spinners_ ? spinners_->cpu_seconds() - spin0 : 0.0);
  rep.steal = steal_share(ticks0, host_cpu_ticks());
  rep.events = m.events_processed;
  rep.checkpoints = m.checkpoints;
  check(got, "control METRICS failed");
  check(m.events_accepted == in.events.size(),
        "accepted " + std::to_string(m.events_accepted) + " of " +
            std::to_string(in.events.size()) + " events");
  check(m.events_processed == m.events_accepted,
        "processed " + std::to_string(m.events_processed) + " != accepted " +
            std::to_string(m.events_accepted));
  check(m.error_frames == 0 && m.events_shed == 0 && m.events_unknown == 0 &&
            m.events_foreign == 0,
        "error frames or shed/unknown/foreign records");

  // kBlock determinism (DESIGN.md section 10): the service's final
  // estimate of every sampled session is bit-equal to an in-process
  // tracker fed that session's events.
  Tracer::Buffer* buf = traced ? &tracer_.buffer() : nullptr;
  for (const Reference& ref : in.reference) {
    netio::EstimateMsg est;
    bool ok = false;
    {
      const ScopedSpan span(tracer_, buf, query_id_, ref.user);
      ok = up && control[ref.user % kTenants].query_estimate(ref.user, est);
    }
    check(ok && est.estimates.size() == 1 &&
              same_bits(est.estimates[0].x, ref.estimate.x) &&
              same_bits(est.estimates[0].y, ref.estimate.y) &&
              est.epochs_fired == ref.epochs &&
              est.events_folded == ref.events && same_bits(est.time, ref.time),
          "session " + std::to_string(ref.user) +
              ": served estimate differs from the in-process reference");
  }
  for (netio::Client& c : control) {
    c.goodbye();
  }
  server.stop();
  if (paced_ &&
      percentile(rep.late_ms, 0.99) > 1e3 * kMaxGeneratorLateSeconds) {
    rep.valid = false;
  }
  return rep;
}

void StreamBench::in_process_pass(const Inputs& in,
                                  std::map<std::string, Measured>& m) {
  const std::uint32_t encode_id = tracer_.name_id("netio.encode_batch");
  const std::uint32_t decode_id = tracer_.name_id("netio.decode_batch");
  const std::uint32_t offer_id = tracer_.name_id("stream.offer");
  const std::uint32_t quiesce_id = tracer_.name_id("stream.quiesce");
  const std::uint32_t pass_id = tracer_.name_id("pass.in_process");
  Tracer::Buffer& buf = tracer_.buffer();
  // The reader's cadence in events: a quiesce per 800 offers when paced,
  // only the final one on ingest_max (which has no reads).
  const std::size_t quiesce_every =
      paced_ ? static_cast<std::size_t>(kPacedEventsPerSecond /
                                        kQueriesPerSecond)
             : 0;
  stream::Supervisor sup(make_factory(in), stream::SupervisorConfig{});
  sup.start();
  const netio::WireLimits limits;
  std::vector<stream::FluxEvent> decoded;
  std::vector<double> boundary_us;
  std::size_t offered = 0;
  {
    const ScopedSpan pass(tracer_, &buf, pass_id);
    for (std::size_t k = 0; k < in.events.size(); k += kBatch) {
      const std::size_t n = std::min(kBatch, in.events.size() - k);
      std::string payload;
      {
        const ScopedSpan span(tracer_, &buf, encode_id, k);
        payload = netio::encode_event_batch(
            std::span<const stream::FluxEvent>(in.events.data() + k, n));
      }
      bool decoded_ok = false;
      {
        const ScopedSpan span(tracer_, &buf, decode_id, k);
        decoded_ok = !netio::decode_event_batch(payload, limits, decoded);
      }
      check(decoded_ok && decoded.size() == n, "decode_event_batch failed");
      for (const stream::FluxEvent& e : decoded) {
        const std::uint64_t before = sup.stats().checkpoints;
        stream::PushStatus status;
        {
          const ScopedSpan span(tracer_, &buf, offer_id, k);
          status = sup.offer(e);
        }
        if (sup.stats().checkpoints != before) {
          const Tracer::Span& s = buf.spans.back();
          boundary_us.push_back(1e6 * seconds_between(s.start, s.end));
        }
        if (status != stream::PushStatus::kAccepted) {
          check(false, "Supervisor::offer did not accept an event");
        }
        ++offered;
        if (quiesce_every != 0 && offered % quiesce_every == 0) {
          const ScopedSpan span(tracer_, &buf, quiesce_id, offered);
          sup.quiesce();
        }
      }
    }
    const ScopedSpan span(tracer_, &buf, quiesce_id, offered);
    sup.quiesce();
  }
  const stream::SupervisorStats stats = sup.stats();
  sup.finish();

  const auto enc = tracer_.durations_us("netio.encode_batch");
  const auto dec = tracer_.durations_us("netio.decode_batch");
  const auto off = tracer_.durations_us("stream.offer");
  const auto qui = tracer_.durations_us("stream.quiesce");
  m["netio.encode_batch_us.p50"] = {median(enc), enc.size()};
  m["netio.decode_batch_us.p50"] = {median(dec), dec.size()};
  m["stream.offer_us.p50"] = {median(off), off.size()};
  m["stream.offer_us.p99"] = {percentile(off, 0.99), off.size()};
  m["stream.boundaries"] = {static_cast<double>(boundary_us.size()),
                            boundary_us.size()};
  m["stream.boundary_us.p50"] = {median(boundary_us), boundary_us.size()};
  m["stream.boundary_us.max"] = {percentile(boundary_us, 1.0),
                                 boundary_us.size()};
  m["stream.checkpoint_bytes"] = {static_cast<double>(stats.checkpoint_bytes),
                                  1};
  m["stream.quiesce_us.p50"] = {median(qui), qui.size()};
  m["stream.quiesce_us.p99"] = {percentile(qui, 0.99), qui.size()};
}

void StreamBench::single_thread_pass(const Inputs& in,
                                     std::map<std::string, Measured>& m) {
  const numeric::SerialRegionGuard serial;
  const std::uint32_t on_event_id = tracer_.name_id("stream.on_event");
  Tracer::Buffer& buf = tracer_.buffer();
  std::vector<stream::StreamTracker> trackers;
  for (std::size_t s = 0; s < in.truths.size(); ++s) {
    trackers.push_back(make_tracker(in, s));
  }
  std::vector<double> fold_us;
  std::vector<double> epoch_us;
  std::uint64_t epochs = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < in.events.size(); ++i) {
    const stream::FluxEvent& e = in.events[i];
    std::size_t fired = 0;
    {
      const ScopedSpan span(tracer_, &buf, on_event_id, i);
      fired = trackers[e.user].on_event(e).size();
    }
    const Tracer::Span& s = buf.spans.back();
    (fired == 0 ? fold_us : epoch_us)
        .push_back(1e6 * seconds_between(s.start, s.end));
    epochs += fired;
  }
  const double wall = seconds_between(t0, Clock::now());
  m["stream.fold_us.p50"] = {median(fold_us), fold_us.size()};
  m["stream.epoch_us.p50"] = {median(epoch_us), epoch_us.size()};
  m["stream.epoch_us.p99"] = {percentile(epoch_us, 0.99), epoch_us.size()};
  m["stream.epochs"] = {static_cast<double>(epochs), epoch_us.size()};
  m["stream.single_thread_events_per_s"] = {
      static_cast<double>(in.events.size()) / wall, in.events.size()};
}

void StreamBench::run() {
  // Setup, repeated: deployment, trace, reference pass. Every repeat must
  // reproduce the same inputs (same digest) from the seed.
  std::vector<double> build_s;
  std::optional<Inputs> in;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const Clock::time_point t0 = Clock::now();
    Inputs next = build_inputs(opts_);
    build_s.push_back(seconds_between(t0, Clock::now()));
    if (!in) {
      in.emplace(std::move(next));
    } else {
      check(next.digest == in->digest, "setup is not deterministic");
    }
  }
  std::filesystem::create_directories(opts_.socket_dir);
  report_.note("inputs seed=" + std::to_string(opts_.seed) +
               " trace_digest=" + in->digest + " events=" +
               std::to_string(in->events.size()) + " sessions=" +
               std::to_string(in->truths.size()) + " sniffers=" +
               std::to_string(in->dep->sniffed.size()) +
               " reference_sessions=" + std::to_string(in->reference.size()));

  // Fresh server per repetition until the measuring window is spent. A
  // traced run alternates untraced and traced repetitions so it can state
  // its own tracing overhead. The first repetition only warms the process
  // (allocator, page cache, thread start-up) and is left out; its
  // correctness checks still count.
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  double measured = 0.0;
  if (paced_) {
    spinners_ = std::make_unique<IdleSpinners>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  repetition(*in, false, 0);
  for (int i = 1; measured < opts_.seconds || (opts_.trace && traced.empty());
       ++i) {
    const bool t = opts_.trace && (i % 2 == 0);
    Rep rep = repetition(*in, t, i);
    measured += rep.wall_s;
    (t ? traced : plain).push_back(std::move(rep));
  }
  if (spinners_) {
    report_.note(spinners_->active()
                     ? "idle spinners: active (SCHED_IDLE, one per CPU)"
                     : "idle spinners: SCHED_IDLE refused, CPUs may idle");
    spinners_.reset();
  }

  auto valid = [](const std::vector<Rep>& reps) {
    std::vector<const Rep*> out;
    for (const Rep& r : reps) {
      if (r.valid) {
        out.push_back(&r);
      }
    }
    return out;
  };
  auto per_rep = [](const std::vector<const Rep*>& reps, auto&& f) {
    std::vector<double> v;
    for (const Rep* r : reps) {
      v.push_back(f(*r));
    }
    return v;
  };
  auto pooled = [](const std::vector<const Rep*>& reps, auto member) {
    std::vector<double> v;
    for (const Rep* r : reps) {
      v.insert(v.end(), (r->*member).begin(), (r->*member).end());
    }
    return v;
  };
  auto steal_of = [](const Rep* r) { return r->steal; };
  const auto all_valid = valid(plain);
  const std::size_t invalid = plain.size() - all_valid.size();
  report_.note("repetitions " + std::to_string(plain.size()) + " untraced (" +
               std::to_string(invalid) + " invalid: generator behind), " +
               std::to_string(traced.size()) + " traced");
  const auto good = least_stolen(all_valid, steal_of);
  if (good.empty()) {
    report_.check_failed(
        "INVALID RUN: the load generator's p99 lag exceeded " +
        std::to_string(1e3 * kMaxGeneratorLateSeconds) +
        " ms in every repetition; the numbers describe the generator");
    return;
  }
  const double events_per_s = median(per_rep(good, [](const Rep& r) {
    return static_cast<double>(r.events) / r.wall_s;
  }));
  const auto late = pooled(all_valid, &Rep::late_ms);

  if (!opts_.trace) {
    std::vector<double> starts;
    for (const Rep& r : plain) {
      starts.push_back(r.start_s);
    }
    const double setup_s = median(build_s) + median(starts);
    const double cpu_us = median(per_rep(good, [](const Rep& r) {
      return 1e6 * r.cpu_s / static_cast<double>(r.events);
    }));
    const double ack_p50 = median(per_rep(
        good, [](const Rep& r) { return median(r.ack_us); }));
    const double q_ack = supported_tail_quantile(good[0]->ack_us.size());
    const double ack_tail = median(per_rep(
        good, [&](const Rep& r) { return percentile(r.ack_us, q_ack); }));
    const std::size_t acks = pooled(good, &Rep::ack_us).size();
    std::string tails = "per-repetition steal share / ack " +
                        quantile_label(q_ack) + " us (* = counted):";
    for (const Rep* r : all_valid) {
      const bool counted = std::find(good.begin(), good.end(), r) != good.end();
      char cell[48];
      std::snprintf(cell, sizeof(cell), " %.3f/%.0f%s", r->steal,
                    percentile(r->ack_us, q_ack), counted ? "*" : "");
      tails += cell;
    }
    report_.note(tails);
    std::map<std::string, Measured> e2e;
    e2e["setup_s"] = {setup_s, build_s.size()};
    e2e["throughput_per_s"] = {events_per_s, good.size()};
    e2e["cpu_us_per_op"] = {cpu_us, good.size()};
    e2e["latency_p50_us"] = {ack_p50, acks};
    e2e["latency_tail_us"] = {ack_tail, acks};
    emit_end_to_end(report_, e2e);
    report_.note("gated figures are medians over the " +
                 std::to_string(good.size()) + " least-stolen of " +
                 std::to_string(all_valid.size()) +
                 " valid repetitions; latency_* are BATCH_ACK latency, "
                 "latency_tail_us is the " +
                 quantile_label(q_ack));

    report_.metric("events_per_s", events_per_s, "1/s", good.size(), false);
    report_.metric("cpu_us_per_event", cpu_us, "us", good.size(), false);
    report_.metric("ack_p50_us", ack_p50, "us", acks, false);
    report_.metric("ack_" + quantile_label(q_ack) + "_us", ack_tail, "us", acks,
                   false);
    const auto rtt = pooled(good, &Rep::rtt_us);
    report_.metric("ack_rtt_p50_us", median(rtt), "us", rtt.size(), false);
    report_.metric("ack_rtt_p99_us", percentile(rtt, 0.99), "us", rtt.size(),
                   false);
    report_.metric("checkpoints_per_rep",
                   median(per_rep(good,
                                  [](const Rep& r) {
                                    return static_cast<double>(r.checkpoints);
                                  })),
                   "count", good.size(), false);
    report_.metric(
        "host_steal_share",
        median(per_rep(all_valid, [](const Rep& r) { return r.steal; })),
        "share", all_valid.size(), false);
    if (paced_) {
      const auto q = pooled(good, &Rep::query_us);
      const auto age = pooled(good, &Rep::age_ms);
      const auto err = pooled(good, &Rep::read_err);
      const double qq = supported_tail_quantile(q.size());
      const double qa = supported_tail_quantile(age.size());
      report_.metric("query_p50_us", median(q), "us", q.size(), false);
      report_.metric("query_" + quantile_label(qq) + "_us", percentile(q, qq),
                     "us", q.size(), false);
      report_.metric("estimate_age_p50_ms", median(age), "ms", age.size(),
                     false);
      report_.metric("estimate_age_" + quantile_label(qa) + "_ms",
                     percentile(age, qa), "ms", age.size(), false);
      double sum = 0.0;
      for (const double e : err) {
        sum += e;
      }
      report_.metric("read_err_mean", err.empty() ? 0.0 : sum / err.size(),
                     "field_units", err.size(), false);
      const auto mq = pooled(good, &Rep::metrics_us);
      report_.metric("metrics_p50_us", median(mq), "us", mq.size(), false);
    }
    report_.metric("gen.late_ms.p99", percentile(late, 0.99), "ms",
                   late.size(), false);
    report_.metric("gen.late_ms.max", percentile(late, 1.0), "ms",
                   late.size(), false);
    return;
  }

  // Traced run: per-layer metrics only.
  const auto tgood = least_stolen(valid(traced), steal_of);
  std::map<std::string, Measured> m;
  const auto send = tracer_.durations_us("netio.send_batch");
  const auto query = tracer_.durations_us("netio.query");
  m["netio.send_batch_us.p50"] = {median(send), send.size()};
  m["netio.send_batch_us.p99"] = {percentile(send, 0.99), send.size()};
  m["netio.query_us.p50"] = {median(query), query.size()};
  m["netio.query_us.p99"] = {percentile(query, 0.99), query.size()};
  const auto tlate = pooled(tgood, &Rep::late_ms);
  m["gen.late_ms.p99"] = {percentile(tlate, 0.99), tlate.size()};
  m["gen.late_ms.max"] = {percentile(tlate, 1.0), tlate.size()};
  const double traced_events_per_s =
      tgood.empty() ? 0.0 : median(per_rep(tgood, [](const Rep& r) {
        return static_cast<double>(r.events) / r.wall_s;
      }));
  m["trace.ops_per_s"] = {traced_events_per_s, tgood.size()};
  m["trace.overhead_share"] = {1.0 - traced_events_per_s / events_per_s,
                               tgood.size()};

  // Coverage over the traced wall time: the traced repetitions plus the
  // in-process pass.
  double covered = 0.0;
  double wall = 0.0;
  for (const Rep* r : tgood) {
    const double w = seconds_between(r->begin, r->end);
    covered += tracer_.coverage(r->begin, r->end) * w;
    wall += w;
  }
  const Clock::time_point p0 = Clock::now();
  in_process_pass(*in, m);
  const Clock::time_point p1 = Clock::now();
  covered += tracer_.coverage(p0, p1) * seconds_between(p0, p1);
  wall += seconds_between(p0, p1);
  m["trace.coverage"] = {wall > 0.0 ? covered / wall : 0.0, tgood.size() + 1};

  single_thread_pass(*in, m);
  const auto [shape, evals] =
      kernel_probe(in->dep->model, in->dep->graph, in->dep->field,
                   in->dep->sniffed, kSmcBlock, opts_.seed, tracer_);
  m["core.shape_columns_us"] = shape;
  m["core.evaluate_batch_us"] = evals;
  emit_per_layer(report_, m);
  report_.metric("events_per_s.untraced", events_per_s, "1/s", good.size(),
                 false);
  report_.metric("events_per_s.traced", traced_events_per_s, "1/s",
                 tgood.size(), false);
}

}  // namespace

void run_stream_workload(const Options& opts, bool paced, Report& report) {
  StreamBench(opts, paced, report).run();
}

}  // namespace perfbench
