// Trace-driven demo (§5.C): a synthetic Dartmouth-style campus trace drives
// 20 mobile users who collect data asynchronously, each at its own times.
// The adversary runs the asynchronous-updating SMC tracker and reports the
// tracking error per user. Demonstrates the paper's key practical point:
// with asynchronous collections only a few users are active per window, so
// 20 coexisting users stay tractable.
//
// The windows are consumed through the streaming runtime: sniffer readings
// become a FluxEvent stream, recorded to an in-memory binary trace and
// folded back through a StreamTracker — the same estimates the batch loop
// produced, now from a record/replay pipeline.
//
// Run: ./campus_trace [seed]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "core/smc.hpp"
#include "eval/experiment.hpp"
#include "numeric/hungarian.hpp"
#include "numeric/stats.hpp"
#include "sim/scenario.hpp"
#include "sim/sniffer.hpp"
#include "stream/emit.hpp"
#include "stream/stream_tracker.hpp"
#include "stream/trace_io.hpp"
#include "trace/generator.hpp"
#include "trace/replay.hpp"

int main(int argc, char** argv) {
  using namespace fluxfp;
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;
  geom::Rng rng(seed);

  const geom::RectField field(30.0, 30.0);
  const net::UnitDiskGraph graph =
      eval::build_connected_network({}, field, rng);
  const core::FluxModel model(field,
                              eval::estimate_d_min(graph, field, rng));

  // 50 AP landmarks in a rectangular region; syslog-style association
  // trace; timeline compressed by 100 (as in §5.C).
  const auto aps = trace::grid_aps(field, 5, 10);
  // Figure 9 analogue: the AP landmark layout used as location references.
  std::puts("AP landmarks (Fig. 9 analogue, 50 APs in a rectangular "
            "region):");
  for (int row = 4; row >= 0; --row) {
    std::fputs("  ", stdout);
    for (int col = 0; col < 10; ++col) {
      std::printf("A%d%d ", row, col);
    }
    std::putchar('\n');
  }
  trace::TraceGenConfig gcfg;
  gcfg.num_users = 20;
  gcfg.duration = 40000.0;
  // Active segment of the records (§5.C intercepts segments): users
  // reassociate every few minutes, i.e. every few compressed windows.
  gcfg.median_dwell = 300.0;
  const trace::Trace tr = trace::generate_trace(aps, gcfg, rng);
  std::printf("trace: %zu association events across %zu users, %zu APs\n",
              tr.events.size(), tr.users().size(), tr.aps.size());

  const auto replayed = trace::replay_users(tr, {}, rng);
  std::vector<sim::SimUser> sim_users;
  for (const auto& u : replayed) {
    sim_users.push_back(u.sim);
  }

  sim::ScenarioConfig scfg;
  scfg.rounds = std::min(
      80, static_cast<int>(trace::compressed_end_time(replayed)) + 1);
  const auto observations = sim::run_scenario(graph, sim_users, scfg, rng);

  const auto sniffed = sim::sample_nodes_fraction(graph.size(), 0.10, rng);
  core::SmcConfig tcfg;
  tcfg.num_predictions = 600;

  // Streaming pipeline: emit each window's sniffer readings as events,
  // record the interleaved stream to an (in-memory) binary trace, then
  // fold the recording through one tracking session. All 20 users are
  // tracked jointly by the session — the window flux is shared evidence,
  // so the session is the sharding unit, not the user.
  const auto events = stream::scenario_events(graph, observations, sniffed,
                                              /*user=*/0);
  std::stringstream trace_buffer;
  stream::TraceRecorder recorder(trace_buffer);
  recorder.write(std::span<const stream::FluxEvent>(events));

  stream::StreamTrackerConfig stcfg;
  stcfg.smc = tcfg;
  stcfg.expected_readings = sniffed.size();
  stream::StreamTracker tracker(model, graph, sniffed, sim_users.size(),
                                stcfg, seed);
  std::vector<stream::EpochResult> fired;
  const auto replay_start = std::chrono::steady_clock::now();
  stream::TraceReplayer replayer(trace_buffer);
  stream::FluxEvent event;
  while (replayer.next(event)) {
    for (auto& r : tracker.on_event(event)) {
      fired.push_back(std::move(r));
    }
  }
  for (auto& r : tracker.flush()) {
    fired.push_back(std::move(r));
  }
  const double replay_seconds = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    replay_start)
                                    .count();
  std::printf("replayed %llu recorded events (%.0f events/s)\n",
              static_cast<unsigned long long>(replayer.read_count()),
              replay_seconds > 0.0
                  ? static_cast<double>(replayer.read_count()) /
                        replay_seconds
                  : 0.0);

  // Identity-free instant accuracy: per window, match the updated slots'
  // positions against the *active* users' true positions (min-cost
  // assignment). Flux alone cannot distinguish identities (Fig. 7(d)), so
  // this measures whether each detected collection is located correctly.
  auto identity_free_error = [](std::vector<geom::Vec2> est,
                                std::vector<geom::Vec2> truth) -> double {
    if (est.empty() || truth.empty()) {
      return -1.0;
    }
    if (est.size() > truth.size()) {
      std::swap(est, truth);
    }
    numeric::Matrix cost(est.size(), truth.size());
    for (std::size_t i = 0; i < est.size(); ++i) {
      for (std::size_t j = 0; j < truth.size(); ++j) {
        cost(i, j) = geom::distance(est[i], truth[j]);
      }
    }
    const auto assign = numeric::hungarian_assign(cost);
    return numeric::assignment_cost(cost, assign) /
           static_cast<double>(est.size());
  };

  std::vector<int> updates(sim_users.size(), 0);
  // Error at update instants (position known fresh) and against the whole
  // movement trajectory (§5.C scores calculated locations against the
  // user's movement trajectory).
  std::vector<std::vector<double>> update_errors(sim_users.size());
  std::vector<std::vector<double>> path_errors(sim_users.size());
  std::vector<double> window_errors;  // identity-free, per window
  int active_total = 0;
  for (const stream::EpochResult& res : fired) {
    const auto& obs = observations[res.epoch];
    std::vector<geom::Vec2> updated_est;
    std::vector<geom::Vec2> active_truth;
    for (std::size_t u = 0; u < sim_users.size(); ++u) {
      active_total += obs.active[u] ? 1 : 0;
      if (obs.active[u]) {
        active_truth.push_back(obs.true_positions[u]);
      }
      if (res.step.updated[u]) {
        ++updates[u];
        updated_est.push_back(res.estimates[u]);
        update_errors[u].push_back(
            geom::distance(res.estimates[u], obs.true_positions[u]));
      }
      if (updates[u] > 0) {
        path_errors[u].push_back(
            replayed[u].path.distance_to(res.estimates[u]));
      }
    }
    const double we = identity_free_error(updated_est, active_truth);
    if (we >= 0.0) {
      window_errors.push_back(we);
    }
  }
  std::printf("windows simulated: %d, avg active users per window: %.2f\n",
              scfg.rounds,
              static_cast<double>(active_total) / scfg.rounds);

  std::puts("\nuser        updates  err@update  err-to-trajectory");
  std::vector<double> upd_means;
  std::vector<double> path_means;
  for (std::size_t u = 0; u < sim_users.size(); ++u) {
    if (update_errors[u].empty()) {
      std::printf("%-10s  %7d  %10s  %17s\n", replayed[u].name.c_str(),
                  updates[u], "-", "-");
      continue;
    }
    const double upd = numeric::mean(update_errors[u]);
    const double pth = numeric::mean(path_errors[u]);
    upd_means.push_back(upd);
    path_means.push_back(pth);
    std::printf("%-10s  %7d  %10.2f  %17.2f\n", replayed[u].name.c_str(),
                updates[u], upd, pth);
  }
  if (!upd_means.empty()) {
    std::printf("\nper-slot error at update instants: %.2f (identities mix "
                "freely, cf. Fig. 7(d))\n",
                numeric::mean(upd_means));
    std::printf("identity-free per-window location error: %.2f\n",
                numeric::mean(window_errors));
    std::printf("mean distance to movement trajectory (the §5.C metric): "
                "%.2f (field diameter %.1f)\n",
                numeric::mean(path_means), field.diameter());
  }
  return 0;
}
