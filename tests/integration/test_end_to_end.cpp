// End-to-end integration tests: real network simulation -> passive sniffing
// -> NLS localization / SMC tracking, i.e. the full attack pipeline the
// paper describes, on reduced problem sizes to keep test runtime modest.
#include <gtest/gtest.h>

#include "core/localizer.hpp"
#include "core/smc.hpp"
#include "eval/experiment.hpp"
#include "net/routing.hpp"
#include "eval/metrics.hpp"
#include "sim/packet_sim.hpp"
#include "sim/scenario.hpp"
#include "sim/sniffer.hpp"
#include "trace/generator.hpp"
#include "trace/replay.hpp"

namespace fluxfp {
namespace {

struct Pipeline {
  geom::RectField field{30.0, 30.0};
  net::UnitDiskGraph graph;
  core::FluxModel model;

  explicit Pipeline(std::uint64_t seed)
      : graph(build(seed)), model(field, 1.0) {
    geom::Rng rng(eval::derive_seed(seed, {1}));
    model = core::FluxModel(field, eval::estimate_d_min(graph, field, rng));
  }

  static net::UnitDiskGraph build(std::uint64_t seed) {
    geom::Rng rng(seed);
    const geom::RectField f(30.0, 30.0);
    eval::NetworkSpec spec;  // paper defaults: 900 nodes, radius 2.4
    return eval::build_connected_network(spec, f, rng);
  }
};

TEST(EndToEnd, InstantLocalizationOneUserSparseSampling) {
  Pipeline p(100);
  geom::Rng rng(101);
  const sim::FluxEngine engine(p.graph);
  const geom::Vec2 truth{14.0, 17.0};
  const std::vector<sim::Collection> cs{{0, truth, 2.0}};
  const net::FluxMap flux = engine.measure(cs, rng);
  // Sniff only 10% of nodes (paper's robust operating point).
  const auto samples = sim::sample_nodes_fraction(p.graph.size(), 0.10, rng);
  const core::SparseObjective obj =
      eval::make_objective(p.model, p.graph, flux, samples);
  const core::InstantLocalizer loc(p.field);  // paper defaults: 10k samples
  const auto res = loc.localize(obj, 1, rng);
  EXPECT_LT(geom::distance(res.positions[0], truth), 2.5);
}

TEST(EndToEnd, InstantLocalizationTwoUsers) {
  Pipeline p(102);
  geom::Rng rng(103);
  const sim::FluxEngine engine(p.graph);
  const std::vector<geom::Vec2> truths{{7.0, 8.0}, {23.0, 21.0}};
  const std::vector<sim::Collection> cs{{0, truths[0], 1.5},
                                        {1, truths[1], 2.5}};
  const net::FluxMap flux = engine.measure(cs, rng);
  const auto samples = sim::sample_nodes_fraction(p.graph.size(), 0.20, rng);
  const core::SparseObjective obj =
      eval::make_objective(p.model, p.graph, flux, samples);
  core::LocalizerConfig cfg;
  cfg.candidates_per_user = 4000;
  const core::InstantLocalizer loc(p.field, cfg);
  const auto res = loc.localize(obj, 2, rng);
  EXPECT_LT(eval::matched_mean_error(res.positions, truths), 3.0);
}

TEST(EndToEnd, SmcTracksMovingUserThroughSimulatedNetwork) {
  Pipeline p(104);
  geom::Rng rng(105);
  // User walks a straight line; all rounds active (synchronous setting).
  sim::SimUser user;
  user.stretch = 2.0;
  user.mobility = std::make_shared<sim::PathMobility>(
      geom::Polyline({{4.0, 15.0}, {26.0, 15.0}}), 2.0);
  sim::ScenarioConfig scfg;
  scfg.rounds = 10;
  const auto obs = sim::run_scenario(p.graph, {user}, scfg, rng);

  const auto samples = sim::sample_nodes_fraction(p.graph.size(), 0.10, rng);
  core::SmcConfig tcfg;
  tcfg.num_predictions = 600;
  tcfg.vmax = 5.0;
  core::SmcTracker tracker(p.field, 1, tcfg, rng);
  double final_err = 1e18;
  for (const auto& o : obs) {
    const core::SparseObjective obj =
        eval::make_objective(p.model, p.graph, o.flux, samples);
    tracker.step(o.time, obj, rng);
    final_err = geom::distance(tracker.estimate(0), o.true_positions[0]);
  }
  // Paper Fig. 7(a): converges with error below ~2; allow simulator slack.
  EXPECT_LT(final_err, 3.0);
}

TEST(EndToEnd, AsynchronousTraceReplayRunsAndTracks) {
  Pipeline p(106);
  geom::Rng rng(107);
  // Small synthetic campus trace: 3 users, asynchronous collections.
  trace::TraceGenConfig gcfg;
  gcfg.num_users = 3;
  gcfg.duration = 40000.0;
  gcfg.median_dwell = 1000.0;
  const trace::Trace tr =
      trace::generate_trace(trace::grid_aps(p.field, 5, 10), gcfg, rng);
  const auto users = trace::replay_users(tr, {}, rng);
  ASSERT_EQ(users.size(), 3u);

  std::vector<sim::SimUser> sim_users;
  for (const auto& u : users) {
    sim_users.push_back(u.sim);
  }
  sim::ScenarioConfig scfg;
  scfg.rounds = static_cast<int>(trace::compressed_end_time(users)) + 1;
  scfg.rounds = std::min(scfg.rounds, 40);
  const auto obs = sim::run_scenario(p.graph, sim_users, scfg, rng);

  const auto samples = sim::sample_nodes_fraction(p.graph.size(), 0.10, rng);
  core::SmcConfig tcfg;
  tcfg.num_predictions = 400;
  tcfg.vmax = 5.0;
  core::SmcTracker tracker(p.field, users.size(), tcfg, rng);

  int updates = 0;
  std::vector<double> errors;
  for (const auto& o : obs) {
    const core::SparseObjective obj =
        eval::make_objective(p.model, p.graph, o.flux, samples);
    const auto res = tracker.step(o.time, obj, rng);
    for (std::size_t u = 0; u < users.size(); ++u) {
      if (res.updated[u]) {
        ++updates;
      }
    }
  }
  // Asynchronous schedule: some rounds update some users, never all blindly.
  EXPECT_GT(updates, 0);
  EXPECT_LT(updates, scfg.rounds * static_cast<int>(users.size()));
  // Late-stage estimates stay inside the field and weights stay normalized.
  for (std::size_t u = 0; u < users.size(); ++u) {
    EXPECT_TRUE(p.field.contains(tracker.estimate(u)));
    double wsum = 0.0;
    for (const auto& particle : tracker.particles(u)) {
      wsum += particle.weight;
    }
    EXPECT_NEAR(wsum, 1.0, 1e-9);
  }
}

TEST(EndToEnd, SmcTrackerOverPacketLevelCounts) {
  // The deepest stack: discrete-event packet simulation produces raw
  // per-node frame counts; the adversary (a 10% sniffer set, d_min
  // calibrated on one probe tree, the SMC tracker) consumes them directly
  // and still tracks the moving sink.
  Pipeline p(120);
  geom::Rng rng(121);
  const std::vector<std::size_t> sniffed =
      sim::sample_nodes_fraction(p.graph.size(), 0.10, rng);
  const core::FluxModel model(p.field,
                              eval::estimate_d_min(p.graph, p.field, rng));
  core::SmcConfig scfg;
  scfg.num_predictions = 500;
  core::SmcTracker tracker(p.field, 1, scfg, rng);

  sim::PacketSimConfig pcfg;
  pcfg.loss_prob = 0.05;  // a mildly lossy real radio
  const sim::PacketLevelSimulator packet_sim(pcfg);

  geom::Vec2 truth;
  for (int round = 1; round <= 10; ++round) {
    truth = {5.0 + 2.0 * round, 14.0};
    const net::CollectionTree tree =
        net::build_collection_tree(p.graph, truth, rng);
    const sim::PacketSimResult res =
        packet_sim.simulate(p.graph, tree, 2.0, rng);
    tracker.step(static_cast<double>(round),
                 eval::make_objective(model, p.graph, res.tx_counts, sniffed),
                 rng);
  }
  EXPECT_LT(geom::distance(tracker.estimate(0), truth), 3.5);
}

TEST(EndToEnd, SparserSamplingDegradesAccuracy) {
  Pipeline p(108);
  const sim::FluxEngine engine(p.graph);
  auto run_with_fraction = [&](double fraction) {
    double total = 0.0;
    const int trials = 5;
    for (int trial = 0; trial < trials; ++trial) {
      geom::Rng rng(eval::derive_seed(
          109, {static_cast<std::uint64_t>(trial),
                static_cast<std::uint64_t>(fraction * 1000)}));
      const geom::Vec2 truth = geom::uniform_in_field(p.field, rng);
      const std::vector<sim::Collection> cs{{0, truth, 2.0}};
      const net::FluxMap flux = engine.measure(cs, rng);
      const auto samples =
          sim::sample_nodes_fraction(p.graph.size(), fraction, rng);
      const core::SparseObjective obj =
          eval::make_objective(p.model, p.graph, flux, samples);
      core::LocalizerConfig cfg;
      cfg.candidates_per_user = 3000;
      const core::InstantLocalizer loc(p.field, cfg);
      total += geom::distance(loc.localize(obj, 1, rng).positions[0], truth);
    }
    return total / trials;
  };
  const double err_dense = run_with_fraction(0.40);
  const double err_tiny = run_with_fraction(0.005);  // ~5 sniffed nodes
  // The paper's Fig. 6(a) shape: errors blow up once sampling gets scarce.
  EXPECT_LT(err_dense, 2.5);
  EXPECT_GT(err_tiny, err_dense);
}

}  // namespace
}  // namespace fluxfp
