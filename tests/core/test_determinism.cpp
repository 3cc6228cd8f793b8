// Determinism of the parallel candidate-evaluation engine: everything the
// thread pool touches must produce bit-identical results at any thread
// count, because all RNG stays on the calling thread and merges are by
// index. These tests pin that contract for the batch primitives and for
// the full SMC / localizer pipelines under fault injection.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "core/localizer.hpp"
#include "core/nls.hpp"
#include "core/smc.hpp"
#include "core/smooth_localizer.hpp"
#include "numeric/parallel.hpp"
#include "sim/faults.hpp"

namespace fluxfp::core {
namespace {

struct ThreadCountGuard {
  ~ThreadCountGuard() { numeric::set_thread_count(0); }
};

/// Synthetic observation source (same idiom as test_smc.cpp): measured
/// flux generated directly from the model at fixed sample positions.
struct World {
  geom::RectField field{30.0, 30.0};
  FluxModel model{field, 1.0};
  std::vector<geom::Vec2> samples;

  explicit World(std::uint64_t seed, std::size_t n = 80) {
    geom::Rng rng(seed);
    samples = geom::uniform_points(field, n, rng);
  }

  std::vector<double> readings(const std::vector<geom::Vec2>& sinks,
                               const std::vector<double>& stretches) const {
    std::vector<double> measured(samples.size(), 0.0);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      for (std::size_t j = 0; j < sinks.size(); ++j) {
        measured[i] += stretches[j] * model.shape(sinks[j], samples[i]);
      }
    }
    return measured;
  }

  SparseObjective observe(const std::vector<geom::Vec2>& sinks,
                          const std::vector<double>& stretches) const {
    return SparseObjective(model, samples, readings(sinks, stretches));
  }
};

TEST(ColumnBlock, LayoutAndSpans) {
  ColumnBlock block(4, 3);
  EXPECT_EQ(block.rows(), 4u);
  EXPECT_EQ(block.cols(), 3u);
  // Column starts are stride() (rows rounded up to 8) doubles apart, so
  // every column begins on its own cache line.
  EXPECT_EQ(block.stride(), 8u);
  for (std::size_t c = 0; c < 3; ++c) {
    auto col = block.column(c);
    ASSERT_EQ(col.size(), 4u);
    // Columns are padded slices of one allocation.
    EXPECT_EQ(col.data(), block.data() + c * block.stride());
    for (std::size_t i = 0; i < 4; ++i) {
      col[i] = static_cast<double>(c * 10 + i);
    }
  }
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(block.column(c)[i], static_cast<double>(c * 10 + i));
    }
  }
}

TEST(ColumnBlock, ResizeRetainsCapacity) {
  ColumnBlock block(10, 100);
  const double* before = block.data();
  block.resize(10, 5);
  block.resize(10, 60);
  // Shrinking then regrowing within the high-water mark must not
  // reallocate — that is the whole point of reusing blocks across rounds.
  EXPECT_EQ(block.data(), before);
  EXPECT_EQ(block.rows(), 10u);
  EXPECT_EQ(block.cols(), 60u);
}

TEST(BatchEvaluation, ShapeColumnsMatchesPerColumnCalls) {
  ThreadCountGuard guard;
  const World w(41);
  const SparseObjective obj = w.observe({{12.0, 9.0}}, {2.0});
  geom::Rng rng(42);
  std::vector<geom::Vec2> sinks(257);
  for (geom::Vec2& s : sinks) {
    s = geom::uniform_in_field(w.field, rng);
  }

  numeric::set_thread_count(4);
  ColumnBlock block;
  obj.shape_columns(sinks, block);
  ASSERT_EQ(block.rows(), obj.sample_count());
  ASSERT_EQ(block.cols(), sinks.size());

  std::vector<double> col;
  for (std::size_t c = 0; c < sinks.size(); ++c) {
    obj.shape_column(sinks[c], col);
    for (std::size_t i = 0; i < col.size(); ++i) {
      ASSERT_EQ(block.column(c)[i], col[i]) << "c=" << c << " i=" << i;
    }
  }
}

TEST(BatchEvaluation, EvaluateBatchMatchesSerialEvaluate) {
  ThreadCountGuard guard;
  const World w(43);
  const SparseObjective obj =
      w.observe({{8.0, 8.0}, {22.0, 20.0}}, {2.0, 2.5});
  geom::Rng rng(44);

  std::vector<double> fixed_col;
  obj.shape_column({22.0, 20.0}, fixed_col);
  const std::vector<std::span<const double>> fixed{fixed_col};
  const ConditionalFit cond(obj, fixed, 0);

  std::vector<geom::Vec2> cands(123);
  for (geom::Vec2& c : cands) {
    c = geom::uniform_in_field(w.field, rng);
  }
  ColumnBlock block;
  obj.shape_columns(cands, block);

  numeric::set_thread_count(4);
  std::vector<double> residuals(cands.size());
  std::vector<double> stretches(cands.size());
  cond.evaluate_batch(block, residuals, stretches);

  for (std::size_t c = 0; c < cands.size(); ++c) {
    const StretchFit single = cond.evaluate(block.column(c));
    ASSERT_EQ(residuals[c], single.residual) << "c=" << c;
    ASSERT_EQ(stretches[c], single.stretches[0]) << "c=" << c;
    ASSERT_EQ(single.residual, cond.evaluate_residual(block.column(c)));
  }
}

TEST(BatchEvaluation, EvaluateBatchRejectsBadDimensions) {
  const World w(45);
  const SparseObjective obj = w.observe({{10.0, 10.0}}, {2.0});
  const ConditionalFit cond(obj, {}, 0);
  ColumnBlock block(obj.sample_count(), 4);
  std::vector<double> wrong(3);
  EXPECT_THROW(cond.evaluate_batch(block, wrong), std::invalid_argument);
  ColumnBlock bad_rows(obj.sample_count() + 1, 4);
  std::vector<double> out(4);
  EXPECT_THROW(cond.evaluate_batch(bad_rows, out), std::invalid_argument);
}

/// Full pipeline fingerprint of one fault-injected 50-round tracking run.
struct TrackRun {
  std::vector<geom::Vec2> estimates;  // users x rounds, interleaved
  std::vector<double> residuals;
  std::vector<char> recovered;
};

/// One fault-injected tracking run (robust fit, divergence recovery),
/// stepped a round at a time so tests can interleave several runs.
class FaultyTrack {
 public:
  FaultyTrack(std::uint64_t seed, std::size_t users, std::size_t predictions)
      : world_(seed), injector_(plan(seed), world_.samples.size(),
                                sniffers(world_.samples.size())),
        rng_(seed + 1),
        tracker_(world_.field, users, config(predictions), rng_) {}

  void step(int round) {
    const double r = static_cast<double>(round);
    const std::vector<geom::Vec2> truths{
        {3.0 + 0.45 * r, 10.0 + 0.2 * r}, {27.0 - 0.45 * r, 22.0 - 0.15 * r}};
    const std::vector<double> stretches{2.0, 2.5};
    const auto k = static_cast<long>(tracker_.num_users());
    std::vector<double> readings =
        world_.readings({truths.begin(), truths.begin() + k},
                        {stretches.begin(), stretches.begin() + k});
    injector_.begin_round(round);
    injector_.corrupt(readings);
    const SparseObjective obj(world_.model, world_.samples,
                              std::move(readings));
    const SmcStepResult res = tracker_.step(r, obj, rng_);
    for (std::size_t j = 0; j < tracker_.num_users(); ++j) {
      run.estimates.push_back(tracker_.estimate(j));
    }
    run.residuals.push_back(res.residual);
    run.recovered.push_back(res.recovered ? 1 : 0);
  }

  TrackRun run;

 private:
  static sim::FaultPlan plan(std::uint64_t seed) {
    sim::FaultPlan plan;
    plan.seed = seed + 31;
    plan.outage_prob = 0.15;
    plan.byzantine_fraction = 0.1;
    plan.byzantine_gain = 4.0;
    plan.burst_start = 20;
    plan.burst_length = 3;
    return plan;
  }
  static std::vector<std::size_t> sniffers(std::size_t n) {
    std::vector<std::size_t> out(n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = i;
    }
    return out;
  }
  static SmcConfig config(std::size_t predictions) {
    SmcConfig cfg;
    cfg.num_predictions = predictions;
    cfg.num_keep = 10;
    cfg.sweeps = 2;
    cfg.divergence_recovery = true;
    cfg.recovery_grid = 12;
    cfg.robust.loss = RobustLoss::kHuber;
    cfg.robust.reweight_rounds = 1;
    return cfg;
  }

  World world_;
  sim::FaultInjector injector_;
  geom::Rng rng_;
  SmcTracker tracker_;
};

TrackRun run_faulty_tracking(std::size_t threads) {
  numeric::set_thread_count(threads);
  FaultyTrack track(46, 2, 300);
  for (int round = 1; round <= 50; ++round) {
    track.step(round);
  }
  return track.run;
}

void expect_same_run(const TrackRun& a, const TrackRun& b) {
  ASSERT_EQ(a.estimates.size(), b.estimates.size());
  for (std::size_t i = 0; i < a.estimates.size(); ++i) {
    ASSERT_EQ(a.estimates[i], b.estimates[i]) << "estimate " << i;
  }
  EXPECT_EQ(a.residuals, b.residuals);
  EXPECT_EQ(a.recovered, b.recovered);
}

TEST(PipelineDeterminism, SmcTrackerBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  expect_same_run(run_faulty_tracking(1), run_faulty_tracking(4));
}

TEST(PipelineDeterminism, TrackersSteppedAlternatelyMatchEachSteppedAlone) {
  // Step scratch belongs to the thread, not the tracker: two trackers of
  // different shapes (users, N) stepped in turn on one thread share it,
  // and each must still produce exactly its solo run.
  ThreadCountGuard guard;
  numeric::set_thread_count(1);
  FaultyTrack solo_a(46, 2, 300);
  FaultyTrack solo_b(58, 1, 120);
  FaultyTrack mixed_a(46, 2, 300);
  FaultyTrack mixed_b(58, 1, 120);
  for (int round = 1; round <= 50; ++round) {
    solo_a.step(round);
  }
  for (int round = 1; round <= 50; ++round) {
    solo_b.step(round);
  }
  for (int round = 1; round <= 50; ++round) {
    mixed_b.step(round);
    mixed_a.step(round);
  }
  expect_same_run(solo_a.run, mixed_a.run);
  expect_same_run(solo_b.run, mixed_b.run);
  bool any_recovery = false;
  for (const char r : solo_a.run.recovered) {
    any_recovery = any_recovery || r != 0;
  }
  for (const char r : solo_b.run.recovered) {
    any_recovery = any_recovery || r != 0;
  }
  EXPECT_TRUE(any_recovery) << "the runs should exercise the grid re-seed";
}

TEST(PipelineDeterminism, InstantLocalizerBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const World w(48);
  const SparseObjective obj =
      w.observe({{7.0, 21.0}, {23.0, 9.0}}, {2.0, 2.5});
  LocalizerConfig cfg;
  cfg.candidates_per_user = 600;
  cfg.sweeps = 2;
  cfg.restarts = 3;
  cfg.top_m = 5;
  const InstantLocalizer loc(w.field, cfg);

  const auto run = [&](std::size_t threads) {
    numeric::set_thread_count(threads);
    geom::Rng rng(49);
    return loc.localize(obj, 2, rng);
  };
  const LocalizationResult serial = run(1);
  const LocalizationResult parallel = run(4);
  ASSERT_EQ(serial.positions.size(), parallel.positions.size());
  for (std::size_t j = 0; j < serial.positions.size(); ++j) {
    EXPECT_EQ(serial.positions[j], parallel.positions[j]);
  }
  EXPECT_EQ(serial.residual, parallel.residual);
  EXPECT_EQ(serial.stretches, parallel.stretches);
  ASSERT_EQ(serial.top_positions.size(), parallel.top_positions.size());
  for (std::size_t j = 0; j < serial.top_positions.size(); ++j) {
    ASSERT_EQ(serial.top_positions[j].size(),
              parallel.top_positions[j].size());
    for (std::size_t t = 0; t < serial.top_positions[j].size(); ++t) {
      EXPECT_EQ(serial.top_positions[j][t], parallel.top_positions[j][t]);
    }
    EXPECT_EQ(serial.top_residuals[j], parallel.top_residuals[j]);
  }
}

TEST(PipelineDeterminism, SmoothLocalizerBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const World w(50);
  const SparseObjective obj =
      w.observe({{10.0, 12.0}, {20.0, 18.0}}, {2.0, 3.0});
  SmoothLocalizerConfig cfg;
  cfg.restarts = 4;
  const SmoothLocalizer loc(w.field, cfg);

  const auto run = [&](std::size_t threads) {
    numeric::set_thread_count(threads);
    geom::Rng rng(51);
    return loc.localize(obj, 2, rng);
  };
  const SmoothLocalizationResult serial = run(1);
  const SmoothLocalizationResult parallel = run(4);
  ASSERT_EQ(serial.positions.size(), parallel.positions.size());
  for (std::size_t j = 0; j < serial.positions.size(); ++j) {
    EXPECT_EQ(serial.positions[j], parallel.positions[j]);
  }
  EXPECT_EQ(serial.residual, parallel.residual);
  EXPECT_EQ(serial.stretches, parallel.stretches);
  EXPECT_EQ(serial.converged, parallel.converged);
}

TEST(SmcConfigValidation, RejectsZeroPredictionsAndKeepOverflow) {
  const geom::RectField f(30.0, 30.0);
  geom::Rng rng(52);
  SmcConfig bad;
  bad.num_predictions = 0;
  EXPECT_THROW(SmcTracker(f, 1, bad, rng), std::invalid_argument);
  bad = SmcConfig{};
  bad.num_predictions = 5;
  bad.num_keep = 6;
  EXPECT_THROW(SmcTracker(f, 1, bad, rng), std::invalid_argument);
  bad = SmcConfig{};
  bad.num_predictions = 10;
  bad.num_keep = 10;  // boundary: keep == predictions is legal
  EXPECT_NO_THROW(SmcTracker(f, 1, bad, rng));
}

}  // namespace
}  // namespace fluxfp::core
