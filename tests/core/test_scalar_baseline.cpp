// Bit-exact regression against a committed fixture: a 50-round
// fault-injected two-user SMC run whose every estimate, residual, and final
// particle is recorded as C99 hexfloats. In the scalar strict-determinism
// build (FLUXFP_SIMD=OFF) the tree must reproduce the fixture bit for bit:
// layout changes (SoA particles, arena scratch, padded column blocks) are
// storage moves, not arithmetic changes. Vector builds change dot-product
// summation order by design, so there the test skips.
//
// The fixture was first recorded from the tree before the SIMD +
// structure-of-arrays overhaul. It was regenerated once, when the
// rectangular-field shape moved from the unit-vector slab test (2 roots,
// 5 divisions per pair) to the one-root, two-division formula of
// numeric::simd::rect_shape: that rewrite rounds differently, so 215 of
// the 320 values moved, by at most 3.7e-14 relative, while every
// `recovered` flag, the bad-round count and both particle counts stayed
// the same. One-user trackers now run a single filtering sweep, but this
// run tracks two users, so that rule does not touch it.
//
// Regenerate tests/core/testdata/smc_scalar_baseline.txt only when a change
// is SUPPOSED to alter scalar results; the writer is the loop below with
// printf("%a") (see the file's header line for the format).

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/smc.hpp"
#include "geom/sampling.hpp"
#include "numeric/simd/kernels.hpp"
#include "sim/faults.hpp"

namespace fluxfp::core {
namespace {

/// Parses one whitespace-separated token as a hexfloat ("0x1.8p+3"). The
/// fixture's %a round-trips exactly through strtod.
double parse_hex(std::istream& in) {
  std::string token;
  in >> token;
  EXPECT_FALSE(token.empty());
  return std::strtod(token.c_str(), nullptr);
}

TEST(ScalarBaseline, FaultInjectedSmcRunIsBitIdenticalToPrePrFixture) {
  if (numeric::simd::enabled()) {
    GTEST_SKIP() << "vector backend '" << numeric::simd::backend_name()
                 << "' reorders dot-product accumulation; the bit-exact "
                    "contract only binds the scalar build";
  }
  std::ifstream fixture(std::string(FLUXFP_TESTDATA_DIR) +
                        "/smc_scalar_baseline.txt");
  ASSERT_TRUE(fixture.is_open()) << "missing committed baseline fixture";
  std::string line;
  ASSERT_TRUE(std::getline(fixture, line));
  ASSERT_EQ(line, "fluxfp-smc-scalar-baseline v1");
  ASSERT_TRUE(std::getline(fixture, line));
  ASSERT_EQ(line, "rounds 50 users 2");

  // The exact scenario the fixture was recorded from (mirrors the
  // run_faulty_tracking scenario in test_determinism.cpp).
  geom::RectField field(30.0, 30.0);
  FluxModel model(field, 1.0);
  geom::Rng world_rng(46);
  const std::vector<geom::Vec2> samples =
      geom::uniform_points(field, 80, world_rng);

  sim::FaultPlan plan;
  plan.seed = 77;
  plan.outage_prob = 0.15;
  plan.byzantine_fraction = 0.1;
  plan.byzantine_gain = 4.0;
  plan.burst_start = 20;
  plan.burst_length = 3;
  std::vector<std::size_t> sniffers(samples.size());
  for (std::size_t i = 0; i < sniffers.size(); ++i) {
    sniffers[i] = i;
  }
  sim::FaultInjector injector(plan, samples.size(), std::move(sniffers));

  SmcConfig cfg;
  cfg.num_predictions = 300;
  cfg.num_keep = 10;
  cfg.sweeps = 2;
  cfg.divergence_recovery = true;
  cfg.recovery_grid = 12;
  cfg.robust.loss = RobustLoss::kHuber;
  cfg.robust.reweight_rounds = 1;

  geom::Rng rng(47);
  SmcTracker tracker(field, 2, cfg, rng);

  for (int round = 1; round <= 50; ++round) {
    const double r = static_cast<double>(round);
    const std::vector<geom::Vec2> truths{{3.0 + 0.45 * r, 10.0 + 0.2 * r},
                                         {27.0 - 0.45 * r, 22.0 - 0.15 * r}};
    std::vector<double> readings(samples.size(), 0.0);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      readings[i] = 2.0 * model.shape(truths[0], samples[i]) +
                    2.5 * model.shape(truths[1], samples[i]);
    }
    injector.begin_round(round);
    injector.corrupt(readings);
    const SparseObjective obj(model, samples, std::move(readings));
    const SmcStepResult res = tracker.step(r, obj, rng);

    std::string keyword;
    int fixture_round = 0;
    fixture >> keyword >> fixture_round;
    ASSERT_EQ(keyword, "round");
    ASSERT_EQ(fixture_round, round);
    EXPECT_EQ(tracker.estimate(0).x, parse_hex(fixture)) << "round " << round;
    EXPECT_EQ(tracker.estimate(0).y, parse_hex(fixture)) << "round " << round;
    EXPECT_EQ(tracker.estimate(1).x, parse_hex(fixture)) << "round " << round;
    EXPECT_EQ(tracker.estimate(1).y, parse_hex(fixture)) << "round " << round;
    EXPECT_EQ(res.residual, parse_hex(fixture)) << "round " << round;
    int recovered = 0;
    fixture >> recovered;
    EXPECT_EQ(res.recovered ? 1 : 0, recovered) << "round " << round;
  }

  // Final filter state: the run must not merely print the same estimates
  // but END in the same state, particle for particle, bit for bit.
  const SmcState state = tracker.save_state();
  std::string keyword;
  int bad_rounds = -1;
  fixture >> keyword >> bad_rounds;
  ASSERT_EQ(keyword, "bad_rounds");
  EXPECT_EQ(state.bad_rounds, bad_rounds);
  for (std::size_t u = 0; u < state.users.size(); ++u) {
    const SmcUserState& us = state.users[u];
    std::size_t user_index = 0;
    fixture >> keyword >> user_index;
    ASSERT_EQ(keyword, "user");
    ASSERT_EQ(user_index, u);
    fixture >> keyword;
    ASSERT_EQ(keyword, "t_last");
    EXPECT_EQ(us.t_last, parse_hex(fixture));
    fixture >> keyword;
    ASSERT_EQ(keyword, "prev");
    EXPECT_EQ(us.prev_estimate.x, parse_hex(fixture));
    EXPECT_EQ(us.prev_estimate.y, parse_hex(fixture));
    fixture >> keyword;
    ASSERT_EQ(keyword, "heading");
    EXPECT_EQ(us.heading.x, parse_hex(fixture));
    EXPECT_EQ(us.heading.y, parse_hex(fixture));
    std::size_t particle_count = 0;
    fixture >> keyword >> particle_count;
    ASSERT_EQ(keyword, "particles");
    ASSERT_EQ(us.particles.size(), particle_count);
    for (const Particle& p : us.particles) {
      fixture >> keyword;
      ASSERT_EQ(keyword, "p");
      EXPECT_EQ(p.position.x, parse_hex(fixture));
      EXPECT_EQ(p.position.y, parse_hex(fixture));
      EXPECT_EQ(p.weight, parse_hex(fixture));
    }
  }
  ASSERT_TRUE(fixture.good());
}

}  // namespace
}  // namespace fluxfp::core
