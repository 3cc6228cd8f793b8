#include "core/nls.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <span>

#include "core/rss_link_model.hpp"
#include "geom/sampling.hpp"
#include "net/flux.hpp"
#include "numeric/matrix.hpp"
#include "numeric/nnls.hpp"
#include "numeric/parallel.hpp"

namespace fluxfp::core {
namespace {

/// Synthetic fixture: sample nodes + measured flux generated exactly from
/// the model with known sinks and stretches.
struct Synthetic {
  geom::RectField field{30.0, 30.0};
  FluxModel model{field, 1.0};
  std::vector<geom::Vec2> samples;
  std::vector<geom::Vec2> sinks;
  std::vector<double> stretches;
  std::vector<double> measured;

  Synthetic(std::uint64_t seed, std::size_t n, std::vector<geom::Vec2> s,
            std::vector<double> str)
      : sinks(std::move(s)), stretches(std::move(str)) {
    geom::Rng rng(seed);
    samples = geom::uniform_points(field, n, rng);
    measured.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < sinks.size(); ++j) {
        measured[i] += stretches[j] * model.shape(sinks[j], samples[i]);
      }
    }
  }

  SparseObjective objective() const {
    return SparseObjective(model, samples, measured);
  }
};

TEST(SparseObjective, RejectsBadInputs) {
  const geom::RectField f(30.0, 30.0);
  const FluxModel m(f, 1.0);
  EXPECT_THROW(SparseObjective(m, std::vector<geom::Vec2>{}, {}),
               std::invalid_argument);
  EXPECT_THROW(SparseObjective(m, std::vector<geom::Vec2>{{1, 1}}, {1.0, 2.0}),
               std::invalid_argument);
  // The Site-vector forms reject the same bad inputs.
  EXPECT_THROW(SparseObjective(m, std::vector<Site>{}, {}),
               std::invalid_argument);
}

TEST(SparseObjective, ShapeColumnMatchesModel) {
  const Synthetic syn(1, 20, {{10, 10}}, {2.0});
  const SparseObjective obj = syn.objective();
  const auto col = obj.shape_column({7, 13});
  ASSERT_EQ(col.size(), 20u);
  for (std::size_t i = 0; i < col.size(); ++i) {
    EXPECT_DOUBLE_EQ(col[i], syn.model.shape({7, 13}, syn.samples[i]));
  }
}

TEST(SparseObjective, ZeroResidualAtTruthSingleUser) {
  const Synthetic syn(2, 40, {{12, 18}}, {2.5});
  const SparseObjective obj = syn.objective();
  const StretchFit fit = obj.fit(std::vector<geom::Vec2>{{12, 18}});
  EXPECT_NEAR(fit.residual, 0.0, 1e-9);
  ASSERT_EQ(fit.stretches.size(), 1u);
  EXPECT_NEAR(fit.stretches[0], 2.5, 1e-9);
}

TEST(SparseObjective, ZeroResidualAtTruthThreeUsers) {
  const Synthetic syn(3, 60, {{5, 5}, {25, 10}, {15, 25}}, {1.0, 2.0, 3.0});
  const SparseObjective obj = syn.objective();
  const StretchFit fit = obj.fit(syn.sinks);
  EXPECT_NEAR(fit.residual, 0.0, 1e-7);
  ASSERT_EQ(fit.stretches.size(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(fit.stretches[j], syn.stretches[j], 1e-6);
  }
}

TEST(SparseObjective, WrongPositionHasPositiveResidual) {
  const Synthetic syn(4, 40, {{12, 18}}, {2.5});
  const SparseObjective obj = syn.objective();
  const StretchFit truth = obj.fit(std::vector<geom::Vec2>{{12, 18}});
  const StretchFit wrong = obj.fit(std::vector<geom::Vec2>{{25, 4}});
  EXPECT_GT(wrong.residual, truth.residual + 1.0);
}

TEST(SparseObjective, EmptySinkSetResidualIsMeasuredNorm) {
  const Synthetic syn(5, 30, {{12, 18}}, {2.0});
  const SparseObjective obj = syn.objective();
  const StretchFit fit = obj.fit(std::vector<geom::Vec2>{});
  EXPECT_DOUBLE_EQ(fit.residual, obj.measured_norm());
}

TEST(SparseObjective, FitColumnsMatchesFit) {
  const Synthetic syn(6, 50, {{5, 5}, {20, 22}}, {1.5, 2.5});
  const SparseObjective obj = syn.objective();
  const std::vector<geom::Vec2> guess{{6, 4}, {21, 20}};
  const StretchFit direct = obj.fit(guess);
  const auto c0 = obj.shape_column(guess[0]);
  const auto c1 = obj.shape_column(guess[1]);
  const std::vector<std::span<const double>> cols{c0, c1};
  const StretchFit via_cols = obj.fit_columns(cols);
  EXPECT_NEAR(direct.residual, via_cols.residual, 1e-9);
  EXPECT_NEAR(direct.stretches[0], via_cols.stretches[0], 1e-9);
  EXPECT_NEAR(direct.stretches[1], via_cols.stretches[1], 1e-9);
}

TEST(SparseObjective, MissingReadingsAreMaskedOut) {
  const Synthetic syn(21, 30, {{10, 10}}, {2.0});
  std::vector<double> holed = syn.measured;
  holed[3] = net::kMissingReading;
  holed[7] = net::kMissingReading;
  holed[29] = net::kMissingReading;
  const SparseObjective obj(syn.model, syn.samples, holed);
  EXPECT_EQ(obj.sample_count(), 27u);
  EXPECT_EQ(obj.masked_count(), 3u);
  // The surviving samples are still exact model output: zero residual at
  // the truth, same fitted stretch.
  const StretchFit fit = obj.fit(syn.sinks);
  EXPECT_NEAR(fit.residual, 0.0, 1e-9);
  EXPECT_NEAR(fit.stretches[0], 2.0, 1e-9);
}

TEST(SparseObjective, DuplicateSamplePositionKeepsLatestReading) {
  const Synthetic syn(23, 20, {{10, 10}}, {2.0});
  // Re-report node 4 twice more at the end of the snapshot: a stale value
  // first, then the correct one. Only the LAST live reading must survive,
  // as a single row.
  std::vector<geom::Vec2> samples = syn.samples;
  std::vector<double> measured = syn.measured;
  samples.push_back(syn.samples[4]);
  measured.push_back(syn.measured[4] + 100.0);
  samples.push_back(syn.samples[4]);
  measured.push_back(syn.measured[4]);
  const SparseObjective obj(syn.model, samples, measured);
  EXPECT_EQ(obj.sample_count(), 20u);
  EXPECT_EQ(obj.masked_count(), 2u);
  const StretchFit fit = obj.fit(syn.sinks);
  EXPECT_NEAR(fit.residual, 0.0, 1e-9);
  EXPECT_NEAR(fit.stretches[0], 2.0, 1e-9);

  // A missing re-report does not clobber the earlier live reading.
  std::vector<geom::Vec2> samples2 = syn.samples;
  std::vector<double> measured2 = syn.measured;
  samples2.push_back(syn.samples[4]);
  measured2.push_back(net::kMissingReading);
  const SparseObjective obj2(syn.model, samples2, measured2);
  EXPECT_EQ(obj2.sample_count(), 20u);
  EXPECT_NEAR(obj2.fit(syn.sinks).residual, 0.0, 1e-9);
}

// The dedup tie-break at EQUAL timestamps: snapshot order is the only
// order — the ascending-index scan makes "latest" mean highest input
// index, never arrival thread. Pinned against measured() directly, and
// pinned to be byte-identical whether the engine runs 1 or 4 worker
// threads (construction is serial; the thread pool must not be able to
// change what the objective holds).
TEST(SparseObjective, EqualTimestampDuplicatesAreIndexOrderedAtAnyThreads) {
  const geom::RectField f(30.0, 30.0);
  const FluxModel m(f, 1.0);
  const std::vector<geom::Vec2> samples{
      {5.0, 5.0}, {9.0, 9.0}, {5.0, 5.0}, {7.0, 3.0}, {5.0, 5.0}};
  const std::vector<double> measured{1.0, 2.0, 3.0, 4.0, 5.0};

  std::vector<std::vector<double>> kept;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    numeric::set_thread_count(threads);
    const SparseObjective obj(m, samples, measured);
    EXPECT_EQ(obj.sample_count(), 3u);
    EXPECT_EQ(obj.masked_count(), 2u);
    kept.push_back(obj.measured());
  }
  numeric::set_thread_count(0);
  // Row 0 is the {5,5} survivor: its reading must be the HIGHEST-index
  // duplicate (5.0), not the first (1.0) or middle (3.0).
  ASSERT_EQ(kept[0].size(), 3u);
  EXPECT_EQ(kept[0][0], 5.0);
  EXPECT_EQ(kept[0][1], 2.0);
  EXPECT_EQ(kept[0][2], 4.0);
  EXPECT_EQ(kept[0], kept[1]);  // bit-identical across worker counts
}

// Link sites dedup on the PAIR, not the primary endpoint: two links
// sharing endpoint a are distinct rows.
TEST(SparseObjective, LinkSitesSharingOneEndpointAreNotDeduped) {
  const RssLinkModel m(1.0, 0.05);
  const std::vector<Site> sites{
      Site{{2.0, 2.0}, {6.0, 2.0}},
      Site{{2.0, 2.0}, {2.0, 6.0}},   // same a, different b: keep
      Site{{2.0, 2.0}, {6.0, 2.0}},   // exact pair duplicate: dedup
  };
  const std::vector<double> measured{1.5, 2.5, 3.5};
  const SparseObjective obj(m, sites, measured);
  EXPECT_EQ(obj.sample_count(), 2u);
  EXPECT_EQ(obj.masked_count(), 1u);
  ASSERT_EQ(obj.measured().size(), 2u);
  EXPECT_EQ(obj.measured()[0], 3.5);  // last-arrival of the duplicate pair
  EXPECT_EQ(obj.measured()[1], 2.5);
}

TEST(SparseObjective, ValidityMaskExcludesSamples) {
  const Synthetic syn(22, 10, {{15, 15}}, {1.5});
  std::vector<bool> valid(10, true);
  valid[0] = false;
  valid[9] = false;
  const SparseObjective obj(syn.model, syn.samples, syn.measured, valid);
  EXPECT_EQ(obj.sample_count(), 8u);
  EXPECT_EQ(obj.masked_count(), 2u);
  EXPECT_THROW(
      SparseObjective(syn.model, syn.samples, syn.measured,
                      std::vector<bool>(9, true)),
      std::invalid_argument);
}

TEST(SparseObjective, AllMissingWindowActsAsEmptyMeasurement) {
  const Synthetic syn(23, 5, {{15, 15}}, {1.0});
  const std::vector<double> gone(5, net::kMissingReading);
  const SparseObjective obj(syn.model, syn.samples, gone);
  EXPECT_EQ(obj.sample_count(), 0u);
  EXPECT_EQ(obj.masked_count(), 5u);
  EXPECT_DOUBLE_EQ(obj.measured_norm(), 0.0);
  const StretchFit fit = obj.fit(syn.sinks);
  EXPECT_DOUBLE_EQ(fit.residual, 0.0);
  EXPECT_DOUBLE_EQ(fit.stretches[0], 0.0);
}

TEST(SparseObjective, UnitWeightsLeaveFitUnchanged) {
  const Synthetic syn(24, 25, {{8, 20}, {22, 9}}, {1.0, 3.0});
  const SparseObjective obj = syn.objective();
  const SparseObjective same = obj.reweighted(std::vector<double>(25, 1.0));
  const std::vector<geom::Vec2> probe{{9, 19}, {21, 10}};
  const StretchFit a = obj.fit(probe);
  const StretchFit b = same.fit(probe);
  EXPECT_NEAR(a.residual, b.residual, 1e-9);
  EXPECT_NEAR(a.stretches[0], b.stretches[0], 1e-9);
  EXPECT_NEAR(a.stretches[1], b.stretches[1], 1e-9);
}

TEST(SparseObjective, ZeroWeightDropsPoisonedSample) {
  Synthetic syn(25, 30, {{10, 10}}, {2.0});
  syn.measured[4] *= 50.0;  // wildly corrupted reading
  const SparseObjective obj(syn.model, syn.samples, syn.measured);
  EXPECT_GT(obj.fit(syn.sinks).residual, 1.0);
  std::vector<double> w(30, 1.0);
  w[4] = 0.0;
  const StretchFit clean = obj.reweighted(w).fit(syn.sinks);
  EXPECT_NEAR(clean.residual, 0.0, 1e-9);
  EXPECT_NEAR(clean.stretches[0], 2.0, 1e-9);
  EXPECT_THROW(obj.reweighted(std::vector<double>(30, -1.0)),
               std::invalid_argument);
  EXPECT_THROW(obj.reweighted(std::vector<double>(29, 1.0)),
               std::invalid_argument);
}

TEST(RobustWeights, DownweightsOutliersOnly) {
  std::vector<double> r(50);
  for (std::size_t i = 0; i < r.size(); ++i) {
    r[i] = i % 2 == 0 ? -0.1 : 0.1;  // well inside the Huber clip
  }
  r[10] = 25.0;
  r[40] = -30.0;
  RobustFitConfig cfg;
  cfg.loss = RobustLoss::kHuber;
  const std::vector<double> w = robust_weights(r, cfg);
  EXPECT_LT(w[10], 0.1);
  EXPECT_LT(w[40], 0.1);
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (i != 10 && i != 40) {
      EXPECT_DOUBLE_EQ(w[i], 1.0);
    }
  }
  cfg.loss = RobustLoss::kTrimmed;
  cfg.trim_fraction = 0.05;
  const std::vector<double> t = robust_weights(r, cfg);
  EXPECT_DOUBLE_EQ(t[10], 0.0);
  EXPECT_DOUBLE_EQ(t[40], 0.0);
  EXPECT_DOUBLE_EQ(t[0], 1.0);
}

TEST(RobustWeights, DegenerateScaleLeavesAllWeightsAtOne) {
  // More than half the residuals identical -> MAD collapses to 0; the
  // guard returns all-ones instead of nuking every slightly-off sample.
  std::vector<double> r(20, 0.5);
  r[3] = 100.0;
  RobustFitConfig cfg;
  cfg.loss = RobustLoss::kHuber;
  const std::vector<double> w = robust_weights(r, cfg);
  for (double v : w) {
    EXPECT_DOUBLE_EQ(v, 1.0);
  }
}

TEST(SparseObjective, ResidualsAtMatchesFitResidual) {
  const Synthetic syn(27, 15, {{10, 10}, {20, 20}}, {1.0, 2.0});
  const SparseObjective obj = syn.objective();
  const std::vector<geom::Vec2> probe{{11, 9}, {19, 21}};
  const StretchFit fit = obj.fit(probe);
  const std::vector<double> r = obj.residuals_at(probe, fit.stretches);
  ASSERT_EQ(r.size(), 15u);
  double norm2 = 0.0;
  for (double v : r) {
    norm2 += v * v;
  }
  EXPECT_NEAR(std::sqrt(norm2), fit.residual, 1e-9);
}

TEST(NnlsFromGram, RejectsBadDims) {
  EXPECT_THROW(nnls_from_gram(std::vector<double>{1.0}, 0,
                              std::vector<double>{}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(nnls_from_gram(std::vector<double>{1.0, 2.0}, 1,
                              std::vector<double>{1.0}, 1.0),
               std::invalid_argument);
}

TEST(NnlsFromGram, MatchesDirectNnlsOnRandomInstances) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 15;
    const std::size_t k = 1 + static_cast<std::size_t>(trial % 4);
    numeric::Matrix a(n, k);
    std::vector<double> b(n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < k; ++c) {
        a(r, c) = u(rng);
      }
      b[r] = u(rng);
    }
    // Build Gram inputs.
    std::vector<double> g(k * k, 0.0);
    std::vector<double> c(k, 0.0);
    double b2 = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      b2 += b[r] * b[r];
      for (std::size_t i = 0; i < k; ++i) {
        c[i] += a(r, i) * b[r];
        for (std::size_t j = 0; j < k; ++j) {
          g[i * k + j] += a(r, i) * a(r, j);
        }
      }
    }
    const StretchFit gram = nnls_from_gram(g, k, c, b2);
    const numeric::NnlsResult direct = numeric::nnls(a, b);
    EXPECT_NEAR(gram.residual, direct.residual, 1e-7)
        << "trial " << trial << " k=" << k;
    for (std::size_t j = 0; j < k; ++j) {
      EXPECT_NEAR(gram.stretches[j], direct.x[j], 1e-5)
          << "trial " << trial << " col " << j;
    }
  }
}

TEST(NnlsFromGram, ActiveSetPathMatchesDirectNnlsForLargeK) {
  // k above kGramEnumerationLimit exercises the Lawson–Hanson path.
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (std::size_t k : {8u, 12u, 20u}) {
    const std::size_t n = 3 * k;
    numeric::Matrix a(n, k);
    std::vector<double> b(n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < k; ++c) {
        a(r, c) = u(rng);
      }
      b[r] = u(rng) - 0.3;  // mixed signs force active constraints
    }
    std::vector<double> g(k * k, 0.0);
    std::vector<double> c(k, 0.0);
    double b2 = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      b2 += b[r] * b[r];
      for (std::size_t i = 0; i < k; ++i) {
        c[i] += a(r, i) * b[r];
        for (std::size_t j = 0; j < k; ++j) {
          g[i * k + j] += a(r, i) * a(r, j);
        }
      }
    }
    const StretchFit gram = nnls_from_gram(g, k, c, b2);
    const numeric::NnlsResult direct = numeric::nnls(a, b);
    EXPECT_NEAR(gram.residual, direct.residual, 1e-6) << "k=" << k;
    for (std::size_t j = 0; j < k; ++j) {
      EXPECT_NEAR(gram.stretches[j], direct.x[j], 1e-4)
          << "k=" << k << " col " << j;
    }
  }
}

TEST(ConditionalFit, MatchesFullFit) {
  const Synthetic syn(8, 45, {{5, 5}, {20, 22}, {9, 27}}, {1.0, 2.0, 1.5});
  const SparseObjective obj = syn.objective();
  const auto c0 = obj.shape_column({6, 6});
  const auto c2 = obj.shape_column({10, 26});
  const std::vector<std::span<const double>> fixed{c0, c2};
  const ConditionalFit cond(obj, fixed, 1);  // middle slot varies
  const geom::Vec2 candidate{19, 23};
  const auto c1 = obj.shape_column(candidate);
  const StretchFit via_cond = cond.evaluate(c1);
  const StretchFit direct =
      obj.fit(std::vector<geom::Vec2>{{6, 6}, candidate, {10, 26}});
  EXPECT_NEAR(via_cond.residual, direct.residual, 1e-7);
  ASSERT_EQ(via_cond.stretches.size(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(via_cond.stretches[j], direct.stretches[j], 1e-5);
  }
}

TEST(ConditionalFit, SingleUserNoFixedColumns) {
  const Synthetic syn(9, 30, {{12, 18}}, {2.0});
  const SparseObjective obj = syn.objective();
  const ConditionalFit cond(obj, {}, 0);
  const auto col = obj.shape_column({12, 18});
  const StretchFit fit = cond.evaluate(col);
  EXPECT_NEAR(fit.residual, 0.0, 1e-8);
  EXPECT_NEAR(fit.stretches[0], 2.0, 1e-8);
}

TEST(SparseObjective, ScaleEquivariance) {
  // Metamorphic check of the model math: scaling the whole geometry by c
  // scales shapes, measurements, and residuals by c while the fitted
  // stretch factors are unchanged (phi = (l^2-d^2)/2d is 1-homogeneous).
  const double c = 2.5;
  const geom::RectField field(30.0, 30.0);
  const geom::RectField field_scaled(30.0 * c, 30.0 * c);
  const FluxModel model(field, 1.0);
  const FluxModel model_scaled(field_scaled, c);  // d_min scales too

  geom::Rng rng(42);
  const std::vector<geom::Vec2> samples =
      geom::uniform_points(field, 40, rng);
  std::vector<geom::Vec2> samples_scaled;
  for (const geom::Vec2& p : samples) {
    samples_scaled.push_back(p * c);
  }
  const geom::Vec2 sink{11, 17};
  std::vector<double> measured(samples.size());
  std::vector<double> measured_scaled(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    measured[i] = 2.0 * model.shape(sink, samples[i]);
    measured_scaled[i] =
        2.0 * model_scaled.shape(sink * c, samples_scaled[i]);
    EXPECT_NEAR(measured_scaled[i], c * measured[i], 1e-9);
  }
  const SparseObjective obj(model, samples, measured);
  const SparseObjective obj_scaled(model_scaled, samples_scaled,
                                   measured_scaled);
  // Fit at a wrong candidate: stretches agree, residual scales by c.
  const geom::Vec2 wrong{20, 9};
  const StretchFit f = obj.fit(std::vector<geom::Vec2>{wrong});
  const StretchFit fs =
      obj_scaled.fit(std::vector<geom::Vec2>{wrong * c});
  EXPECT_NEAR(fs.stretches[0], f.stretches[0], 1e-6);
  EXPECT_NEAR(fs.residual, c * f.residual, 1e-6);
}

TEST(SparseObjective, RotationInvarianceOnCenteredCircle) {
  // Rotating sinks and samples about a circular field's center leaves
  // every shape value unchanged (the boundary is rotation-symmetric).
  const geom::CircleField field({0.0, 0.0}, 15.0);
  const FluxModel model(field, 1.0);
  geom::Rng rng(43);
  const double theta = 1.234;
  const double cs = std::cos(theta);
  const double sn = std::sin(theta);
  auto rot = [&](geom::Vec2 p) {
    return geom::Vec2{cs * p.x - sn * p.y, sn * p.x + cs * p.y};
  };
  for (int trial = 0; trial < 50; ++trial) {
    const geom::Vec2 sink = geom::uniform_in_field(field, rng);
    const geom::Vec2 node = geom::uniform_in_field(field, rng);
    EXPECT_NEAR(model.shape(sink, node),
                model.shape(rot(sink), rot(node)), 1e-9);
  }
}

// Capacity-retaining ColumnBlock reuse must never leak stale data into
// results: after any grow/shrink sequence, a reused block's batch output
// — and everything computed FROM that block — must be bit-identical to a
// fresh block's. The sweep deliberately walks sizes across the stride
// rounding (rows padded to multiples of 8) so shrunk regions and padding
// tails hold live garbage from earlier, larger batches.
TEST(ColumnBlockReuse, GrowShrinkSequencesMatchFreshBlocksBitExactly) {
  const Synthetic syn(61, 45, {{9.0, 9.0}, {21.0, 17.0}}, {2.0, 2.5});
  const SparseObjective obj = syn.objective();
  geom::Rng rng(62);

  std::vector<double> fixed_col;
  obj.shape_column({21.0, 17.0}, fixed_col);
  const std::vector<std::span<const double>> fixed{fixed_col};
  const ConditionalFit cond(obj, fixed, 0);

  ColumnBlock reused;
  // Sizes chosen to grow, shrink sharply, regrow within capacity, and end
  // tiny — every transition capacity-retaining after the first.
  const std::size_t batch_sizes[] = {64, 7, 33, 128, 5, 97, 1};
  for (const std::size_t batch : batch_sizes) {
    std::vector<geom::Vec2> sinks(batch);
    for (geom::Vec2& s : sinks) {
      s = geom::uniform_in_field(syn.field, rng);
    }
    obj.shape_columns(sinks, reused);
    ColumnBlock fresh;
    obj.shape_columns(sinks, fresh);
    ASSERT_EQ(reused.rows(), fresh.rows());
    ASSERT_EQ(reused.cols(), fresh.cols());
    for (std::size_t c = 0; c < batch; ++c) {
      const auto rcol = reused.column(c);
      const auto fcol = fresh.column(c);
      for (std::size_t i = 0; i < rcol.size(); ++i) {
        ASSERT_EQ(rcol[i], fcol[i]) << "batch " << batch << " col " << c
                                    << " row " << i;
      }
    }
    // The downstream consumer of the block must agree too — this is what
    // would surface a padding-tail leak even if column() spans hid it.
    std::vector<double> r_res(batch), r_str(batch);
    std::vector<double> f_res(batch), f_str(batch);
    cond.evaluate_batch(reused, r_res, r_str);
    cond.evaluate_batch(fresh, f_res, f_str);
    ASSERT_EQ(r_res, f_res) << "batch " << batch;
    ASSERT_EQ(r_str, f_str) << "batch " << batch;
  }
}

TEST(ConditionalFit, RejectsTooManyUsers) {
  const Synthetic syn(10, 10, {{12, 18}}, {2.0});
  const SparseObjective obj = syn.objective();
  std::vector<std::vector<double>> cols(kMaxGramUsers,
                                        std::vector<double>(10, 1.0));
  std::vector<std::span<const double>> spans(cols.begin(), cols.end());
  EXPECT_THROW(ConditionalFit(obj, spans, 0), std::invalid_argument);
}

}  // namespace
}  // namespace fluxfp::core
