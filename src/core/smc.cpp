#include "core/smc.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "numeric/arena.hpp"
#include "obs/instrument.hpp"

namespace fluxfp::core {

/// Buffers step() rebuilds every round, kept at their high-water capacity:
/// the step arena, the robust-reweighting buffers, and the per-user
/// representative and candidate columns.
struct SmcTracker::Scratch {
  numeric::Arena arena;
  std::optional<SparseObjective> robust_storage;
  std::vector<double> robust_r;
  std::vector<double> robust_w;
  std::vector<std::vector<double>> rep_cols;
  std::vector<ColumnBlock> cand_cols;
};

SmcTracker::SmcTracker(const geom::Field& field, std::size_t num_users,
                       SmcConfig config, geom::Rng& rng)
    : field_(&field), config_(config) {
  if (num_users == 0 || num_users > kMaxGramUsers) {
    throw std::invalid_argument("SmcTracker: bad user count");
  }
  if (config_.num_predictions == 0) {
    throw std::invalid_argument(
        "SmcTracker: num_predictions (N) must be > 0 — an empty prediction "
        "set leaves every filtering sweep with nothing to rank");
  }
  if (config_.num_keep == 0) {
    throw std::invalid_argument(
        "SmcTracker: num_keep (M) must be > 0 — the tracker needs at least "
        "one surviving sample per user");
  }
  if (config_.num_keep > config_.num_predictions) {
    throw std::invalid_argument(
        "SmcTracker: num_keep (M) must not exceed num_predictions (N) — "
        "filtering cannot keep more samples than were predicted");
  }
  if (config_.sweeps <= 0 || !(config_.vmax > 0.0)) {
    throw std::invalid_argument("SmcTracker: bad config");
  }
  if (config_.heading_mix < 0.0 || config_.heading_mix > 1.0 ||
      config_.heading_half_angle <= 0.0) {
    throw std::invalid_argument("SmcTracker: bad heading config");
  }
  if (config_.divergence_recovery &&
      (config_.divergence_fraction <= 0.0 ||
       config_.divergence_fraction > 1.0 || config_.divergence_rounds <= 0 ||
       config_.recovery_grid == 0)) {
    throw std::invalid_argument("SmcTracker: bad divergence config");
  }
  particles_.resize(num_users);
  t_last_.assign(num_users, 0.0);
  prev_estimate_.assign(num_users, geom::Vec2{});
  heading_.assign(num_users, geom::Vec2{});
  const double w0 = 1.0 / static_cast<double>(config_.num_keep);
  for (ParticleSet& set : particles_) {
    set.x.reserve(config_.num_keep);
    set.y.reserve(config_.num_keep);
    set.w.reserve(config_.num_keep);
    for (std::size_t i = 0; i < config_.num_keep; ++i) {
      const geom::Vec2 p = geom::uniform_in_field(*field_, rng);
      set.x.push_back(p.x);
      set.y.push_back(p.y);
      set.w.push_back(w0);
    }
  }
}

std::vector<Particle> SmcTracker::particles(std::size_t user) const {
  const ParticleSet& set = particles_.at(user);
  std::vector<Particle> out(set.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    out[i] = {{set.x[i], set.y[i]}, set.w[i]};
  }
  return out;
}

SmcState SmcTracker::save_state() const {
  SmcState state;
  state.users.resize(particles_.size());
  for (std::size_t u = 0; u < particles_.size(); ++u) {
    SmcUserState& us = state.users[u];
    us.particles = particles(u);
    us.t_last = t_last_[u];
    us.prev_estimate = prev_estimate_[u];
    us.heading = heading_[u];
  }
  state.bad_rounds = bad_rounds_;
  return state;
}

void SmcTracker::restore_state(const SmcState& state) {
  if (state.users.size() != particles_.size()) {
    throw std::invalid_argument(
        "SmcTracker: snapshot user count does not match this tracker");
  }
  for (const SmcUserState& us : state.users) {
    if (us.particles.empty() ||
        us.particles.size() > config_.num_predictions) {
      throw std::invalid_argument(
          "SmcTracker: snapshot particle set empty or larger than "
          "num_predictions");
    }
    // Only values step() can produce: a NaN particle would throw in the
    // next epoch's shape columns, and an off-field one or a bad weight
    // would silently steer every later prediction.
    double wsum = 0.0;
    for (const Particle& p : us.particles) {
      if (!std::isfinite(p.position.x) || !std::isfinite(p.position.y) ||
          !field_->contains(p.position, 1e-9)) {
        throw std::invalid_argument(
            "SmcTracker: snapshot particle non-finite or outside the field");
      }
      if (!std::isfinite(p.weight) || p.weight < 0.0) {
        throw std::invalid_argument(
            "SmcTracker: snapshot weight non-finite or negative");
      }
      wsum += p.weight;
    }
    if (std::abs(wsum - 1.0) > 1e-9) {
      throw std::invalid_argument(
          "SmcTracker: snapshot weights do not sum to 1");
    }
    // The motion state step() leaves: an estimate and a unit (or zero)
    // heading are finite; the last update time is an event time, +inf
    // after an inf timestamp but never NaN.
    if (!std::isfinite(us.prev_estimate.x) ||
        !std::isfinite(us.prev_estimate.y) || !std::isfinite(us.heading.x) ||
        !std::isfinite(us.heading.y)) {
      throw std::invalid_argument(
          "SmcTracker: snapshot estimate or heading non-finite");
    }
    if (std::isnan(us.t_last)) {
      throw std::invalid_argument("SmcTracker: snapshot update time is NaN");
    }
  }
  for (std::size_t u = 0; u < particles_.size(); ++u) {
    const SmcUserState& us = state.users[u];
    ParticleSet& set = particles_[u];
    const std::size_t m = us.particles.size();
    set.x.resize(m);
    set.y.resize(m);
    set.w.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      set.x[i] = us.particles[i].position.x;
      set.y[i] = us.particles[i].position.y;
      set.w[i] = us.particles[i].weight;
    }
    t_last_[u] = us.t_last;
    prev_estimate_[u] = us.prev_estimate;
    heading_[u] = us.heading;
  }
  bad_rounds_ = state.bad_rounds;
}

geom::Vec2 SmcTracker::estimate(std::size_t user) const {
  const ParticleSet& set = particles_.at(user);
  geom::Vec2 acc;
  double wsum = 0.0;
  for (std::size_t i = 0; i < set.size(); ++i) {
    acc += geom::Vec2{set.x[i], set.y[i]} * set.w[i];
    wsum += set.w[i];
  }
  return wsum > 0.0 ? acc / wsum : geom::Vec2{set.x.front(), set.y.front()};
}

std::array<double, 4> SmcTracker::covariance(std::size_t user) const {
  const ParticleSet& set = particles_.at(user);
  const geom::Vec2 mean = estimate(user);
  double xx = 0.0, xy = 0.0, yy = 0.0, wsum = 0.0;
  for (std::size_t i = 0; i < set.size(); ++i) {
    const geom::Vec2 d = geom::Vec2{set.x[i], set.y[i]} - mean;
    xx += set.w[i] * d.x * d.x;
    xy += set.w[i] * d.x * d.y;
    yy += set.w[i] * d.y * d.y;
    wsum += set.w[i];
  }
  if (wsum <= 0.0) {
    return {0.0, 0.0, 0.0, 0.0};
  }
  return {xx / wsum, xy / wsum, xy / wsum, yy / wsum};
}

double SmcTracker::spread(std::size_t user) const {
  const std::array<double, 4> c = covariance(user);
  return std::sqrt(std::max(c[0] + c[3], 0.0));
}

void SmcTracker::predict(std::size_t user, double radius, geom::Rng& rng,
                         std::span<double> weights_scratch,
                         std::span<Prediction> out) const {
  const ParticleSet& set = particles_[user];
  for (std::size_t i = 0; i < set.size(); ++i) {
    weights_scratch[i] = config_.importance_sampling ? set.w[i] : 1.0;
  }
  std::discrete_distribution<std::size_t> origin_dist(weights_scratch.begin(),
                                                      weights_scratch.end());
  const geom::Vec2 h = heading_[user];
  const bool use_cone =
      config_.heading_aware && h.norm2() > 0.0 && config_.heading_mix > 0.0;
  const double base_angle = std::atan2(h.y, h.x);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::size_t o = origin_dist(rng);
    const geom::Vec2 origin{set.x[o], set.y[o]};
    geom::Vec2 p;
    if (use_cone && unit(rng) < config_.heading_mix) {
      // Area-uniform sample in the cone of half-angle around the heading.
      const double r = radius * std::sqrt(unit(rng));
      const double a =
          base_angle + (2.0 * unit(rng) - 1.0) * config_.heading_half_angle;
      p = field_->clamp(origin + geom::Vec2{r * std::cos(a), r * std::sin(a)});
    } else {
      p = geom::uniform_in_disc_clipped(origin, radius, *field_, rng);
    }
    out[i] = {p, o};
  }
}

SmcStepResult SmcTracker::step(double time,
                               const SparseObjective& raw_objective,
                               geom::Rng& rng) {
  // One scratch per thread: a step runs to completion on its thread (its
  // own parallel regions only fill slots of these buffers), so no two
  // steps ever hold it at once.
  thread_local Scratch scratch;
  numeric::Arena& arena = scratch.arena;
  arena.reset();
  const std::size_t k = num_users();
  if (scratch.cand_cols.size() < k) {
    scratch.rep_cols.resize(k);
    scratch.cand_cols.resize(k);
  }
  std::vector<std::vector<double>>& rep_cols = scratch.rep_cols;
  SmcStepResult result;
  result.updated.assign(k, false);
  result.stretches.assign(k, 0.0);
  result.best.resize(k);

  FLUXFP_OBS_COUNTER_INC("fluxfp_core_smc_steps_total",
                         "SMC filtering rounds executed");

  // Empty window (including all readings missing): nothing to fit, nobody
  // moves, and divergence counting is suspended — no evidence either way.
  if (raw_objective.measured_norm() < config_.empty_measurement_tol) {
    for (std::size_t j = 0; j < k; ++j) {
      result.best[j] = estimate(j);
    }
    result.residual = raw_objective.measured_norm();
    FLUXFP_OBS_COUNTER_INC("fluxfp_core_smc_empty_windows_total",
                           "Steps skipped on an all-missing window");
    return result;
  }

  // --- Optional robust reweighting against the current estimates ---
  // Byzantine readings get large residuals at the incumbent fit; one IRLS
  // pass removes most of their pull before the filtering sweeps see them.
  const SparseObjective* obj_ptr = &raw_objective;
  if (config_.robust.loss != RobustLoss::kNone &&
      raw_objective.sample_count() > 0) {
    const std::span<geom::Vec2> current = arena.alloc<geom::Vec2>(k);
    for (std::size_t j = 0; j < k; ++j) {
      current[j] = estimate(j);
    }
    const StretchFit incumbent = raw_objective.fit(current);
    raw_objective.residuals_at(current, incumbent.stretches,
                               scratch.robust_r);
    robust_weights(scratch.robust_r, config_.robust, scratch.robust_w);
    if (!scratch.robust_storage) {
      scratch.robust_storage.emplace(
          raw_objective.reweighted(scratch.robust_w));
    } else {
      raw_objective.reweighted_into(scratch.robust_w,
                                    *scratch.robust_storage);
    }
    obj_ptr = &*scratch.robust_storage;
  }
  const SparseObjective& objective = *obj_ptr;

  // --- Prediction (Eq. 4.2) ---
  const std::size_t n_pred = config_.num_predictions;
  const std::span<Prediction> predictions_flat =
      arena.alloc<Prediction>(k * n_pred);
  const auto predictions = [&](std::size_t j) {
    return predictions_flat.subspan(j * n_pred, n_pred);
  };
  for (std::size_t j = 0; j < k; ++j) {
    const double dt = std::max(time - t_last_[j], 0.0);
    // inf - inf (an unbounded timestamp after another) is NaN, which
    // std::clamp passes through: treat it as unbounded motion, like inf.
    const double radius =
        std::isnan(dt)
            ? field_->diameter()
            : std::clamp(config_.vmax * dt, 1e-6, field_->diameter());
    const std::span<double> weights_scratch =
        arena.alloc<double>(particles_[j].size());
    predict(j, radius, rng, weights_scratch, predictions(j));
  }

  // --- Filtering: conditional sweeps over users ---
  const std::span<geom::Vec2> reps = arena.alloc<geom::Vec2>(k);
  for (std::size_t j = 0; j < k; ++j) {
    reps[j] = estimate(j);
    objective.shape_column(reps[j], rep_cols[j]);
  }

  // Per-user scores of the *last* sweep; index into predictions(j).
  //
  // Scaling note: the conditional NNLS is pruned to the joint fit's
  // *support* — the users whose fitted s/r is currently non-zero. With
  // asynchronous schedules (20 tracked users, 2-4 active per window, §5.C)
  // this turns each candidate evaluation from a K-dimensional NNLS into a
  // (active+1)-dimensional one; columns outside the support are zero in
  // the full fit anyway, so the pruned fit is exact at the current point.
  const std::span<double> last_residuals_flat =
      arena.alloc<double>(k * n_pred);
  const auto last_residuals = [&](std::size_t j) {
    return last_residuals_flat.subspan(j * n_pred, n_pred);
  };
  // Candidate shape columns are fixed for the round; build them once per
  // user into a contiguous ColumnBlock. The batch build and the per-sweep
  // scoring below fan out over the thread pool, while every RNG draw
  // (prediction sampling above, resampling below) stays on this thread —
  // so step() output is bit-identical at any thread count.
  {
    const std::span<geom::Vec2> cand_pos = arena.alloc<geom::Vec2>(n_pred);
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t c = 0; c < n_pred; ++c) {
        cand_pos[c] = predictions(j)[c].position;
      }
      objective.shape_columns(cand_pos, scratch.cand_cols[j]);
    }
  }
  // With one user the conditional fit holds no column fixed, so a second
  // sweep would score the same candidates against the same readings and
  // pick the same argmin: one sweep is the whole fixed point.
  const int sweeps = k == 1 ? 1 : config_.sweeps;
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    // Support of the joint fit at the current representatives. Columns
    // whose stretch is a sliver of the largest are noise-absorbers (stale
    // reps soaking up model misfit), not users — drop them too.
    const StretchFit sweep_fit = objective.fit(reps);
    double max_stretch = 0.0;
    for (double s : sweep_fit.stretches) {
      max_stretch = std::max(max_stretch, s);
    }
    std::array<std::size_t, kMaxGramUsers> support;
    std::size_t support_count = 0;
    for (std::size_t o = 0; o < k; ++o) {
      if (sweep_fit.stretches[o] > 0.02 * max_stretch) {
        support[support_count++] = o;
      }
    }
    for (std::size_t j = 0; j < k; ++j) {
      std::array<std::span<const double>, kMaxGramUsers> fixed;
      std::size_t nf = 0;
      for (std::size_t s = 0; s < support_count; ++s) {
        if (support[s] != j) {
          fixed[nf++] = rep_cols[support[s]];
        }
      }
      // Candidate column sits in the last slot of the pruned fit.
      const ConditionalFit cond(
          objective, std::span<const std::span<const double>>(fixed.data(), nf),
          nf);
      const std::span<double> residuals = last_residuals(j);
      cond.evaluate_batch(scratch.cand_cols[j], residuals);
      // Serial argmin in index order: ties break to the lowest candidate
      // index exactly as the serial loop did.
      double best_res = std::numeric_limits<double>::infinity();
      std::size_t best_idx = 0;
      for (std::size_t c = 0; c < residuals.size(); ++c) {
        if (residuals[c] < best_res) {
          best_res = residuals[c];
          best_idx = c;
        }
      }
      reps[j] = predictions(j)[best_idx].position;
      const std::span<const double> best_col =
          scratch.cand_cols[j].column(best_idx);
      rep_cols[j].assign(best_col.begin(), best_col.end());
    }
  }

  // --- Joint stretch fit at the best combination (asynchronism test) ---
  StretchFit joint = objective.fit(reps);
  result.stretches = joint.stretches;
  result.residual = joint.residual;
  result.best.assign(reps.begin(), reps.end());

  // --- Asynchronous updating + importance sampling (Eq. 4.3) ---
  for (std::size_t j = 0; j < k; ++j) {
    // Leave-one-out activity test: how much worse does the fit get without
    // user j's column? Users outside the joint fit's support contribute
    // nothing (dropping their zero-stretch column leaves the residual
    // unchanged), so only support members need the refit.
    double improvement = 0.0;
    if (joint.stretches[j] > 0.0) {
      std::array<std::span<const double>, kMaxGramUsers> without;
      std::size_t nw = 0;
      for (std::size_t o = 0; o < k; ++o) {
        if (o != j && joint.stretches[o] > 0.0) {
          without[nw++] = rep_cols[o];
        }
      }
      const double residual_without =
          objective
              .fit_columns(
                  std::span<const std::span<const double>>(without.data(), nw))
              .residual;
      improvement =
          (residual_without - joint.residual) / objective.measured_norm();
    }
    const bool active = improvement > config_.inactive_improvement_tol;
    if (!active) {
      continue;  // s/r -> 0: leave samples and t_last untouched (§4.E)
    }

    // Rank this user's predictions by the last sweep's residuals, keep M.
    const std::span<std::size_t> order = arena.alloc<std::size_t>(n_pred);
    std::iota(order.begin(), order.end(), std::size_t{0});
    const std::size_t keep = std::min(config_.num_keep, order.size());
    std::partial_sort(order.begin(), order.begin() + static_cast<long>(keep),
                      order.end(), [&](std::size_t a, std::size_t b) {
                        return last_residuals(j)[a] < last_residuals(j)[b];
                      });

    const double eps = 1e-9 * (1.0 + objective.measured_norm());
    // Build the surviving set in arena scratch first: the importance
    // weights read the *current* particle weights via pred.origin, so the
    // SoA arrays cannot be overwritten in place.
    const std::span<Prediction> kept = arena.alloc<Prediction>(keep);
    const std::span<double> next_w = arena.alloc<double>(keep);
    double wsum = 0.0;
    for (std::size_t t = 0; t < keep; ++t) {
      const Prediction& pred = predictions(j)[order[t]];
      double w = 1.0;
      if (config_.importance_sampling) {
        const double w_origin = particles_[j].w[pred.origin];
        w = w_origin / (last_residuals(j)[order[t]] + eps);
      }
      kept[t] = pred;
      next_w[t] = w;
      wsum += w;
    }
    if (wsum <= 0.0) {
      // Degenerate weights (all origins at weight 0): fall back to uniform.
      for (double& w : next_w) {
        w = 1.0 / static_cast<double>(keep);
      }
    } else {
      for (double& w : next_w) {
        w /= wsum;
      }
    }
    ParticleSet& set = particles_[j];
    set.x.resize(keep);
    set.y.resize(keep);
    set.w.resize(keep);
    for (std::size_t t = 0; t < keep; ++t) {
      set.x[t] = kept[t].position.x;
      set.y[t] = kept[t].position.y;
      set.w[t] = next_w[t];
    }
#if defined(FLUXFP_OBS_ENABLED)
    // Effective sample size 1/sum(w^2) of the refreshed weights: a
    // degeneracy monitor (ESS -> 1 means one particle carries all mass).
    // Pure function of the weights, so it stays in the stable export.
    if (obs::enabled()) {
      double sum_sq = 0.0;
      for (double w : set.w) {
        sum_sq += w * w;
      }
      if (sum_sq > 0.0) {
        const double ess = 1.0 / sum_sq;
        FLUXFP_OBS_COUNT_OBSERVE("fluxfp_core_smc_ess",
                                 "Effective sample size after each update",
                                 std::llround(ess));
        FLUXFP_OBS_GAUGE_MAX("fluxfp_core_smc_ess_max",
                             "Largest effective sample size seen", ess);
      }
    }
#endif
    const bool had_prior_update = t_last_[j] > 0.0;
    t_last_[j] = time;
    result.updated[j] = true;
    if (config_.heading_aware) {
      const geom::Vec2 now = estimate(j);
      if (had_prior_update) {
        heading_[j] = (now - prev_estimate_[j]).normalized();
      }
      prev_estimate_[j] = now;
    }
  }

  // --- Divergence detection + recovery ---
  // A round is "bad" when the best combination still leaves most of the
  // measured norm unexplained, or when nobody accepted an update despite a
  // non-empty window. After divergence_rounds consecutive bad rounds the
  // track is lost: re-acquire from a coarse grid scan instead of letting
  // the per-round motion bound trap the filter on a dead track.
  if (config_.divergence_recovery) {
    bool any_updated = false;
    for (std::size_t j = 0; j < k; ++j) {
      any_updated = any_updated || result.updated[j];
    }
    const bool bad = result.residual > config_.divergence_fraction *
                                           objective.measured_norm() ||
                     !any_updated;
    bad_rounds_ = bad ? bad_rounds_ + 1 : 0;
    if (bad) {
      FLUXFP_OBS_COUNTER_INC("fluxfp_core_smc_bad_rounds_total",
                             "Rounds flagged by divergence detection");
    }
    if (bad_rounds_ >= config_.divergence_rounds) {
      FLUXFP_OBS_COUNTER_INC("fluxfp_core_smc_recoveries_total",
                             "Grid-scan re-acquisitions of a lost track");
      reseed_from_grid(time, objective, reps, scratch);
      const StretchFit refit = objective.fit(reps);
      result.stretches = refit.stretches;
      result.residual = refit.residual;
      result.best.assign(reps.begin(), reps.end());
      result.updated.assign(k, true);
      result.recovered = true;
      bad_rounds_ = 0;
    }
  }
  return result;
}

void SmcTracker::reseed_from_grid(double time,
                                  const SparseObjective& objective,
                                  std::span<geom::Vec2> reps,
                                  Scratch& scratch) {
  numeric::Arena& arena = scratch.arena;
  std::vector<std::vector<double>>& rep_cols = scratch.rep_cols;
  const std::size_t g = config_.recovery_grid;
  const std::span<geom::Vec2> grid = arena.alloc<geom::Vec2>(g * g);
  for (std::size_t iy = 0; iy < g; ++iy) {
    for (std::size_t ix = 0; ix < g; ++ix) {
      grid[iy * g + ix] = field_->from_unit_square(
          (static_cast<double>(ix) + 0.5) / static_cast<double>(g),
          (static_cast<double>(iy) + 0.5) / static_cast<double>(g));
    }
  }
  ColumnBlock grid_cols;
  objective.shape_columns(grid, grid_cols);
  const std::size_t k = num_users();
  const std::span<double> scores = arena.alloc<double>(grid.size());
  const std::span<std::size_t> order = arena.alloc<std::size_t>(grid.size());
  for (std::size_t j = 0; j < k; ++j) {
    std::array<std::span<const double>, kMaxGramUsers> fixed;
    std::size_t nf = 0;
    for (std::size_t o = 0; o < k; ++o) {
      if (o != j) {
        fixed[nf++] = rep_cols[o];
      }
    }
    const ConditionalFit cond(
        objective, std::span<const std::span<const double>>(fixed.data(), nf),
        nf);
    cond.evaluate_batch(grid_cols, scores);
    std::iota(order.begin(), order.end(), std::size_t{0});
    const std::size_t keep = std::min(config_.num_keep, order.size());
    std::partial_sort(order.begin(), order.begin() + static_cast<long>(keep),
                      order.end(), [&](std::size_t a, std::size_t b) {
                        return scores[a] < scores[b];
                      });
    ParticleSet& set = particles_[j];
    set.x.resize(keep);
    set.y.resize(keep);
    set.w.resize(keep);
    for (std::size_t t = 0; t < keep; ++t) {
      set.x[t] = grid[order[t]].x;
      set.y[t] = grid[order[t]].y;
      set.w[t] = 1.0 / static_cast<double>(keep);
    }
    reps[j] = grid[order[0]];
    const std::span<const double> best_col = grid_cols.column(order[0]);
    rep_cols[j].assign(best_col.begin(), best_col.end());
    t_last_[j] = time;
    heading_[j] = geom::Vec2{};
    prev_estimate_[j] = estimate(j);
  }
}

}  // namespace fluxfp::core
