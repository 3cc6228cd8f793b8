#include "core/smooth_localizer.hpp"

#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

#include "numeric/arena.hpp"
#include "numeric/parallel.hpp"

namespace fluxfp::core {

SmoothLocalizer::SmoothLocalizer(const geom::Field& field,
                                 SmoothLocalizerConfig config)
    : field_(&field), config_(config) {
  if (config_.restarts <= 0) {
    throw std::invalid_argument("SmoothLocalizer: restarts must be > 0");
  }
}

namespace {

/// One LM multi-restart pass against `objective`.
SmoothLocalizationResult smooth_search(const geom::Field& field,
                                       const SmoothLocalizerConfig& config,
                                       const SparseObjective& objective,
                                       std::size_t num_users, geom::Rng& rng);

}  // namespace

SmoothLocalizationResult SmoothLocalizer::localize(
    const SparseObjective& objective, std::size_t num_users,
    geom::Rng& rng) const {
  if (num_users == 0 || num_users > kMaxGramUsers) {
    throw std::invalid_argument("SmoothLocalizer: bad user count");
  }
  SmoothLocalizationResult result =
      smooth_search(*field_, config_, objective, num_users, rng);
  if (config_.robust.loss == RobustLoss::kNone ||
      objective.sample_count() == 0) {
    return result;
  }
  for (int round = 0; round < config_.robust.reweight_rounds; ++round) {
    const std::vector<double> r =
        objective.residuals_at(result.positions, result.stretches);
    const SparseObjective weighted =
        objective.reweighted(robust_weights(r, config_.robust));
    result = smooth_search(*field_, config_, weighted, num_users, rng);
  }
  StretchFit plain = objective.fit(result.positions);
  result.stretches = std::move(plain.stretches);
  result.residual = plain.residual;
  return result;
}

namespace {

SmoothLocalizationResult smooth_search(const geom::Field& field,
                                       const SmoothLocalizerConfig& config,
                                       const SparseObjective& objective,
                                       std::size_t num_users, geom::Rng& rng) {
  const geom::Field* field_ = &field;
  const SmoothLocalizerConfig& config_ = config;
  const std::size_t n = objective.sample_count();

  // Variable-projection residual: theta = [x1 y1 ... xK yK]; the stretch
  // factors are profiled out by the exact NNLS at every evaluation, so the
  // residual vector is F(theta, s*(theta)) - F'.
  const auto residual_fn =
      [&](const std::vector<double>& theta) -> std::vector<double> {
    // Per-worker arena, reset every evaluation: LM calls this inside its
    // iteration loop, so the sink/column scratch here used to dominate the
    // allocator traffic of a smooth localization.
    thread_local numeric::Arena arena;
    arena.reset();
    const std::span<geom::Vec2> sinks = arena.alloc<geom::Vec2>(num_users);
    for (std::size_t j = 0; j < num_users; ++j) {
      sinks[j] = field_->clamp({theta[2 * j], theta[2 * j + 1]});
    }
    const std::span<double> col_storage = arena.alloc<double>(num_users * n);
    const std::span<std::span<const double>> cols =
        arena.alloc<std::span<const double>>(num_users);
    for (std::size_t j = 0; j < num_users; ++j) {
      const std::span<double> col = col_storage.subspan(j * n, n);
      objective.shape_column(sinks[j], col);
      cols[j] = col;
    }
    const StretchFit fit = objective.fit_columns(cols);
    std::vector<double> r(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      double predicted = 0.0;
      for (std::size_t j = 0; j < num_users; ++j) {
        predicted += fit.stretches[j] * cols[j][i];
      }
      r[i] = predicted - objective.measured()[i];
    }
    return r;
  };

  // Pre-draw every restart's initial theta on the calling thread, in the
  // order the serial loop consumed the RNG stream; the LM iterations
  // themselves are deterministic, so the restarts can then fan out over
  // the thread pool without changing any result bit.
  const std::size_t restarts = static_cast<std::size_t>(config_.restarts);
  std::vector<std::vector<double>> thetas(restarts);
  for (std::vector<double>& theta : thetas) {
    theta.reserve(2 * num_users);
    for (std::size_t j = 0; j < num_users; ++j) {
      const geom::Vec2 p = geom::uniform_in_field(*field_, rng);
      theta.push_back(p.x);
      theta.push_back(p.y);
    }
  }

  std::vector<numeric::LmResult> runs(restarts);
  numeric::parallel_for(0, restarts, [&](std::size_t restart) {
    runs[restart] = numeric::levenberg_marquardt(
        residual_fn, std::move(thetas[restart]), config_.lm);
  });

  // Winner selection stays serial and in restart order (strict <, so ties
  // keep resolving to the earliest restart, as in the serial loop).
  SmoothLocalizationResult best;
  best.residual = std::numeric_limits<double>::infinity();
  for (const numeric::LmResult& run : runs) {
    const double res_norm = std::sqrt(2.0 * run.cost);
    if (res_norm < best.residual) {
      best.residual = res_norm;
      best.converged = run.converged;
      best.positions.clear();
      for (std::size_t j = 0; j < num_users; ++j) {
        best.positions.push_back(
            field_->clamp({run.params[2 * j], run.params[2 * j + 1]}));
      }
      best.stretches = objective.fit(best.positions).stretches;
    }
  }
  return best;
}

}  // namespace

}  // namespace fluxfp::core
