#include "core/localizer.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>

#include "numeric/arena.hpp"
#include "numeric/parallel.hpp"
#include "obs/instrument.hpp"

namespace fluxfp::core {
namespace {

struct ScoredCandidate {
  geom::Vec2 position;
  double residual;
  double stretch;  ///< fitted s/r of the candidate's own user
};

/// Keeps the `m` lowest-residual candidates, best first. Candidates whose
/// fitted stretch collapsed to ~0 are dropped first (when possible): their
/// residual is insensitive to position, so they rank arbitrarily — the
/// "outlier reports" the paper filters out by majority (§5.A).
void keep_top(std::vector<ScoredCandidate>& cands, std::size_t m) {
  double max_stretch = 0.0;
  for (const ScoredCandidate& c : cands) {
    max_stretch = std::max(max_stretch, c.stretch);
  }
  const double floor = 0.02 * max_stretch;
  std::vector<ScoredCandidate> filtered;
  filtered.reserve(cands.size());
  for (const ScoredCandidate& c : cands) {
    if (c.stretch > floor) {
      filtered.push_back(c);
    }
  }
  if (!filtered.empty()) {
    cands = std::move(filtered);
  }
  const std::size_t keep = std::min(m, cands.size());
  std::partial_sort(cands.begin(), cands.begin() + static_cast<long>(keep),
                    cands.end(), [](const auto& a, const auto& b) {
                      return a.residual < b.residual;
                    });
  cands.resize(keep);
}

}  // namespace

InstantLocalizer::InstantLocalizer(const geom::Field& field,
                                   LocalizerConfig config)
    : field_(&field), config_(config) {
  if (config_.candidates_per_user == 0 || config_.top_m == 0 ||
      config_.sweeps <= 0 || config_.restarts <= 0) {
    throw std::invalid_argument("InstantLocalizer: bad config");
  }
}

LocalizationResult InstantLocalizer::localize(
    const SparseObjective& objective, std::size_t num_users,
    geom::Rng& rng) const {
  if (num_users == 0 || num_users > kMaxGramUsers) {
    throw std::invalid_argument("InstantLocalizer: bad user count");
  }
  LocalizationResult result = search(objective, num_users, rng);
  if (config_.robust.loss == RobustLoss::kNone ||
      objective.sample_count() == 0) {
    return result;
  }
  // Robust refinement: downweight outlier readings at the current best and
  // re-run the search on the reweighted objective. Byzantine sniffers get
  // huge residuals at a near-correct fit, so a round or two of IRLS
  // removes their pull on the position estimates.
  FLUXFP_OBS_COUNTER_INC("fluxfp_core_localizer_robust_refits_total",
                         "Localizations that entered IRLS refinement");
  for (int round = 0; round < config_.robust.reweight_rounds; ++round) {
    FLUXFP_OBS_COUNTER_INC("fluxfp_core_localizer_irls_rounds_total",
                           "IRLS reweight-and-research rounds run");
    const std::vector<double> r =
        objective.residuals_at(result.positions, result.stretches);
    const SparseObjective weighted =
        objective.reweighted(robust_weights(r, config_.robust));
    result = search(weighted, num_users, rng);
  }
  // Report stretches/residual on the unweighted objective for
  // comparability; positions come from the robust search.
  StretchFit plain = objective.fit(result.positions);
  result.stretches = std::move(plain.stretches);
  result.residual = plain.residual;
  return result;
}

LocalizationResult InstantLocalizer::search(
    const SparseObjective& objective, std::size_t num_users,
    geom::Rng& rng) const {
  const int restarts = num_users == 1 ? 1 : config_.restarts;
  const int sweeps = num_users == 1 ? 1 : config_.sweeps;
  const std::size_t per_sweep =
      std::max<std::size_t>(config_.candidates_per_user /
                                static_cast<std::size_t>(sweeps),
                            1);

  // Pre-draw every random position on the calling thread, in exactly the
  // order the serial search historically consumed the stream (restart
  // init, then sweep-by-sweep, user-by-user candidates). The draws never
  // depended on evaluation results, so the pre-drawn plan reproduces the
  // serial implementation's stream bit for bit — and frees the restarts
  // to run in parallel with purely deterministic work.
  struct RestartPlan {
    std::vector<geom::Vec2> init;                     // one per user
    std::vector<std::vector<geom::Vec2>> candidates;  // [sweep*K + j]
  };
  std::vector<RestartPlan> plans(restarts);
  for (RestartPlan& plan : plans) {
    plan.init.resize(num_users);
    for (std::size_t j = 0; j < num_users; ++j) {
      plan.init[j] = geom::uniform_in_field(*field_, rng);
    }
    plan.candidates.resize(static_cast<std::size_t>(sweeps) * num_users);
    for (int sweep = 0; sweep < sweeps; ++sweep) {
      for (std::size_t j = 0; j < num_users; ++j) {
        std::vector<geom::Vec2>& cand =
            plan.candidates[static_cast<std::size_t>(sweep) * num_users + j];
        cand.resize(per_sweep);
        for (std::size_t c = 0; c < per_sweep; ++c) {
          cand[c] = geom::uniform_in_field(*field_, rng);
        }
      }
    }
  }

  struct RestartOutcome {
    std::vector<geom::Vec2> positions;
    std::vector<std::vector<ScoredCandidate>> last_scores;
    double residual = std::numeric_limits<double>::infinity();
  };
  std::vector<RestartOutcome> outcomes(restarts);

  // Multi-start search: restarts fan out over the thread pool (nested
  // batch evaluation degrades to serial inside a worker; with a single
  // restart the inner candidate batches parallelize instead).
  numeric::parallel_for(0, static_cast<std::size_t>(restarts),
                        [&](std::size_t restart) {
    const RestartPlan& plan = plans[restart];
    RestartOutcome& outcome = outcomes[restart];
    // Per-worker scratch, reused across restarts and calls: the arena is
    // reset at each restart, so the columns and batch-score buffers below
    // live for one restart and then vanish without ever hitting the heap,
    // and the candidate block keeps its high-water capacity, so a warm
    // worker allocates no block (a 10k-candidate block is megabytes).
    thread_local numeric::Arena arena;
    thread_local ColumnBlock block;
    arena.reset();
    const std::size_t n = objective.sample_count();
    // Current combination and cached shape columns.
    std::vector<geom::Vec2> positions = plan.init;
    const std::span<double> col_storage = arena.alloc<double>(num_users * n);
    std::array<std::span<double>, kMaxGramUsers> columns;
    for (std::size_t j = 0; j < num_users; ++j) {
      columns[j] = col_storage.subspan(j * n, n);
      objective.shape_column(positions[j], columns[j]);
    }

    outcome.last_scores.resize(num_users);
    const std::span<double> residuals = arena.alloc<double>(per_sweep);
    const std::span<double> stretches = arena.alloc<double>(per_sweep);

    for (int sweep = 0; sweep < sweeps; ++sweep) {
      for (std::size_t j = 0; j < num_users; ++j) {
        // Fix all other users' columns; sweep user j's candidates.
        std::array<std::span<const double>, kMaxGramUsers> fixed;
        std::size_t nf = 0;
        for (std::size_t o = 0; o < num_users; ++o) {
          if (o != j) {
            fixed[nf++] = columns[o];
          }
        }
        const ConditionalFit cond(
            objective,
            std::span<const std::span<const double>>(fixed.data(), nf), j);

        const std::vector<geom::Vec2>& cand =
            plan.candidates[static_cast<std::size_t>(sweep) * num_users + j];
        objective.shape_columns(cand, block);
        cond.evaluate_batch(block, residuals, stretches);

        std::vector<ScoredCandidate> scored;
        scored.reserve(per_sweep + 1);
        // Keep the incumbent so a sweep can never regress.
        const StretchFit inc = cond.evaluate(columns[j]);
        scored.push_back({positions[j], inc.residual, inc.stretches[j]});
        for (std::size_t c = 0; c < per_sweep; ++c) {
          scored.push_back({cand[c], residuals[c], stretches[c]});
        }
        keep_top(scored, std::max(config_.top_m, std::size_t{1}));

        positions[j] = scored.front().position;
        objective.shape_column(positions[j],
                               std::span<double>(columns[j]));
        outcome.residual = scored.front().residual;
        if (sweep == sweeps - 1) {
          outcome.last_scores[j] = std::move(scored);
        }
      }
    }
    outcome.positions = std::move(positions);
  });

  // Winner selection stays serial and in restart order — including the
  // historical quirk that a restart's sweep residual is compared against
  // the incumbent winner's *joint-fit* residual — so the selected restart
  // matches the serial implementation exactly.
  LocalizationResult best_result;
  best_result.residual = std::numeric_limits<double>::infinity();
  for (RestartOutcome& outcome : outcomes) {
    if (outcome.residual < best_result.residual) {
      StretchFit fit = objective.fit(outcome.positions);
      best_result.positions = outcome.positions;
      best_result.stretches = std::move(fit.stretches);
      best_result.residual = fit.residual;
      best_result.top_positions.assign(num_users, {});
      best_result.top_residuals.assign(num_users, {});
      for (std::size_t j = 0; j < num_users; ++j) {
        for (const ScoredCandidate& s : outcome.last_scores[j]) {
          best_result.top_positions[j].push_back(s.position);
          best_result.top_residuals[j].push_back(s.residual);
        }
      }
    }
  }
  return best_result;
}

}  // namespace fluxfp::core
