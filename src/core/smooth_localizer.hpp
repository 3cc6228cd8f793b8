#pragma once

#include <vector>

#include "core/nls.hpp"
#include "geom/sampling.hpp"
#include "numeric/lm.hpp"

namespace fluxfp::core {

/// Configuration of the derivative-based localizer.
struct SmoothLocalizerConfig {
  /// Independent random restarts; the lowest-residual run wins.
  int restarts = 8;
  /// Inner Levenberg–Marquardt options.
  numeric::LmOptions lm;
  /// Optional robust refit (see LocalizerConfig::robust): IRLS reweighting
  /// of the samples after the plain LM runs.
  RobustFitConfig robust;
};

/// Result of a smooth localization run.
struct SmoothLocalizationResult {
  std::vector<geom::Vec2> positions;  ///< best positions (clamped to field)
  std::vector<double> stretches;      ///< profiled s_j/r at the optimum
  double residual = 0.0;              ///< ||F - F'|| at the optimum
  bool converged = false;             ///< did the winning run converge
};

/// The classical numerical approach the paper rules out for rectangular
/// fields (§4.A): treat user coordinates as continuous parameters and run
/// Levenberg–Marquardt on the NLS objective, profiling the stretch factors
/// out by NNLS at every evaluation (variable projection).
///
/// On a CircleField the boundary-distance term l(·) is smooth and this
/// converges quickly near the optimum; on a RectField the objective is
/// only piecewise smooth, and LM stalls on the kinks — which is exactly
/// why the paper uses sampling-based fitting instead. Both behaviours are
/// measured in the ablation bench.
class SmoothLocalizer {
 public:
  /// `field` must outlive the localizer.
  explicit SmoothLocalizer(const geom::Field& field,
                           SmoothLocalizerConfig config = {});

  /// Localizes `num_users` sinks. Throws std::invalid_argument for
  /// num_users == 0 or > kMaxGramUsers.
  SmoothLocalizationResult localize(const SparseObjective& objective,
                                    std::size_t num_users,
                                    geom::Rng& rng) const;

  const SmoothLocalizerConfig& config() const { return config_; }

 private:
  const geom::Field* field_;
  SmoothLocalizerConfig config_;
};

}  // namespace fluxfp::core
