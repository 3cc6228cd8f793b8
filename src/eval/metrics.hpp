#pragma once

#include <span>
#include <vector>

#include "geom/vec2.hpp"

namespace fluxfp::eval {

/// Identity-free multi-target matching: minimum-cost perfect assignment of
/// estimates to true positions under Euclidean distance. The paper scores
/// positions irrespective of identity (identities may legitimately swap
/// when trajectories cross, Fig. 7(d)).
std::vector<std::size_t> match_estimates(std::span<const geom::Vec2> estimates,
                                         std::span<const geom::Vec2> truths);

/// Mean matched distance. Throws std::invalid_argument on size mismatch or
/// empty inputs.
double matched_mean_error(std::span<const geom::Vec2> estimates,
                          std::span<const geom::Vec2> truths);

/// Maximum matched distance.
double matched_max_error(std::span<const geom::Vec2> estimates,
                         std::span<const geom::Vec2> truths);

/// All matched distances, indexed by estimate.
std::vector<double> matched_errors(std::span<const geom::Vec2> estimates,
                                   std::span<const geom::Vec2> truths);

}  // namespace fluxfp::eval
