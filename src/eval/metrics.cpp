#include "eval/metrics.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "numeric/hungarian.hpp"
#include "numeric/stats.hpp"

namespace fluxfp::eval {

std::vector<std::size_t> match_estimates(std::span<const geom::Vec2> estimates,
                                         std::span<const geom::Vec2> truths) {
  if (estimates.empty() || estimates.size() != truths.size()) {
    throw std::invalid_argument("match_estimates: bad sizes");
  }
  numeric::Matrix cost(estimates.size(), truths.size());
  for (std::size_t i = 0; i < estimates.size(); ++i) {
    for (std::size_t j = 0; j < truths.size(); ++j) {
      cost(i, j) = geom::distance(estimates[i], truths[j]);
    }
  }
  return numeric::hungarian_assign(cost);
}

std::vector<double> matched_errors(std::span<const geom::Vec2> estimates,
                                   std::span<const geom::Vec2> truths) {
  const std::vector<std::size_t> assign = match_estimates(estimates, truths);
  std::vector<double> errors(estimates.size());
  for (std::size_t i = 0; i < estimates.size(); ++i) {
    errors[i] = geom::distance(estimates[i], truths[assign[i]]);
  }
  return errors;
}

double matched_mean_error(std::span<const geom::Vec2> estimates,
                          std::span<const geom::Vec2> truths) {
  const std::vector<double> errors = matched_errors(estimates, truths);
  return numeric::mean(errors);
}

double matched_max_error(std::span<const geom::Vec2> estimates,
                         std::span<const geom::Vec2> truths) {
  const std::vector<double> errors = matched_errors(estimates, truths);
  return numeric::max_value(errors);
}

}  // namespace fluxfp::eval
