#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "geom/field.hpp"
#include "geom/vec2.hpp"

namespace fluxfp::geom {

/// The RNG engine used throughout the library. All stochastic components
/// take an engine (or a seed) explicitly so experiments are reproducible.
using Rng = std::mt19937_64;

/// Uniform point in the rectangle [0,w] x [0,h].
Vec2 uniform_in_field(const Field& field, Rng& rng);

/// Uniform point in the closed disc of radius `radius` around `center`
/// (area-uniform, via sqrt radius sampling).
Vec2 uniform_in_disc(Vec2 center, double radius, Rng& rng);

/// Uniform point in the disc around `center` intersected with `field`.
/// Rejection-samples; falls back to clamping after `max_tries` rejections
/// (only reachable when the intersection is a sliver).
Vec2 uniform_in_disc_clipped(Vec2 center, double radius,
                             const Field& field, Rng& rng,
                             int max_tries = 64);

/// `count` i.i.d. uniform points in the field.
std::vector<Vec2> uniform_points(const Field& field, std::size_t count,
                                 Rng& rng);

}  // namespace fluxfp::geom
