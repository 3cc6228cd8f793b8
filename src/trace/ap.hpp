#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "geom/field.hpp"
#include "geom/vec2.hpp"

namespace fluxfp::trace {

/// A campus wireless access point used as a landmark reference for mobile
/// user locations (§5.C uses 50 APs of the Dartmouth data set inside a
/// rectangular region).
struct AccessPoint {
  std::size_t id = 0;
  geom::Vec2 position;
  std::string name;
};

/// `rows` x `cols` AP landmarks spread on a regular grid inside the field
/// (inset half a cell from the boundary), named "APr-c".
std::vector<AccessPoint> grid_aps(const geom::RectField& field,
                                  std::size_t rows, std::size_t cols);

/// Indices of APs within `radius` of aps[i] (excluding i) — the "walkable
/// neighbors" used by the trace generator's mobility.
std::vector<std::size_t> ap_neighbors(std::span<const AccessPoint> aps,
                                      std::size_t i, double radius);

}  // namespace fluxfp::trace
