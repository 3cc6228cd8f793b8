// Fixture: direct comparisons against the NaN sentinel. Every one is a
// bug — kMissingReading is a NaN, so == is always false.
#include <limits>

namespace fluxfp {

inline constexpr double kMissingReading =
    std::numeric_limits<double>::quiet_NaN();

bool broken_eq(double reading) {
  return reading == kMissingReading;  // line 11: flagged
}

bool broken_ne(double reading) {
  return kMissingReading != reading;  // line 15: flagged
}

bool broken_raw(double reading) {
  return reading == std::numeric_limits<double>::quiet_NaN();  // line 19
}

double broken_selector(double reading) {
  return (reading == kMissingReading) ? 1.0 : 0.0;  // line 23: flagged
}

}  // namespace fluxfp
