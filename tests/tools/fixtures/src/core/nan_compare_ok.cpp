// Fixture: the sanctioned ways to handle the sentinel — is_missing() for
// the test, plain assignment, a comparison that only shares a line with
// it, and one justified suppressed comparison.
#include <cmath>
#include <limits>

namespace fluxfp {

inline constexpr double kMissingReading =
    std::numeric_limits<double>::quiet_NaN();

bool is_missing(double v) { return std::isnan(v); }

double clean(double reading) {
  if (is_missing(reading)) {
    return 0.0;
  }
  double out = kMissingReading;  // assignment is fine
  out = reading;
  return out;
}

double select(int r, double x) {
  return r == 0 ? kMissingReading : x;  // the sentinel is not an operand
}

double f(bool same, double fallback) { return same ? 0.0 : fallback; }

double argument(double a, double b) {
  return f(a == b, kMissingReading);  // nor here: a separate argument
}

bool suppressed(double reading) {
  // fluxfp-lint: allow(no-nan-compare) -- fixture: proves == is dead code.
  return reading == kMissingReading;
}

}  // namespace fluxfp
