#pragma once

#include <cstddef>

// Vectorized inner-loop kernels behind a plain-function interface: the
// rest of the tree calls these without ever seeing an intrinsic type, so
// every translation unit outside src/numeric/simd/ compiles identically
// under every backend. The single implementation TU (kernels.cpp) is the
// only file compiled with architecture flags, and always with
// -ffp-contract=off — no hidden FMA contraction can make a "bit-identical
// element-wise kernel" quietly diverge from the scalar formula.
//
// Numeric contract (DESIGN.md §14):
//  * In the scalar backend (FLUXFP_SIMD=OFF), dot()/dot_self_and_b()/
//    scale_rows() run the serial accumulation loops, and the shape kernels
//    report "not handled" so callers take the scalar shape path. A scalar
//    build reproduces the committed scalar-baseline fixture
//    (tests/core/testdata/smc_scalar_baseline.txt) bit for bit. This is
//    the strict-determinism mode.
//  * The rectangular-field shape has ONE scalar definition, rect_shape()
//    below, compiled in this TU: FluxModel::shape calls it, and
//    rect_shape_row's lanes repeat its operation sequence, so lanes equal
//    the scalar path by construction. It costs 1 square root and 2
//    divisions per pair. The circle kernel is element-wise over lanes with
//    the same operation sequence as FluxModel::shape's generic
//    composition. Dot products use multi-lane accumulators, which changes
//    the summation ORDER (not the inputs) — those results are
//    equivalence-tested under a tolerance, never assumed bit-equal across
//    backends.
//  * Non-finite inputs (NaN missing-reading sentinels, inf) are detected
//    via lane masks and make the shape kernels return false; out[] may
//    hold partial results for the lane groups already processed. The
//    caller falls back to the scalar loop, which preserves the legacy
//    throw-on-non-finite behavior exactly (and itself leaves partial
//    writes behind when it throws).

namespace fluxfp::numeric::simd {

/// True when a vector backend (AVX2/SSE2/NEON) was selected at configure
/// time; false for the scalar strict-determinism build.
bool enabled();

/// "avx2", "sse2", "neon", or "scalar".
const char* backend_name();

/// Vector width in doubles (1 for the scalar backend).
std::size_t lane_count();

/// sum_i a[i] * b[i]. Scalar backend: the legacy serial accumulation.
double dot(const double* a, const double* b, std::size_t n);

/// One-pass fused self- and cross-product: *self_out = sum x[i]^2,
/// *xb_out = sum x[i] * b[i]. The two accumulations are independent, so
/// the scalar backend's fused loop is bit-identical to two separate
/// legacy loops.
void dot_self_and_b(const double* x, const double* b, std::size_t n,
                    double* self_out, double* xb_out);

/// out[i] *= scale[i] — the reweighted-objective row scaling.
void scale_rows(double* out, const double* scale, std::size_t n);

/// The rectangular-field shape phi(sink, q) = max(l^2 - d^2, 0) /
/// (2 max(d, d_min)) for the [0,width] x [0,height] field: (sx, sy) is the
/// raw sink, (px, py) = clamp(sink), and l_degenerate is the field's
/// nearest-boundary distance at the clamped sink (used as l when q == p).
/// With r = q - p and b_s the distance from p to the wall that r points
/// at on axis s, the ray exits through the x slab when r_y == 0 or
/// b_x |r_y| < b_y |r_x| (else y), and l^2 = b_s^2 + ((b_s / r_s) r_o)^2
/// for the taken axis s and the other axis o; d^2 is used as is. One
/// square root (for d) and two divisions. Inputs must be finite (callers
/// check).
double rect_shape(double sx, double sy, double px, double py, double width,
                  double height, double d_min, double l_degenerate, double qx,
                  double qy);

/// Rectangular-field shape row: out[i] equals rect_shape() at the same
/// row constants and (qx[i], qy[i]), bit for bit. Returns false — leaving
/// out[] in an unspecified state — when the backend is scalar or any input
/// coordinate is non-finite; the caller must then run the scalar
/// FluxModel::shape loop.
bool rect_shape_row(double sx, double sy, double px, double py, double width,
                    double height, double d_min, double l_degenerate,
                    const double* qx, const double* qy, std::size_t n,
                    double* out);

/// Circular-field shape row; (cx, cy) is the field center, radius its
/// radius. Same contract as rect_shape_row.
bool circle_shape_row(double sx, double sy, double px, double py, double cx,
                      double cy, double radius, double d_min,
                      double l_degenerate, const double* qx, const double* qy,
                      std::size_t n, double* out);

/// RSS link-attenuation shape row (core::RssLinkModel): out[i] is the
/// ellipse-gated link-shadowing weight of the sink (sx, sy) on the link
/// with endpoints (ax[i], ay[i])-(bx[i], by[i]). Same return-false
/// contract as rect_shape_row (scalar backend or non-finite endpoint).
bool rss_link_shape_row(double sx, double sy, double inv_lambda,
                        double min_link, const double* ax, const double* ay,
                        const double* bx, const double* by, std::size_t n,
                        double* out);

/// Passive-detection shape row (core::PassiveTraceModel): out[i] is the
/// truncated-quadratic detection kernel of the sink (sx, sy) at the
/// sniffer (ax[i], ay[i]), inv_r2 = 1 / R^2. Same return-false contract
/// as rect_shape_row.
bool detect_shape_row(double sx, double sy, double inv_r2, const double* ax,
                      const double* ay, std::size_t n, double* out);

}  // namespace fluxfp::numeric::simd
