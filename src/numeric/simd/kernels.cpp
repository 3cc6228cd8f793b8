// The only translation unit compiled with architecture flags (see
// cmake/Simd.cmake), and always with -ffp-contract=off: every formula here
// must round exactly like its scalar counterpart, so the compiler may not
// fuse multiply-adds behind our back. The rectangular-field shape has one
// scalar definition, rect_shape(), and it lives here too: FluxModel::shape
// calls it, the vector loop repeats its operation sequence lane by lane,
// and the remainder lanes call it directly, so lanes equal the scalar path
// by construction in every backend, FLUXFP_SIMD=OFF included.

#include "numeric/simd/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "numeric/simd/simd.hpp"

namespace fluxfp::numeric::simd {

bool enabled() { return kVectorBackend; }

const char* backend_name() { return kBackendName; }

std::size_t lane_count() { return kLanes; }

double dot(const double* a, const double* b, std::size_t n) {
  if (!kVectorBackend) {
    // Strict-determinism mode: the legacy serial accumulation, bit for bit.
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += a[i] * b[i];
    }
    return acc;
  }
  // Two independent accumulators hide the add latency; the reduction order
  // (acc0 of even groups, acc1 of odd groups, then (acc0+acc1) summed
  // lane-pair-wise) is fixed and deterministic, but it differs from the
  // serial order — dot results are tolerance-tested across backends.
  DoubleVec acc0 = zero();
  DoubleVec acc1 = zero();
  std::size_t i = 0;
  for (; i + 2 * kLanes <= n; i += 2 * kLanes) {
    acc0 = add(acc0, mul(load(a + i), load(b + i)));
    acc1 = add(acc1, mul(load(a + i + kLanes), load(b + i + kLanes)));
  }
  if (i + kLanes <= n) {
    acc0 = add(acc0, mul(load(a + i), load(b + i)));
    i += kLanes;
  }
  double total = reduce_add(add(acc0, acc1));
  for (; i < n; ++i) {
    total += a[i] * b[i];
  }
  return total;
}

void dot_self_and_b(const double* x, const double* b, std::size_t n,
                    double* self_out, double* xb_out) {
  if (!kVectorBackend) {
    // Identical to two legacy loops: the accumulations are independent.
    double self = 0.0;
    double xb = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      self += x[i] * x[i];
      xb += x[i] * b[i];
    }
    *self_out = self;
    *xb_out = xb;
    return;
  }
  DoubleVec self_acc = zero();
  DoubleVec xb_acc = zero();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const DoubleVec xv = load(x + i);
    self_acc = add(self_acc, mul(xv, xv));
    xb_acc = add(xb_acc, mul(xv, load(b + i)));
  }
  double self = reduce_add(self_acc);
  double xb = reduce_add(xb_acc);
  for (; i < n; ++i) {
    self += x[i] * x[i];
    xb += x[i] * b[i];
  }
  *self_out = self;
  *xb_out = xb;
}

void scale_rows(double* out, const double* scale, std::size_t n) {
  // Element-wise multiply: bit-identical in every backend.
  std::size_t i = 0;
  if (kVectorBackend) {
    for (; i + kLanes <= n; i += kLanes) {
      store(out + i, mul(load(out + i), load(scale + i)));
    }
  }
  for (; i < n; ++i) {
    out[i] *= scale[i];
  }
}

double rect_shape(double sx, double sy, double px, double py, double width,
                  double height, double d_min, double l_degenerate, double qx,
                  double qy) {
  // The ray p -> q leaves the field through the slab whose exit comes
  // first: t = b_s / |r_s| is smallest on that axis. Comparing
  // b_x*|r_y| < b_y*|r_x| picks it without a division, and the exit point
  // sits b_s along s and (b_s / r_s) * r_o along o, so
  // l^2 = b_s^2 + ((b_s / r_s) * r_o)^2. Keep that product order: the exit
  // point's offset is bounded by the field, whereas b_s * (r_o / r_s) is
  // 0 * inf = NaN for b_s = 0 and a denormal r_s.
  const double ddx = sx - qx;
  const double ddy = sy - qy;
  const double d2 = ddx * ddx + ddy * ddy;
  const double rx = qx - px;
  const double ry = qy - py;
  double l2 = l_degenerate * l_degenerate;
  if (rx * rx + ry * ry > 0.0) {
    const double bx = rx > 0.0 ? width - px : px;
    const double by = ry > 0.0 ? height - py : py;
    const double ax = std::fabs(rx);
    const double ay = std::fabs(ry);
    const bool take_x = ay == 0.0 || bx * ay < by * ax;
    const double b = take_x ? bx : by;
    const double offset = (b / (take_x ? rx : ry)) * (take_x ? ry : rx);
    l2 = b * b + offset * offset;
  }
  return std::max(l2 - d2, 0.0) / (2.0 * std::max(std::sqrt(d2), d_min));
}

namespace {

/// Scalar replica of the circular-field shape (distance ->
/// CircleField::boundary_distance -> cap). `c_const` = |p-center|^2 - R^2.
inline bool circle_shape_tail(double sx, double sy, double px, double py,
                              double ocx, double ocy, double c_const,
                              double d_min, double l_degenerate, double qx,
                              double qy, double* out) {
  if (!std::isfinite(qx) || !std::isfinite(qy)) {
    return false;
  }
  const double ddx = sx - qx;
  const double ddy = sy - qy;
  const double d = std::sqrt(ddx * ddx + ddy * ddy);
  const double rx = qx - px;
  const double ry = qy - py;
  const double n2 = rx * rx + ry * ry;
  double l = l_degenerate;
  if (n2 > 0.0) {
    const double nrm = std::sqrt(rx * rx + ry * ry);
    const double ux = rx / nrm;
    const double uy = ry / nrm;
    const double b = ux * ocx + uy * ocy;
    const double disc = std::max(b * b - c_const, 0.0);
    l = std::max(-b + std::sqrt(disc), 0.0);
  }
  const double l2_minus_d2 = std::max(l * l - d * d, 0.0);
  *out = l2_minus_d2 / (2.0 * std::max(d, d_min));
  return true;
}

/// Scalar replica of RssLinkModel::site_shape for remainder lanes —
/// operation-for-operation the same sequence as the model's scalar path,
/// so tail elements are bit-identical to full vector lanes AND to the
/// scalar fallback loop. Returns false on a non-finite endpoint.
inline bool rss_link_tail(double sx, double sy, double inv_lambda,
                          double min_link, double ax, double ay, double bx,
                          double by, double* out) {
  if (!std::isfinite(ax) || !std::isfinite(ay) || !std::isfinite(bx) ||
      !std::isfinite(by)) {
    return false;
  }
  const double dax = sx - ax;
  const double day = sy - ay;
  const double da = std::sqrt(dax * dax + day * day);
  const double dbx = sx - bx;
  const double dby = sy - by;
  const double db = std::sqrt(dbx * dbx + dby * dby);
  const double abx = ax - bx;
  const double aby = ay - by;
  const double dab = std::sqrt(abx * abx + aby * aby);
  const double excess = (da + db - dab) * inv_lambda;
  const double gate = std::max(1.0 - excess, 0.0);
  *out = gate / std::sqrt(std::max(dab, min_link));
  return true;
}

/// Scalar replica of PassiveTraceModel::site_shape for remainder lanes.
inline bool detect_tail(double sx, double sy, double inv_r2, double ax,
                        double ay, double* out) {
  if (!std::isfinite(ax) || !std::isfinite(ay)) {
    return false;
  }
  const double dx = sx - ax;
  const double dy = sy - ay;
  const double d2 = dx * dx + dy * dy;
  *out = std::max(1.0 - d2 * inv_r2, 0.0);
  return true;
}

}  // namespace

bool rect_shape_row(double sx, double sy, double px, double py, double width,
                    double height, double d_min, double l_degenerate,
                    const double* qx, const double* qy, std::size_t n,
                    double* out) {
  if (!kVectorBackend) {
    return false;  // strict-determinism mode: caller runs the scalar loop
  }
  const DoubleVec vsx = broadcast(sx);
  const DoubleVec vsy = broadcast(sy);
  const DoubleVec vpx = broadcast(px);
  const DoubleVec vpy = broadcast(py);
  // width - px, height - py and l_degenerate^2 are per-row constants;
  // hoisting them reproduces rect_shape's arithmetic exactly because the
  // operands never change.
  const DoubleVec vwx = broadcast(width - px);
  const DoubleVec vhy = broadcast(height - py);
  const DoubleVec vl2deg = broadcast(l_degenerate * l_degenerate);
  const DoubleVec vdmin = broadcast(d_min);
  const DoubleVec vtwo = broadcast(2.0);
  const DoubleVec vzero = zero();

  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const DoubleVec x = load(qx + i);
    const DoubleVec y = load(qy + i);
    // NaN/inf nodes as a lane mask: any bad lane aborts the whole row so
    // the caller's scalar loop can reproduce the throw.
    if (!all_lanes(mask_and(finite_mask(x), finite_mask(y)))) {
      return false;
    }
    const DoubleVec ddx = sub(vsx, x);
    const DoubleVec ddy = sub(vsy, y);
    const DoubleVec d2 = add(mul(ddx, ddx), mul(ddy, ddy));
    const DoubleVec rx = sub(x, vpx);
    const DoubleVec ry = sub(y, vpy);
    const DoubleVec n2 = add(mul(rx, rx), mul(ry, ry));
    const DoubleVec bx = blend(cmp_gt(rx, vzero), vwx, vpx);
    const DoubleVec by = blend(cmp_gt(ry, vzero), vhy, vpy);
    const DoubleVec ax = abs(rx);
    const DoubleVec ay = abs(ry);
    const LaneMask take_x = mask_or(cmp_eq(ay, vzero),
                                    cmp_lt(mul(bx, ay), mul(by, ax)));
    const DoubleVec b = blend(take_x, bx, by);
    const DoubleVec offset =
        mul(div(b, blend(take_x, rx, ry)), blend(take_x, ry, rx));
    // Node == clamped-sink lanes (n2 == 0, where the division above is
    // 0/0) take the nearest-boundary fallback, exactly like rect_shape.
    const DoubleVec l2 = blend(cmp_gt(n2, vzero),
                               add(mul(b, b), mul(offset, offset)), vl2deg);
    store(out + i, div(max(sub(l2, d2), vzero),
                       mul(vtwo, max(sqrt(d2), vdmin))));
  }
  for (; i < n; ++i) {
    if (!std::isfinite(qx[i]) || !std::isfinite(qy[i])) {
      return false;
    }
    out[i] = rect_shape(sx, sy, px, py, width, height, d_min, l_degenerate,
                        qx[i], qy[i]);
  }
  return true;
}

bool circle_shape_row(double sx, double sy, double px, double py, double cx,
                      double cy, double radius, double d_min,
                      double l_degenerate, const double* qx, const double* qy,
                      std::size_t n, double* out) {
  if (!kVectorBackend) {
    return false;
  }
  // oc = clamped sink - center and c = |oc|^2 - R^2 are per-row scalars,
  // computed with the same expressions as CircleField::boundary_distance.
  const double ocx = px - cx;
  const double ocy = py - cy;
  const double c_const = (ocx * ocx + ocy * ocy) - radius * radius;
  const DoubleVec vsx = broadcast(sx);
  const DoubleVec vsy = broadcast(sy);
  const DoubleVec vpx = broadcast(px);
  const DoubleVec vpy = broadcast(py);
  const DoubleVec vocx = broadcast(ocx);
  const DoubleVec vocy = broadcast(ocy);
  const DoubleVec vc = broadcast(c_const);
  const DoubleVec vldeg = broadcast(l_degenerate);
  const DoubleVec vdmin = broadcast(d_min);
  const DoubleVec vtwo = broadcast(2.0);
  const DoubleVec vzero = zero();

  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const DoubleVec x = load(qx + i);
    const DoubleVec y = load(qy + i);
    if (!all_lanes(mask_and(finite_mask(x), finite_mask(y)))) {
      return false;
    }
    const DoubleVec ddx = sub(vsx, x);
    const DoubleVec ddy = sub(vsy, y);
    const DoubleVec d = sqrt(add(mul(ddx, ddx), mul(ddy, ddy)));
    const DoubleVec rx = sub(x, vpx);
    const DoubleVec ry = sub(y, vpy);
    const DoubleVec n2 = add(mul(rx, rx), mul(ry, ry));
    const DoubleVec nrm = sqrt(n2);
    const DoubleVec ux = div(rx, nrm);
    const DoubleVec uy = div(ry, nrm);
    const DoubleVec b = add(mul(ux, vocx), mul(uy, vocy));
    const DoubleVec disc = max(sub(mul(b, b), vc), vzero);
    const DoubleVec l_ray = max(add(neg(b), sqrt(disc)), vzero);
    const DoubleVec l = blend(cmp_gt(n2, vzero), l_ray, vldeg);
    const DoubleVec l2md2 = max(sub(mul(l, l), mul(d, d)), vzero);
    store(out + i, div(l2md2, mul(vtwo, max(d, vdmin))));
  }
  for (; i < n; ++i) {
    if (!circle_shape_tail(sx, sy, px, py, ocx, ocy, c_const, d_min,
                           l_degenerate, qx[i], qy[i], out + i)) {
      return false;
    }
  }
  return true;
}

bool rss_link_shape_row(double sx, double sy, double inv_lambda,
                        double min_link, const double* ax, const double* ay,
                        const double* bx, const double* by, std::size_t n,
                        double* out) {
  if (!kVectorBackend) {
    return false;  // strict-determinism mode: caller runs the scalar loop
  }
  const DoubleVec vsx = broadcast(sx);
  const DoubleVec vsy = broadcast(sy);
  const DoubleVec vinvl = broadcast(inv_lambda);
  const DoubleVec vminl = broadcast(min_link);
  const DoubleVec vone = broadcast(1.0);
  const DoubleVec vzero = zero();

  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const DoubleVec eax = load(ax + i);
    const DoubleVec eay = load(ay + i);
    const DoubleVec ebx = load(bx + i);
    const DoubleVec eby = load(by + i);
    if (!all_lanes(mask_and(mask_and(finite_mask(eax), finite_mask(eay)),
                            mask_and(finite_mask(ebx), finite_mask(eby))))) {
      return false;
    }
    const DoubleVec dax = sub(vsx, eax);
    const DoubleVec day = sub(vsy, eay);
    const DoubleVec da = sqrt(add(mul(dax, dax), mul(day, day)));
    const DoubleVec dbx = sub(vsx, ebx);
    const DoubleVec dby = sub(vsy, eby);
    const DoubleVec db = sqrt(add(mul(dbx, dbx), mul(dby, dby)));
    const DoubleVec abx = sub(eax, ebx);
    const DoubleVec aby = sub(eay, eby);
    const DoubleVec dab = sqrt(add(mul(abx, abx), mul(aby, aby)));
    const DoubleVec excess = mul(sub(add(da, db), dab), vinvl);
    const DoubleVec gate = max(sub(vone, excess), vzero);
    store(out + i, div(gate, sqrt(max(dab, vminl))));
  }
  for (; i < n; ++i) {
    if (!rss_link_tail(sx, sy, inv_lambda, min_link, ax[i], ay[i], bx[i],
                       by[i], out + i)) {
      return false;
    }
  }
  return true;
}

bool detect_shape_row(double sx, double sy, double inv_r2, const double* ax,
                      const double* ay, std::size_t n, double* out) {
  if (!kVectorBackend) {
    return false;
  }
  const DoubleVec vsx = broadcast(sx);
  const DoubleVec vsy = broadcast(sy);
  const DoubleVec vinvr2 = broadcast(inv_r2);
  const DoubleVec vone = broadcast(1.0);
  const DoubleVec vzero = zero();

  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const DoubleVec x = load(ax + i);
    const DoubleVec y = load(ay + i);
    if (!all_lanes(mask_and(finite_mask(x), finite_mask(y)))) {
      return false;
    }
    const DoubleVec dx = sub(vsx, x);
    const DoubleVec dy = sub(vsy, y);
    const DoubleVec d2 = add(mul(dx, dx), mul(dy, dy));
    store(out + i, max(sub(vone, mul(d2, vinvr2)), vzero));
  }
  for (; i < n; ++i) {
    if (!detect_tail(sx, sy, inv_r2, ax[i], ay[i], out + i)) {
      return false;
    }
  }
  return true;
}

}  // namespace fluxfp::numeric::simd
