#pragma once

// The portable fixed-width SIMD vocabulary: DoubleVec, kLanes, and the
// element-wise operations the kernels compose. This is the ONLY header in
// the tree allowed to include raw intrinsic headers — the fluxfp-lint
// no-raw-intrinsics rule confines <immintrin.h>/<arm_neon.h> and compiler
// vector builtins to src/numeric/simd/ so backend portability stays
// auditable in one place.
//
// Backend selection happens at configure time (cmake/Simd.cmake): exactly
// one of FLUXFP_SIMD_AVX2 / FLUXFP_SIMD_SSE2 / FLUXFP_SIMD_NEON is defined
// for the kernel translation unit, or none for the scalar fallback. Only
// kernels.cpp may include this header; everything else consumes the plain
// function interface in kernels.hpp, so the rest of the tree compiles
// identically under every backend.
//
// Semantics notes (these are what the equivalence tests pin):
//  * add/sub/mul/div/sqrt are IEEE-754 correctly rounded per lane, so an
//    element-wise kernel produces bit-identical values to the scalar code
//    it replaces (the kernel TU is compiled with -ffp-contract=off, so no
//    backend sneaks an FMA into a formula the scalar path evaluates with
//    separate roundings).
//  * min/max follow the hardware select semantics: (a OP b) ? a : b, with
//    the second operand returned on a NaN. Kernels must therefore order
//    operands so NaNs cannot reach a min/max whose result survives — the
//    shape kernels reject non-finite inputs up front instead.
//  * Comparisons produce full-lane masks; blend(mask, a, b) selects a
//    where the mask is set, b elsewhere.

#include <cmath>
#include <cstddef>

#if defined(FLUXFP_SIMD_AVX2)
#include <immintrin.h>
#elif defined(FLUXFP_SIMD_SSE2)
#include <emmintrin.h>
#elif defined(FLUXFP_SIMD_NEON)
#include <arm_neon.h>
#endif

namespace fluxfp::numeric::simd {

#if defined(FLUXFP_SIMD_AVX2)

inline constexpr std::size_t kLanes = 4;
inline constexpr bool kVectorBackend = true;
inline constexpr const char* kBackendName = "avx2";

struct DoubleVec {
  __m256d v;
};

inline DoubleVec load(const double* p) { return {_mm256_loadu_pd(p)}; }
inline void store(double* p, DoubleVec a) { _mm256_storeu_pd(p, a.v); }
inline DoubleVec broadcast(double x) { return {_mm256_set1_pd(x)}; }
inline DoubleVec zero() { return {_mm256_setzero_pd()}; }
inline DoubleVec add(DoubleVec a, DoubleVec b) {
  return {_mm256_add_pd(a.v, b.v)};
}
inline DoubleVec sub(DoubleVec a, DoubleVec b) {
  return {_mm256_sub_pd(a.v, b.v)};
}
inline DoubleVec mul(DoubleVec a, DoubleVec b) {
  return {_mm256_mul_pd(a.v, b.v)};
}
inline DoubleVec div(DoubleVec a, DoubleVec b) {
  return {_mm256_div_pd(a.v, b.v)};
}
inline DoubleVec sqrt(DoubleVec a) { return {_mm256_sqrt_pd(a.v)}; }
inline DoubleVec min(DoubleVec a, DoubleVec b) {
  return {_mm256_min_pd(a.v, b.v)};
}
inline DoubleVec max(DoubleVec a, DoubleVec b) {
  return {_mm256_max_pd(a.v, b.v)};
}
/// Exact IEEE negation (sign-bit flip; -0.0 behaves like scalar `-x`).
inline DoubleVec neg(DoubleVec a) {
  return {_mm256_xor_pd(a.v, _mm256_set1_pd(-0.0))};
}
/// Exact absolute value (sign-bit clear, like std::fabs).
inline DoubleVec abs(DoubleVec a) {
  return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)};
}

struct LaneMask {
  __m256d m;
};

inline LaneMask cmp_gt(DoubleVec a, DoubleVec b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)};
}
inline LaneMask cmp_lt(DoubleVec a, DoubleVec b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
}
inline LaneMask cmp_eq(DoubleVec a, DoubleVec b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_EQ_OQ)};
}
inline LaneMask mask_and(LaneMask a, LaneMask b) {
  return {_mm256_and_pd(a.m, b.m)};
}
inline LaneMask mask_or(LaneMask a, LaneMask b) {
  return {_mm256_or_pd(a.m, b.m)};
}
/// a where the mask lane is set, b elsewhere.
inline DoubleVec blend(LaneMask mask, DoubleVec a, DoubleVec b) {
  return {_mm256_blendv_pd(b.v, a.v, mask.m)};
}
inline bool all_lanes(LaneMask mask) {
  return _mm256_movemask_pd(mask.m) == 0xF;
}
inline bool any_lane(LaneMask mask) {
  return _mm256_movemask_pd(mask.m) != 0;
}
/// Deterministic horizontal sum: ((l0 + l1) + (l2 + l3)) regardless of
/// build flags — the reduction order is part of the numeric contract.
inline double reduce_add(DoubleVec a) {
  const __m128d lo = _mm256_castpd256_pd128(a.v);
  const __m128d hi = _mm256_extractf128_pd(a.v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);  // {l0+l2, l1+l3}
  const __m128d swap = _mm_unpackhi_pd(pair, pair);
  return _mm_cvtsd_f64(_mm_add_sd(pair, swap));  // (l0+l2) + (l1+l3)
}

#elif defined(FLUXFP_SIMD_SSE2)

inline constexpr std::size_t kLanes = 2;
inline constexpr bool kVectorBackend = true;
inline constexpr const char* kBackendName = "sse2";

struct DoubleVec {
  __m128d v;
};

inline DoubleVec load(const double* p) { return {_mm_loadu_pd(p)}; }
inline void store(double* p, DoubleVec a) { _mm_storeu_pd(p, a.v); }
inline DoubleVec broadcast(double x) { return {_mm_set1_pd(x)}; }
inline DoubleVec zero() { return {_mm_setzero_pd()}; }
inline DoubleVec add(DoubleVec a, DoubleVec b) { return {_mm_add_pd(a.v, b.v)}; }
inline DoubleVec sub(DoubleVec a, DoubleVec b) { return {_mm_sub_pd(a.v, b.v)}; }
inline DoubleVec mul(DoubleVec a, DoubleVec b) { return {_mm_mul_pd(a.v, b.v)}; }
inline DoubleVec div(DoubleVec a, DoubleVec b) { return {_mm_div_pd(a.v, b.v)}; }
inline DoubleVec sqrt(DoubleVec a) { return {_mm_sqrt_pd(a.v)}; }
inline DoubleVec min(DoubleVec a, DoubleVec b) { return {_mm_min_pd(a.v, b.v)}; }
inline DoubleVec max(DoubleVec a, DoubleVec b) { return {_mm_max_pd(a.v, b.v)}; }
inline DoubleVec neg(DoubleVec a) {
  return {_mm_xor_pd(a.v, _mm_set1_pd(-0.0))};
}
inline DoubleVec abs(DoubleVec a) {
  return {_mm_andnot_pd(_mm_set1_pd(-0.0), a.v)};
}

struct LaneMask {
  __m128d m;
};

inline LaneMask cmp_gt(DoubleVec a, DoubleVec b) {
  return {_mm_cmpgt_pd(a.v, b.v)};
}
inline LaneMask cmp_lt(DoubleVec a, DoubleVec b) {
  return {_mm_cmplt_pd(a.v, b.v)};
}
inline LaneMask cmp_eq(DoubleVec a, DoubleVec b) {
  return {_mm_cmpeq_pd(a.v, b.v)};
}
inline LaneMask mask_and(LaneMask a, LaneMask b) {
  return {_mm_and_pd(a.m, b.m)};
}
inline LaneMask mask_or(LaneMask a, LaneMask b) {
  return {_mm_or_pd(a.m, b.m)};
}
inline DoubleVec blend(LaneMask mask, DoubleVec a, DoubleVec b) {
  return {_mm_or_pd(_mm_and_pd(mask.m, a.v), _mm_andnot_pd(mask.m, b.v))};
}
inline bool all_lanes(LaneMask mask) { return _mm_movemask_pd(mask.m) == 0x3; }
inline bool any_lane(LaneMask mask) { return _mm_movemask_pd(mask.m) != 0; }
inline double reduce_add(DoubleVec a) {
  const __m128d swap = _mm_unpackhi_pd(a.v, a.v);
  return _mm_cvtsd_f64(_mm_add_sd(a.v, swap));  // l0 + l1
}

#elif defined(FLUXFP_SIMD_NEON)

inline constexpr std::size_t kLanes = 2;
inline constexpr bool kVectorBackend = true;
inline constexpr const char* kBackendName = "neon";

struct DoubleVec {
  float64x2_t v;
};

inline DoubleVec load(const double* p) { return {vld1q_f64(p)}; }
inline void store(double* p, DoubleVec a) { vst1q_f64(p, a.v); }
inline DoubleVec broadcast(double x) { return {vdupq_n_f64(x)}; }
inline DoubleVec zero() { return {vdupq_n_f64(0.0)}; }
inline DoubleVec add(DoubleVec a, DoubleVec b) { return {vaddq_f64(a.v, b.v)}; }
inline DoubleVec sub(DoubleVec a, DoubleVec b) { return {vsubq_f64(a.v, b.v)}; }
inline DoubleVec mul(DoubleVec a, DoubleVec b) { return {vmulq_f64(a.v, b.v)}; }
inline DoubleVec div(DoubleVec a, DoubleVec b) { return {vdivq_f64(a.v, b.v)}; }
inline DoubleVec sqrt(DoubleVec a) { return {vsqrtq_f64(a.v)}; }
/// NEON vminq/vmaxq propagate NaN from either operand; emulate the x86
/// "(a OP b) ? a : b" select so every backend shares one semantic.
inline DoubleVec min(DoubleVec a, DoubleVec b) {
  return {vbslq_f64(vcltq_f64(a.v, b.v), a.v, b.v)};
}
inline DoubleVec max(DoubleVec a, DoubleVec b) {
  return {vbslq_f64(vcgtq_f64(a.v, b.v), a.v, b.v)};
}
inline DoubleVec neg(DoubleVec a) { return {vnegq_f64(a.v)}; }
inline DoubleVec abs(DoubleVec a) { return {vabsq_f64(a.v)}; }

struct LaneMask {
  uint64x2_t m;
};

inline LaneMask cmp_gt(DoubleVec a, DoubleVec b) {
  return {vcgtq_f64(a.v, b.v)};
}
inline LaneMask cmp_lt(DoubleVec a, DoubleVec b) {
  return {vcltq_f64(a.v, b.v)};
}
inline LaneMask cmp_eq(DoubleVec a, DoubleVec b) {
  return {vceqq_f64(a.v, b.v)};
}
inline LaneMask mask_and(LaneMask a, LaneMask b) {
  return {vandq_u64(a.m, b.m)};
}
inline LaneMask mask_or(LaneMask a, LaneMask b) {
  return {vorrq_u64(a.m, b.m)};
}
inline DoubleVec blend(LaneMask mask, DoubleVec a, DoubleVec b) {
  return {vbslq_f64(mask.m, a.v, b.v)};
}
inline bool all_lanes(LaneMask mask) {
  return vgetq_lane_u64(mask.m, 0) != 0 && vgetq_lane_u64(mask.m, 1) != 0;
}
inline bool any_lane(LaneMask mask) {
  return vgetq_lane_u64(mask.m, 0) != 0 || vgetq_lane_u64(mask.m, 1) != 0;
}
inline double reduce_add(DoubleVec a) {
  return vgetq_lane_f64(a.v, 0) + vgetq_lane_f64(a.v, 1);  // l0 + l1
}

#else  // scalar fallback

inline constexpr std::size_t kLanes = 1;
inline constexpr bool kVectorBackend = false;
inline constexpr const char* kBackendName = "scalar";

struct DoubleVec {
  double v;
};

inline DoubleVec load(const double* p) { return {*p}; }
inline void store(double* p, DoubleVec a) { *p = a.v; }
inline DoubleVec broadcast(double x) { return {x}; }
inline DoubleVec zero() { return {0.0}; }
inline DoubleVec add(DoubleVec a, DoubleVec b) { return {a.v + b.v}; }
inline DoubleVec sub(DoubleVec a, DoubleVec b) { return {a.v - b.v}; }
inline DoubleVec mul(DoubleVec a, DoubleVec b) { return {a.v * b.v}; }
inline DoubleVec div(DoubleVec a, DoubleVec b) { return {a.v / b.v}; }
inline DoubleVec sqrt(DoubleVec a) { return {std::sqrt(a.v)}; }
inline DoubleVec min(DoubleVec a, DoubleVec b) {
  return {a.v < b.v ? a.v : b.v};
}
inline DoubleVec max(DoubleVec a, DoubleVec b) {
  return {a.v > b.v ? a.v : b.v};
}
inline DoubleVec neg(DoubleVec a) { return {-a.v}; }
inline DoubleVec abs(DoubleVec a) { return {std::fabs(a.v)}; }

struct LaneMask {
  bool m;
};

inline LaneMask cmp_gt(DoubleVec a, DoubleVec b) { return {a.v > b.v}; }
inline LaneMask cmp_lt(DoubleVec a, DoubleVec b) { return {a.v < b.v}; }
inline LaneMask cmp_eq(DoubleVec a, DoubleVec b) { return {a.v == b.v}; }
inline LaneMask mask_and(LaneMask a, LaneMask b) { return {a.m && b.m}; }
inline LaneMask mask_or(LaneMask a, LaneMask b) { return {a.m || b.m}; }
inline DoubleVec blend(LaneMask mask, DoubleVec a, DoubleVec b) {
  return {mask.m ? a.v : b.v};
}
inline bool all_lanes(LaneMask mask) { return mask.m; }
inline bool any_lane(LaneMask mask) { return mask.m; }
inline double reduce_add(DoubleVec a) { return a.v; }

#endif

/// NaN/missing-reading lane mask: set where the lane holds a finite value.
/// x - x is 0 for finite lanes and NaN for NaN/inf lanes, so a single
/// subtract + compare classifies all four lanes (net::kMissingReading is a
/// quiet NaN and lands in the "not finite" side, preserving its
/// sentinel-ness bit for bit — masked lanes are never folded into a fit).
inline LaneMask finite_mask(DoubleVec a) {
  return cmp_eq(sub(a, a), zero());
}

}  // namespace fluxfp::numeric::simd
