# SIMD backend selection for the candidate-evaluation kernels.
#
# Exactly one translation unit (src/numeric/simd/kernels.cpp) is compiled
# with architecture flags; everything else in the tree stays on the default
# target so object files remain portable. The chosen backend is exported as:
#
#   FLUXFP_SIMD_BACKEND       - "AVX2", "SSE2", "NEON", or "SCALAR"
#   FLUXFP_SIMD_KERNEL_FLAGS  - compile options for kernels.cpp only
#   FLUXFP_SIMD_KERNEL_DEFS   - compile definitions for kernels.cpp only
#
# FLUXFP_SIMD=OFF is the strict-determinism mode: the scalar backend
# reproduces the committed scalar-baseline fixture
# (tests/core/testdata/smc_scalar_baseline.txt) bit for bit. The
# rectangular-field shape has one scalar definition (rect_shape, 1 square
# root and 2 divisions per pair) in kernels.cpp, so vector lanes equal the
# scalar path by construction on every backend (see DESIGN.md section 14).
# AUTO probes, in order, AVX2 then SSE2 then NEON with run tests, so a
# baked baseline never selects an ISA the build host cannot execute.

include(CheckCXXSourceRuns)

set(FLUXFP_SIMD "AUTO" CACHE STRING
    "SIMD backend for numeric kernels: AUTO, AVX2, SSE2, NEON, or OFF")
set_property(CACHE FLUXFP_SIMD PROPERTY STRINGS AUTO AVX2 SSE2 NEON OFF)

set(_fluxfp_avx2_src "
#include <immintrin.h>
int main() {
  __m256d a = _mm256_set1_pd(2.0);
  __m256d b = _mm256_mul_pd(a, a);
  double out[4];
  _mm256_storeu_pd(out, b);
  return out[3] == 4.0 ? 0 : 1;
}
")

set(_fluxfp_sse2_src "
#include <emmintrin.h>
int main() {
  __m128d a = _mm_set1_pd(2.0);
  __m128d b = _mm_mul_pd(a, a);
  double out[2];
  _mm_storeu_pd(out, b);
  return out[1] == 4.0 ? 0 : 1;
}
")

set(_fluxfp_neon_src "
#include <arm_neon.h>
int main() {
  float64x2_t a = vdupq_n_f64(2.0);
  float64x2_t b = vmulq_f64(a, a);
  return vgetq_lane_f64(b, 1) == 4.0 ? 0 : 1;
}
")

function(_fluxfp_probe_simd flags source result_var)
  set(CMAKE_REQUIRED_FLAGS "${flags}")
  check_cxx_source_runs("${source}" ${result_var})
endfunction()

set(FLUXFP_SIMD_BACKEND "SCALAR")
set(FLUXFP_SIMD_KERNEL_FLAGS "")
set(FLUXFP_SIMD_KERNEL_DEFS "")

if(NOT FLUXFP_SIMD STREQUAL "OFF")
  if(FLUXFP_SIMD STREQUAL "AVX2" OR FLUXFP_SIMD STREQUAL "AUTO")
    _fluxfp_probe_simd("-mavx2" "${_fluxfp_avx2_src}" FLUXFP_SIMD_HAS_AVX2)
    if(FLUXFP_SIMD_HAS_AVX2)
      set(FLUXFP_SIMD_BACKEND "AVX2")
      set(FLUXFP_SIMD_KERNEL_FLAGS "-mavx2")
      set(FLUXFP_SIMD_KERNEL_DEFS "FLUXFP_SIMD_AVX2")
    elseif(FLUXFP_SIMD STREQUAL "AVX2")
      message(FATAL_ERROR "FLUXFP_SIMD=AVX2 requested but an AVX2 test "
                          "program failed to compile or run on this host")
    endif()
  endif()
  if(FLUXFP_SIMD_BACKEND STREQUAL "SCALAR"
     AND (FLUXFP_SIMD STREQUAL "SSE2" OR FLUXFP_SIMD STREQUAL "AUTO"))
    _fluxfp_probe_simd("" "${_fluxfp_sse2_src}" FLUXFP_SIMD_HAS_SSE2)
    if(FLUXFP_SIMD_HAS_SSE2)
      set(FLUXFP_SIMD_BACKEND "SSE2")
      set(FLUXFP_SIMD_KERNEL_FLAGS "")
      set(FLUXFP_SIMD_KERNEL_DEFS "FLUXFP_SIMD_SSE2")
    elseif(FLUXFP_SIMD STREQUAL "SSE2")
      message(FATAL_ERROR "FLUXFP_SIMD=SSE2 requested but an SSE2 test "
                          "program failed to compile or run on this host")
    endif()
  endif()
  if(FLUXFP_SIMD_BACKEND STREQUAL "SCALAR"
     AND (FLUXFP_SIMD STREQUAL "NEON" OR FLUXFP_SIMD STREQUAL "AUTO"))
    _fluxfp_probe_simd("" "${_fluxfp_neon_src}" FLUXFP_SIMD_HAS_NEON)
    if(FLUXFP_SIMD_HAS_NEON)
      set(FLUXFP_SIMD_BACKEND "NEON")
      set(FLUXFP_SIMD_KERNEL_FLAGS "")
      set(FLUXFP_SIMD_KERNEL_DEFS "FLUXFP_SIMD_NEON")
    elseif(FLUXFP_SIMD STREQUAL "NEON")
      message(FATAL_ERROR "FLUXFP_SIMD=NEON requested but a NEON test "
                          "program failed to compile or run on this host")
    endif()
  endif()
endif()

# The kernel TU must never see FMA contraction: element-wise lanes are
# documented to round exactly like the scalar formulas.
if(CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
  list(APPEND FLUXFP_SIMD_KERNEL_FLAGS "-ffp-contract=off")
endif()

message(STATUS "fluxfp SIMD backend: ${FLUXFP_SIMD_BACKEND} "
               "(FLUXFP_SIMD=${FLUXFP_SIMD})")
