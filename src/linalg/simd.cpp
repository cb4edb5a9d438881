#include "linalg/simd.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MG_SIMD_X86 1
#include <immintrin.h>
#endif

namespace mg::linalg::simd {
namespace {

// ---------------------------------------------------------------------------
// Portable fallback: 4-way unrolled plain C++.  Element-wise, so unrolling
// only reorders independent iterations; -ffp-contract=off (set on mg_linalg)
// keeps the mul and sub as two roundings, matching the unblocked loop.
// ---------------------------------------------------------------------------

void mulsub_row_portable(double* __restrict y, const double* __restrict x, double l,
                         std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    y[j] -= l * x[j];
    y[j + 1] -= l * x[j + 1];
    y[j + 2] -= l * x[j + 2];
    y[j + 3] -= l * x[j + 3];
  }
  for (; j < n; ++j) y[j] -= l * x[j];
}

void mulsub_rows4_portable(double* __restrict y0, double* __restrict y1, double* __restrict y2,
                           double* __restrict y3, const double* __restrict x, double l0, double l1,
                           double l2, double l3, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const double xv = x[j];
    y0[j] -= l0 * xv;
    y1[j] -= l1 * xv;
    y2[j] -= l2 * xv;
    y3[j] -= l3 * xv;
  }
}

#if defined(MG_SIMD_X86)

// ---------------------------------------------------------------------------
// AVX2 (4 doubles/op).  Explicit _mm256_sub_pd(_mm256_mul_pd(...)) — two
// roundings, never vfmadd — so every lane reproduces the scalar arithmetic.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) void mulsub_row_avx2(double* __restrict y,
                                                     const double* __restrict x, double l,
                                                     std::size_t n) {
  const __m256d vl = _mm256_set1_pd(l);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d vy = _mm256_loadu_pd(y + j);
    const __m256d vx = _mm256_loadu_pd(x + j);
    _mm256_storeu_pd(y + j, _mm256_sub_pd(vy, _mm256_mul_pd(vl, vx)));
  }
  for (; j < n; ++j) y[j] -= l * x[j];
}

__attribute__((target("avx2"))) void mulsub_rows4_avx2(double* __restrict y0, double* __restrict y1,
                                                       double* __restrict y2, double* __restrict y3,
                                                       const double* __restrict x, double l0,
                                                       double l1, double l2, double l3,
                                                       std::size_t n) {
  const __m256d vl0 = _mm256_set1_pd(l0);
  const __m256d vl1 = _mm256_set1_pd(l1);
  const __m256d vl2 = _mm256_set1_pd(l2);
  const __m256d vl3 = _mm256_set1_pd(l3);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d vx = _mm256_loadu_pd(x + j);
    _mm256_storeu_pd(y0 + j, _mm256_sub_pd(_mm256_loadu_pd(y0 + j), _mm256_mul_pd(vl0, vx)));
    _mm256_storeu_pd(y1 + j, _mm256_sub_pd(_mm256_loadu_pd(y1 + j), _mm256_mul_pd(vl1, vx)));
    _mm256_storeu_pd(y2 + j, _mm256_sub_pd(_mm256_loadu_pd(y2 + j), _mm256_mul_pd(vl2, vx)));
    _mm256_storeu_pd(y3 + j, _mm256_sub_pd(_mm256_loadu_pd(y3 + j), _mm256_mul_pd(vl3, vx)));
  }
  for (; j < n; ++j) {
    const double xv = x[j];
    y0[j] -= l0 * xv;
    y1[j] -= l1 * xv;
    y2[j] -= l2 * xv;
    y3[j] -= l3 * xv;
  }
}

// ---------------------------------------------------------------------------
// AVX-512F (8 doubles/op), same two-rounding discipline.
// ---------------------------------------------------------------------------

__attribute__((target("avx512f"))) void mulsub_row_avx512(double* __restrict y,
                                                          const double* __restrict x, double l,
                                                          std::size_t n) {
  const __m512d vl = _mm512_set1_pd(l);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512d vy = _mm512_loadu_pd(y + j);
    const __m512d vx = _mm512_loadu_pd(x + j);
    _mm512_storeu_pd(y + j, _mm512_sub_pd(vy, _mm512_mul_pd(vl, vx)));
  }
  for (; j < n; ++j) y[j] -= l * x[j];
}

__attribute__((target("avx512f"))) void mulsub_rows4_avx512(
    double* __restrict y0, double* __restrict y1, double* __restrict y2, double* __restrict y3,
    const double* __restrict x, double l0, double l1, double l2, double l3, std::size_t n) {
  const __m512d vl0 = _mm512_set1_pd(l0);
  const __m512d vl1 = _mm512_set1_pd(l1);
  const __m512d vl2 = _mm512_set1_pd(l2);
  const __m512d vl3 = _mm512_set1_pd(l3);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512d vx = _mm512_loadu_pd(x + j);
    _mm512_storeu_pd(y0 + j, _mm512_sub_pd(_mm512_loadu_pd(y0 + j), _mm512_mul_pd(vl0, vx)));
    _mm512_storeu_pd(y1 + j, _mm512_sub_pd(_mm512_loadu_pd(y1 + j), _mm512_mul_pd(vl1, vx)));
    _mm512_storeu_pd(y2 + j, _mm512_sub_pd(_mm512_loadu_pd(y2 + j), _mm512_mul_pd(vl2, vx)));
    _mm512_storeu_pd(y3 + j, _mm512_sub_pd(_mm512_loadu_pd(y3 + j), _mm512_mul_pd(vl3, vx)));
  }
  for (; j < n; ++j) {
    const double xv = x[j];
    y0[j] -= l0 * xv;
    y1[j] -= l1 * xv;
    y2[j] -= l2 * xv;
    y3[j] -= l3 * xv;
  }
}

#endif  // MG_SIMD_X86

struct Dispatch {
  const char* name;
  void (*mulsub_row)(double* __restrict, const double* __restrict, double, std::size_t);
  void (*mulsub_rows4)(double* __restrict, double* __restrict, double* __restrict,
                       double* __restrict, const double* __restrict, double, double, double,
                       double, std::size_t);
};

const Dispatch& dispatch() {
  static const Dispatch d = [] {
    Dispatch t{"portable", mulsub_row_portable, mulsub_rows4_portable};
#if defined(MG_SIMD_X86)
    if (__builtin_cpu_supports("avx2")) t = {"avx2", mulsub_row_avx2, mulsub_rows4_avx2};
    if (__builtin_cpu_supports("avx512f")) {
      t = {"avx512", mulsub_row_avx512, mulsub_rows4_avx512};
    }
#endif
    return t;
  }();
  return d;
}

}  // namespace

const char* isa_name() { return dispatch().name; }

void mulsub_row(double* __restrict y, const double* __restrict x, double l, std::size_t n) {
  dispatch().mulsub_row(y, x, l, n);
}

void mulsub_rows4(double* __restrict y0, double* __restrict y1, double* __restrict y2,
                  double* __restrict y3, const double* __restrict x, double l0, double l1,
                  double l2, double l3, std::size_t n) {
  dispatch().mulsub_rows4(y0, y1, y2, y3, x, l0, l1, l2, l3, n);
}

}  // namespace mg::linalg::simd
