// Internal to the SIMD layer: fixed-lane vector backends plus the one
// templated body of every dispatched kernel.  Included only by
// simd_dispatch.cpp (scalar, SSE2, NEON) and simd_avx2.cpp (AVX2, the one
// TU built with -mavx2) — never by user code.
//
// Bit-identity rules (see simd.h / DESIGN.md):
//   - every backend exposes a 4-lane double vector with loadu/storeu/
//     broadcast/add/mul only — no fma, no horizontal reductions;
//   - kernel bodies spell out the exact association of the pre-SIMD scalar
//     kernels (e.g. acc + (((x0·w0 + x1·w1) + x2·w2) + x3·w3)) so each
//     lane performs the identical IEEE-754 op sequence;
//   - the k-blocking and the all-zero block sparse-skip are copied from
//     the original kernels at the same granularity;
//   - column tails (c % 4) run the same scalar expression.
#pragma once

#include <array>
#include <cstddef>
#include <utility>

#include "ml/simd.h"

#if defined(__SSE2__) || defined(__AVX2__)
#include <immintrin.h>
#endif
#if defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace eefei::ml::simd {

/// Defined in simd_avx2.cpp (the only TU built with -mavx2): the AVX2
/// kernel table, or nullptr when AVX2 is not compiled into this binary.
[[nodiscard]] const KernelTable* avx2_kernel_table();

/// Defined in simd_avx512.cpp (the only TU built with -mavx512f): the
/// AVX-512 kernel table, or nullptr when not compiled in.
[[nodiscard]] const KernelTable* avx512_kernel_table();

// ---------------------------------------------------------------------------
// Backends.  Each provides: Vec (4 doubles), loadu, storeu, broadcast, add,
// mul — plus the same set on Half (2 doubles), used for the 2-wide column
// tail of the vectorized kernels.  Lane i of every op behaves exactly like
// the scalar expression on element i — that is the whole determinism
// argument, and it holds for Half exactly as for Vec.
// ---------------------------------------------------------------------------

struct ScalarBackend {
  struct Vec {
    double v[4];
  };
  struct Half {
    double v[2];
  };
  static Vec loadu(const double* p) { return {{p[0], p[1], p[2], p[3]}}; }
  static void storeu(double* p, Vec a) {
    p[0] = a.v[0];
    p[1] = a.v[1];
    p[2] = a.v[2];
    p[3] = a.v[3];
  }
  static Vec broadcast(double s) { return {{s, s, s, s}}; }
  static Vec add(Vec a, Vec b) {
    return {{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2],
             a.v[3] + b.v[3]}};
  }
  static Vec mul(Vec a, Vec b) {
    return {{a.v[0] * b.v[0], a.v[1] * b.v[1], a.v[2] * b.v[2],
             a.v[3] * b.v[3]}};
  }
  static Half loadh(const double* p) { return {{p[0], p[1]}}; }
  static void storeh(double* p, Half a) {
    p[0] = a.v[0];
    p[1] = a.v[1];
  }
  static Half broadcasth(double s) { return {{s, s}}; }
  static Half addh(Half a, Half b) {
    return {{a.v[0] + b.v[0], a.v[1] + b.v[1]}};
  }
  static Half mulh(Half a, Half b) {
    return {{a.v[0] * b.v[0], a.v[1] * b.v[1]}};
  }
};

#if defined(__SSE2__)
// Two 128-bit halves emulate the fixed 4-lane vector.
struct Sse2Backend {
  struct Vec {
    __m128d lo, hi;
  };
  static Vec loadu(const double* p) {
    return {_mm_loadu_pd(p), _mm_loadu_pd(p + 2)};
  }
  static void storeu(double* p, Vec a) {
    _mm_storeu_pd(p, a.lo);
    _mm_storeu_pd(p + 2, a.hi);
  }
  static Vec broadcast(double s) { return {_mm_set1_pd(s), _mm_set1_pd(s)}; }
  static Vec add(Vec a, Vec b) {
    return {_mm_add_pd(a.lo, b.lo), _mm_add_pd(a.hi, b.hi)};
  }
  static Vec mul(Vec a, Vec b) {
    return {_mm_mul_pd(a.lo, b.lo), _mm_mul_pd(a.hi, b.hi)};
  }
  using Half = __m128d;
  static Half loadh(const double* p) { return _mm_loadu_pd(p); }
  static void storeh(double* p, Half a) { _mm_storeu_pd(p, a); }
  static Half broadcasth(double s) { return _mm_set1_pd(s); }
  static Half addh(Half a, Half b) { return _mm_add_pd(a, b); }
  static Half mulh(Half a, Half b) { return _mm_mul_pd(a, b); }
};
#endif  // __SSE2__

#if defined(__AVX2__)
struct Avx2Backend {
  struct Vec {
    __m256d v;
  };
  static Vec loadu(const double* p) { return {_mm256_loadu_pd(p)}; }
  static void storeu(double* p, Vec a) { _mm256_storeu_pd(p, a.v); }
  static Vec broadcast(double s) { return {_mm256_set1_pd(s)}; }
  static Vec add(Vec a, Vec b) { return {_mm256_add_pd(a.v, b.v)}; }
  static Vec mul(Vec a, Vec b) { return {_mm256_mul_pd(a.v, b.v)}; }
  using Half = __m128d;
  static Half loadh(const double* p) { return _mm_loadu_pd(p); }
  static void storeh(double* p, Half a) { _mm_storeu_pd(p, a); }
  static Half broadcasth(double s) { return _mm_set1_pd(s); }
  static Half addh(Half a, Half b) { return _mm_add_pd(a, b); }
  static Half mulh(Half a, Half b) { return _mm_mul_pd(a, b); }
};
#endif  // __AVX2__

#if defined(__aarch64__) && defined(__ARM_NEON)
// Two 128-bit halves, like SSE2.
struct NeonBackend {
  struct Vec {
    float64x2_t lo, hi;
  };
  static Vec loadu(const double* p) { return {vld1q_f64(p), vld1q_f64(p + 2)}; }
  static void storeu(double* p, Vec a) {
    vst1q_f64(p, a.lo);
    vst1q_f64(p + 2, a.hi);
  }
  static Vec broadcast(double s) { return {vdupq_n_f64(s), vdupq_n_f64(s)}; }
  static Vec add(Vec a, Vec b) {
    return {vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)};
  }
  static Vec mul(Vec a, Vec b) {
    return {vmulq_f64(a.lo, b.lo), vmulq_f64(a.hi, b.hi)};
  }
  using Half = float64x2_t;
  static Half loadh(const double* p) { return vld1q_f64(p); }
  static void storeh(double* p, Half a) { vst1q_f64(p, a); }
  static Half broadcasth(double s) { return vdupq_n_f64(s); }
  static Half addh(Half a, Half b) { return vaddq_f64(a, b); }
  static Half mulh(Half a, Half b) { return vmulq_f64(a, b); }
};
#endif  // __aarch64__ && __ARM_NEON

// ---------------------------------------------------------------------------
// Kernel bodies, templated on the backend.  The scalar column tails repeat
// the vector-lane expression verbatim so c % 4 columns get the same bits.
// ---------------------------------------------------------------------------

/// acc[j] += Σ_k x[k] · w[k·c + j]; k blocked by 4 with the all-zero block
/// skip of the original kernel (blank regions of the digit images).
template <class B>
void accumulate_rows_impl(const double* x, std::size_t d, std::size_t c,
                          const double* w, double* acc) {
  std::size_t k = 0;
  for (; k + 4 <= d; k += 4) {
    const double x0 = x[k];
    const double x1 = x[k + 1];
    const double x2 = x[k + 2];
    const double x3 = x[k + 3];
    if (x0 == 0.0 && x1 == 0.0 && x2 == 0.0 && x3 == 0.0) continue;
    const double* w0 = w + k * c;
    const double* w1 = w0 + c;
    const double* w2 = w1 + c;
    const double* w3 = w2 + c;
    const auto vx0 = B::broadcast(x0);
    const auto vx1 = B::broadcast(x1);
    const auto vx2 = B::broadcast(x2);
    const auto vx3 = B::broadcast(x3);
    std::size_t j = 0;
    for (; j + 4 <= c; j += 4) {
      // t = ((x0·w0 + x1·w1) + x2·w2) + x3·w3;  acc += t — the exact
      // association of the scalar kernel, per lane.
      auto t = B::mul(vx0, B::loadu(w0 + j));
      t = B::add(t, B::mul(vx1, B::loadu(w1 + j)));
      t = B::add(t, B::mul(vx2, B::loadu(w2 + j)));
      t = B::add(t, B::mul(vx3, B::loadu(w3 + j)));
      B::storeu(acc + j, B::add(B::loadu(acc + j), t));
    }
    for (; j < c; ++j) {
      acc[j] += x0 * w0[j] + x1 * w1[j] + x2 * w2[j] + x3 * w3[j];
    }
  }
  for (; k < d; ++k) {
    const double xv = x[k];
    if (xv == 0.0) continue;
    const double* wrow = w + k * c;
    const auto vx = B::broadcast(xv);
    std::size_t j = 0;
    for (; j + 4 <= c; j += 4) {
      B::storeu(acc + j,
                B::add(B::loadu(acc + j), B::mul(vx, B::loadu(wrow + j))));
    }
    for (; j < c; ++j) acc[j] += xv * wrow[j];
  }
}

/// accumulate_rows for the vector backends: the same interleaved body as
/// accumulate_rows_impl, except the c % 4 column tail runs 2-wide in Half
/// vectors before falling to the scalar expression for the last odd column.
/// (Measured on rendered digit batches the rows are ~96% live 4-blocks, so
/// the skip branch is well-predicted and cheaper than any branch-free
/// indexing scheme.)  Per column j, the adds still land on acc[j] in
/// ascending-k order with the identical expression tree; the skip set is
/// the same predicate.
template <class B>
void accumulate_rows_vec_impl(const double* x, std::size_t d, std::size_t c,
                              const double* w, double* acc) {
  const std::size_t d_blocked = d - d % 4;
  for (std::size_t k = 0; k < d_blocked; k += 4) {
    const double x0 = x[k];
    const double x1 = x[k + 1];
    const double x2 = x[k + 2];
    const double x3 = x[k + 3];
    if (x0 == 0.0 && x1 == 0.0 && x2 == 0.0 && x3 == 0.0) continue;
    const double* w0 = w + k * c;
    const double* w1 = w0 + c;
    const double* w2 = w1 + c;
    const double* w3 = w2 + c;
    const auto vx0 = B::broadcast(x0);
    const auto vx1 = B::broadcast(x1);
    const auto vx2 = B::broadcast(x2);
    const auto vx3 = B::broadcast(x3);
    std::size_t j = 0;
    for (; j + 4 <= c; j += 4) {
      auto t = B::mul(vx0, B::loadu(w0 + j));
      t = B::add(t, B::mul(vx1, B::loadu(w1 + j)));
      t = B::add(t, B::mul(vx2, B::loadu(w2 + j)));
      t = B::add(t, B::mul(vx3, B::loadu(w3 + j)));
      B::storeu(acc + j, B::add(B::loadu(acc + j), t));
    }
    if (j + 2 <= c) {
      auto t = B::mulh(B::broadcasth(x0), B::loadh(w0 + j));
      t = B::addh(t, B::mulh(B::broadcasth(x1), B::loadh(w1 + j)));
      t = B::addh(t, B::mulh(B::broadcasth(x2), B::loadh(w2 + j)));
      t = B::addh(t, B::mulh(B::broadcasth(x3), B::loadh(w3 + j)));
      B::storeh(acc + j, B::addh(B::loadh(acc + j), t));
      j += 2;
    }
    for (; j < c; ++j) {
      acc[j] += x0 * w0[j] + x1 * w1[j] + x2 * w2[j] + x3 * w3[j];
    }
  }
  for (std::size_t k = d_blocked; k < d; ++k) {
    const double xv = x[k];
    if (xv == 0.0) continue;
    const double* wrow = w + k * c;
    const auto vx = B::broadcast(xv);
    std::size_t j = 0;
    for (; j + 4 <= c; j += 4) {
      B::storeu(acc + j,
                B::add(B::loadu(acc + j), B::mul(vx, B::loadu(wrow + j))));
    }
    if (j + 2 <= c) {
      const auto hx = B::broadcasth(xv);
      B::storeh(acc + j,
                B::addh(B::loadh(acc + j), B::mulh(hx, B::loadh(wrow + j))));
      j += 2;
    }
    for (; j < c; ++j) acc[j] += xv * wrow[j];
  }
}

/// accumulate_outer for the vector backends: interleaved body + Half tail,
/// same bit-identity argument as accumulate_rows_vec_impl.
template <class B>
void accumulate_outer_vec_impl(const double* x, std::size_t d, std::size_t c,
                               const double* err, double* out) {
  const std::size_t d_blocked = d - d % 4;
  for (std::size_t k = 0; k < d_blocked; k += 4) {
    const double x0 = x[k];
    const double x1 = x[k + 1];
    const double x2 = x[k + 2];
    const double x3 = x[k + 3];
    if (x0 == 0.0 && x1 == 0.0 && x2 == 0.0 && x3 == 0.0) continue;
    double* g0 = out + k * c;
    double* g1 = g0 + c;
    double* g2 = g1 + c;
    double* g3 = g2 + c;
    const auto vx0 = B::broadcast(x0);
    const auto vx1 = B::broadcast(x1);
    const auto vx2 = B::broadcast(x2);
    const auto vx3 = B::broadcast(x3);
    std::size_t j = 0;
    for (; j + 4 <= c; j += 4) {
      const auto e = B::loadu(err + j);
      B::storeu(g0 + j, B::add(B::loadu(g0 + j), B::mul(vx0, e)));
      B::storeu(g1 + j, B::add(B::loadu(g1 + j), B::mul(vx1, e)));
      B::storeu(g2 + j, B::add(B::loadu(g2 + j), B::mul(vx2, e)));
      B::storeu(g3 + j, B::add(B::loadu(g3 + j), B::mul(vx3, e)));
    }
    if (j + 2 <= c) {
      const auto e = B::loadh(err + j);
      B::storeh(g0 + j,
                B::addh(B::loadh(g0 + j), B::mulh(B::broadcasth(x0), e)));
      B::storeh(g1 + j,
                B::addh(B::loadh(g1 + j), B::mulh(B::broadcasth(x1), e)));
      B::storeh(g2 + j,
                B::addh(B::loadh(g2 + j), B::mulh(B::broadcasth(x2), e)));
      B::storeh(g3 + j,
                B::addh(B::loadh(g3 + j), B::mulh(B::broadcasth(x3), e)));
      j += 2;
    }
    for (; j < c; ++j) {
      const double e = err[j];
      g0[j] += x0 * e;
      g1[j] += x1 * e;
      g2[j] += x2 * e;
      g3[j] += x3 * e;
    }
  }
  for (std::size_t k = d_blocked; k < d; ++k) {
    const double xv = x[k];
    if (xv == 0.0) continue;
    double* grow = out + k * c;
    const auto vx = B::broadcast(xv);
    std::size_t j = 0;
    for (; j + 4 <= c; j += 4) {
      B::storeu(grow + j,
                B::add(B::loadu(grow + j), B::mul(vx, B::loadu(err + j))));
    }
    if (j + 2 <= c) {
      const auto hx = B::broadcasth(xv);
      B::storeh(grow + j,
                B::addh(B::loadh(grow + j), B::mulh(hx, B::loadh(err + j))));
      j += 2;
    }
    for (; j < c; ++j) grow[j] += xv * err[j];
  }
}

/// out[k·c + j] += x[k] · err[j]; same blocking and sparse-skip.
template <class B>
void accumulate_outer_impl(const double* x, std::size_t d, std::size_t c,
                           const double* err, double* out) {
  std::size_t k = 0;
  for (; k + 4 <= d; k += 4) {
    const double x0 = x[k];
    const double x1 = x[k + 1];
    const double x2 = x[k + 2];
    const double x3 = x[k + 3];
    if (x0 == 0.0 && x1 == 0.0 && x2 == 0.0 && x3 == 0.0) continue;
    double* g0 = out + k * c;
    double* g1 = g0 + c;
    double* g2 = g1 + c;
    double* g3 = g2 + c;
    const auto vx0 = B::broadcast(x0);
    const auto vx1 = B::broadcast(x1);
    const auto vx2 = B::broadcast(x2);
    const auto vx3 = B::broadcast(x3);
    std::size_t j = 0;
    for (; j + 4 <= c; j += 4) {
      const auto e = B::loadu(err + j);
      B::storeu(g0 + j, B::add(B::loadu(g0 + j), B::mul(vx0, e)));
      B::storeu(g1 + j, B::add(B::loadu(g1 + j), B::mul(vx1, e)));
      B::storeu(g2 + j, B::add(B::loadu(g2 + j), B::mul(vx2, e)));
      B::storeu(g3 + j, B::add(B::loadu(g3 + j), B::mul(vx3, e)));
    }
    for (; j < c; ++j) {
      const double e = err[j];
      g0[j] += x0 * e;
      g1[j] += x1 * e;
      g2[j] += x2 * e;
      g3[j] += x3 * e;
    }
  }
  for (; k < d; ++k) {
    const double xv = x[k];
    if (xv == 0.0) continue;
    double* grow = out + k * c;
    const auto vx = B::broadcast(xv);
    std::size_t j = 0;
    for (; j + 4 <= c; j += 4) {
      B::storeu(grow + j,
                B::add(B::loadu(grow + j), B::mul(vx, B::loadu(err + j))));
    }
    for (; j < c; ++j) grow[j] += xv * err[j];
  }
}

// ---------------------------------------------------------------------------
// Whole-batch epoch kernels.  Both read the batch's row-major features in
// place and test each sample's blocks inline with the plain kernels'
// predicate, so they skip exactly the blocks the plain kernels skip.
// ---------------------------------------------------------------------------

/// True when the 4-block x[0..3] is live: not every element == 0.0
/// (−0.0 is dead, NaN is live — the plain kernels' skip predicate).  The
/// four compares are combined without short-circuit branches: on noisy
/// rows whether a pixel is exactly 0 is a coin flip.
inline bool block_live(const double* x) {
  return static_cast<bool>(static_cast<int>(x[0] != 0.0) |
                           static_cast<int>(x[1] != 0.0) |
                           static_cast<int>(x[2] != 0.0) |
                           static_cast<int>(x[3] != 0.0));
}

/// Samples per forward tile: each live weight block is loaded once per
/// tile and applied to every live sample of it.
inline constexpr std::size_t kRowsTile = 4;

/// accumulate_rows_tiled, 4-lane body.  Per sample and column the updates
/// are the accumulate_rows_vec_impl ones — the same t-tree per live block
/// in ascending k, the same Vec/Half/scalar column split, then one
/// mul+add per live tail row — only interleaved with the tile's other
/// samples, whose accumulators are disjoint.
template <class B>
void accumulate_rows_tiled_impl(const double* x, std::size_t n, std::size_t d,
                                std::size_t c, const double* w, double* acc,
                                std::size_t acc_stride) {
  const std::size_t d_blocked = d - d % 4;
  for (std::size_t s0 = 0; s0 < n; s0 += kRowsTile) {
    const std::size_t m = n - s0 < kRowsTile ? n - s0 : kRowsTile;
    const double* xs[kRowsTile];
    double* as[kRowsTile];
    for (std::size_t i = 0; i < m; ++i) {
      xs[i] = x + (s0 + i) * d;
      as[i] = acc + (s0 + i) * acc_stride;
    }
    for (std::size_t k = 0; k < d_blocked; k += 4) {
      std::size_t live[kRowsTile];  // indices of the tile's live samples
      std::size_t nlive = 0;
      for (std::size_t i = 0; i < m; ++i) {
        live[nlive] = i;
        nlive += block_live(xs[i] + k) ? 1 : 0;
      }
      if (nlive == 0) continue;
      const double* w0 = w + k * c;
      const double* w1 = w0 + c;
      const double* w2 = w1 + c;
      const double* w3 = w2 + c;
      std::size_t j = 0;
      for (; j + 4 <= c; j += 4) {
        const auto v0 = B::loadu(w0 + j);
        const auto v1 = B::loadu(w1 + j);
        const auto v2 = B::loadu(w2 + j);
        const auto v3 = B::loadu(w3 + j);
        for (std::size_t l = 0; l < nlive; ++l) {
          const double* xk = xs[live[l]] + k;
          double* a = as[live[l]] + j;
          auto t = B::mul(B::broadcast(xk[0]), v0);
          t = B::add(t, B::mul(B::broadcast(xk[1]), v1));
          t = B::add(t, B::mul(B::broadcast(xk[2]), v2));
          t = B::add(t, B::mul(B::broadcast(xk[3]), v3));
          B::storeu(a, B::add(B::loadu(a), t));
        }
      }
      if (j + 2 <= c) {
        const auto v0 = B::loadh(w0 + j);
        const auto v1 = B::loadh(w1 + j);
        const auto v2 = B::loadh(w2 + j);
        const auto v3 = B::loadh(w3 + j);
        for (std::size_t l = 0; l < nlive; ++l) {
          const double* xk = xs[live[l]] + k;
          double* a = as[live[l]] + j;
          auto t = B::mulh(B::broadcasth(xk[0]), v0);
          t = B::addh(t, B::mulh(B::broadcasth(xk[1]), v1));
          t = B::addh(t, B::mulh(B::broadcasth(xk[2]), v2));
          t = B::addh(t, B::mulh(B::broadcasth(xk[3]), v3));
          B::storeh(a, B::addh(B::loadh(a), t));
        }
        j += 2;
      }
      if (j < c) {
        for (std::size_t l = 0; l < nlive; ++l) {
          const double* xk = xs[live[l]] + k;
          as[live[l]][j] += xk[0] * w0[j] + xk[1] * w1[j] + xk[2] * w2[j] +
                            xk[3] * w3[j];
        }
      }
    }
    for (std::size_t k = d_blocked; k < d; ++k) {
      const double* wrow = w + k * c;
      for (std::size_t i = 0; i < m; ++i) {
        const double xv = xs[i][k];
        if (xv == 0.0) continue;
        double* a = as[i];
        const auto vx = B::broadcast(xv);
        std::size_t j = 0;
        for (; j + 4 <= c; j += 4) {
          B::storeu(a + j, B::add(B::loadu(a + j),
                                  B::mul(vx, B::loadu(wrow + j))));
        }
        if (j + 2 <= c) {
          B::storeh(a + j, B::addh(B::loadh(a + j),
                                   B::mulh(B::broadcasth(xv),
                                           B::loadh(wrow + j))));
          j += 2;
        }
        if (j < c) a[j] += xv * wrow[j];
      }
    }
  }
}

/// Samples the transposed backward prefetches ahead: its sweep strides a
/// whole feature row per sample, which the hardware prefetchers miss.
inline constexpr std::size_t kOuterAhead = 8;

/// One 4-block × C classes of accumulate_outer_transposed: lane i of a[jj]
/// is g[jj·ld + i] = gt[(j + jj)·ld + k + i], loaded once, updated for every
/// live sample in ascending s, stored once.
template <class B, std::size_t C>
void outer_transposed_strip(const double* x, std::size_t n, std::size_t ld,
                            const double* err, std::size_t err_stride,
                            double* g) {
  typename B::Vec a[C];
#pragma GCC unroll 16
  for (std::size_t jj = 0; jj < C; ++jj) a[jj] = B::loadu(g + jj * ld);
  for (std::size_t s = 0; s < n; ++s) {
    if (s + kOuterAhead < n) __builtin_prefetch(x + (s + kOuterAhead) * ld);
    const double* xs = x + s * ld;
    if (!block_live(xs)) continue;
    const auto vx = B::loadu(xs);
    const double* es = err + s * err_stride;
#pragma GCC unroll 16
    for (std::size_t jj = 0; jj < C; ++jj) {
      a[jj] = B::add(a[jj], B::mul(vx, B::broadcast(es[jj])));
    }
  }
#pragma GCC unroll 16
  for (std::size_t jj = 0; jj < C; ++jj) B::storeu(g + jj * ld, a[jj]);
}

/// Classes per 4-lane strip.  12 accumulators fit the 16 AVX2 registers
/// next to the x block and one broadcast; the register-pair and scalar
/// backends spill some of them to L1, which still measures faster than
/// narrower strips that re-sweep the samples.
inline constexpr std::size_t kOuterStripLanes = 12;

/// accumulate_outer_transposed, 4-lane body: one Vec per (4-block, class)
/// in strips of up to 12 classes, so at c ≤ 12 one sweep over the samples
/// covers a block; d%4 tail rows go element by element with the per-row
/// skip.
template <class B>
void accumulate_outer_transposed_impl(const double* x, std::size_t n,
                                      std::size_t d, std::size_t ld,
                                      std::size_t c, const double* err,
                                      std::size_t err_stride, double* gt) {
  using StripFn = void (*)(const double*, std::size_t, std::size_t,
                           const double*, std::size_t, double*);
  constexpr auto kStrips = [] {
    std::array<StripFn, kOuterStripLanes + 1> t{};
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      ((t[I + 1] = &outer_transposed_strip<B, I + 1>), ...);
    }(std::make_index_sequence<kOuterStripLanes>{});
    return t;
  }();
  const std::size_t d_blocked = d - d % 4;
  for (std::size_t k = 0; k < d_blocked; k += 4) {
    for (std::size_t j = 0; j < c; j += kOuterStripLanes) {
      const std::size_t strip =
          c - j < kOuterStripLanes ? c - j : kOuterStripLanes;
      kStrips[strip](x + k, n, ld, err + j, err_stride, gt + j * ld + k);
    }
  }
  for (std::size_t k = d_blocked; k < d; ++k) {
    for (std::size_t j = 0; j < c; ++j) {
      double g = gt[j * ld + k];
      for (std::size_t s = 0; s < n; ++s) {
        const double xv = x[s * ld + k];
        if (xv == 0.0) continue;
        g += xv * err[s * err_stride + j];
      }
      gt[j * ld + k] = g;
    }
  }
}

}  // namespace eefei::ml::simd
