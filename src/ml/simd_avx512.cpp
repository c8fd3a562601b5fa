// The single TU compiled with -mavx512f (only when EEFEI_SIMD=ON on an x86
// toolchain — see src/ml/CMakeLists.txt).  Everything AVX-512 is confined
// here; the dispatcher reaches it through avx512_kernel_table() and never
// executes these instructions unless CPUID reported support.  All kernels
// are internal-linkage so no wide-ISA code can be picked up by baseline
// TUs through linkonce symbol merging.
//
// Why a wider-than-kLanes backend is allowed: every kernel in the table is
// elementwise per output — column j of accumulate_rows touches only
// acc[j], x[k], w[k·c + j]; there are no horizontal ops anywhere.  So the
// lane GROUPING is free: as long as each element sees the identical
// IEEE-754 expression tree in the identical ascending-k order, 8-wide zmm
// registers produce the same bits as the 4-lane backends and the scalar
// kernels.  The cross-ISA memcmp and pinned-CRC tests in test_simd.cpp
// hold this table to that contract.
//
// Kernel shapes follow measurement on rendered digit batches (~96% live
// 4-blocks, so the sparse-skip branch predicts well and stays a branch):
//   - The per-sample accumulate_rows and accumulate_outer keep the AVX2
//     shape (which this TU may emit: AVX-512F implies AVX2).  No workload
//     calls them: training and evaluation run the whole-batch kernels,
//     and only LogisticRegression::forward_row reaches accumulate_rows.
//     (accumulate_outer is store-bound, where the 256-bit shape measured
//     faster than 512-bit read-modify-write anyway.)
//   - The whole-batch forward (rows_tiled_avx512, c ≤ 16) vectorizes over
//     samples: each full group of 8 holds one zmm per class, lane i being
//     sample s0+i, so every lane is filled at any c (the class-vectorized
//     tile fills 10 of 16 lanes at c = 10).  Per 4-block the 8 rows are
//     transposed in registers and each class's weights are broadcast.  The
//     n % 8 leftover samples keep a tile of up to 4 samples' accumulator
//     rows in registers (rows_tile) and load each live 4×c weight block
//     once per tile.
//   - The whole-batch backward (outer_transposed_avx512) vectorizes over
//     k: 8 k-lanes × up to 16 classes of the transposed gradient stay in
//     registers across the whole sample sweep, so the gradient is read and
//     written once per call instead of once per sample.  The block skip
//     becomes a per-4-lane mask on a masked add.
#include <array>
#include <utility>

#include "ml/simd.h"
#include "ml/simd_lanes.h"

namespace eefei::ml::simd {

#if EEFEI_SIMD_ENABLED && defined(__AVX512F__)

namespace {

// Internal-linkage clone of Avx2Backend.  The anonymous namespace is
// load-bearing: instantiating accumulate_*_vec_impl<Avx2Backend> in this
// -mavx512f TU would emit a linkonce symbol identical to the one the
// -mavx2 TU emits, and the linker could hand the AVX2 dispatch table an
// EVEX-encoded copy.  A distinct internal type keeps this TU's
// instantiations internal.
struct YmmBackend {
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

// ---------------------------------------------------------------------------
// Whole-batch epoch kernels.
// ---------------------------------------------------------------------------

// Column masks of the ≤ 2 zmm groups covering c ≤ 16 classes.  Masked-off
// lanes load as zero and are never stored, and every op is lane-wise, so
// the real lanes see exactly the 4-lane backends' per-column expressions.
struct ColumnMasks {
  __mmask8 m[2];
};

ColumnMasks column_masks(std::size_t c) {
  const auto low = [](std::size_t bits) {
    return static_cast<__mmask8>(bits >= 8 ? 0xffu : (1u << bits) - 1);
  };
  return {{low(c), low(c > 8 ? c - 8 : 0)}};
}

// One tile of S samples for c ≤ 16 (G = ceil(c/8) zmm groups per sample).
// The S accumulator rows stay in registers across the whole k sweep, and
// each live 4×c weight block is loaded once for the tile.  A sample whose
// block is dead takes a masked no-op add, so its accumulator sees exactly
// the accumulate_rows chain: one t-tree add per live block, ascending k,
// then one mul+add per live tail row.
template <std::size_t G, std::size_t S>
void rows_tile(const double* x, std::size_t d, std::size_t c,
               const double* w, double* acc, std::size_t acc_stride,
               ColumnMasks cm) {
  __m512d a[S][G];
#pragma GCC unroll 4
  for (std::size_t s = 0; s < S; ++s) {
#pragma GCC unroll 2
    for (std::size_t g = 0; g < G; ++g) {
      a[s][g] = _mm512_maskz_loadu_pd(cm.m[g], acc + s * acc_stride + 8 * g);
    }
  }
  const std::size_t d_blocked = d - d % 4;
  const __m256d zero = _mm256_setzero_pd();
  for (std::size_t k = 0; k < d_blocked; k += 4) {
    __mmask8 live[S];
    int any = 0;
#pragma GCC unroll 4
    for (std::size_t s = 0; s < S; ++s) {
      // Live iff some element compares != 0.0, NaN included (NEQ_UQ).
      const int nz = _mm256_movemask_pd(
          _mm256_cmp_pd(_mm256_loadu_pd(x + s * d + k), zero, _CMP_NEQ_UQ));
      live[s] = nz != 0 ? static_cast<__mmask8>(0xff) : 0;
      any |= nz;
    }
    if (any == 0) continue;
    const double* w0 = w + k * c;
    __m512d wv[4][G];
#pragma GCC unroll 4
    for (std::size_t r = 0; r < 4; ++r) {
#pragma GCC unroll 2
      for (std::size_t g = 0; g < G; ++g) {
        wv[r][g] = _mm512_maskz_loadu_pd(cm.m[g], w0 + r * c + 8 * g);
      }
    }
#pragma GCC unroll 4
    for (std::size_t s = 0; s < S; ++s) {
      const double* xk = x + s * d + k;
      const __m512d vx0 = _mm512_set1_pd(xk[0]);
      const __m512d vx1 = _mm512_set1_pd(xk[1]);
      const __m512d vx2 = _mm512_set1_pd(xk[2]);
      const __m512d vx3 = _mm512_set1_pd(xk[3]);
#pragma GCC unroll 2
      for (std::size_t g = 0; g < G; ++g) {
        __m512d t = _mm512_mul_pd(vx0, wv[0][g]);
        t = _mm512_add_pd(t, _mm512_mul_pd(vx1, wv[1][g]));
        t = _mm512_add_pd(t, _mm512_mul_pd(vx2, wv[2][g]));
        t = _mm512_add_pd(t, _mm512_mul_pd(vx3, wv[3][g]));
        a[s][g] = _mm512_mask_add_pd(a[s][g], live[s], a[s][g], t);
      }
    }
  }
  for (std::size_t k = d_blocked; k < d; ++k) {
    const double* wrow = w + k * c;
    __m512d wr[G];
#pragma GCC unroll 2
    for (std::size_t g = 0; g < G; ++g) {
      wr[g] = _mm512_maskz_loadu_pd(cm.m[g], wrow + 8 * g);
    }
#pragma GCC unroll 4
    for (std::size_t s = 0; s < S; ++s) {
      const double xv = x[s * d + k];
      const __mmask8 live = xv == 0.0 ? 0 : static_cast<__mmask8>(0xff);
      const __m512d vx = _mm512_set1_pd(xv);
#pragma GCC unroll 2
      for (std::size_t g = 0; g < G; ++g) {
        a[s][g] = _mm512_mask_add_pd(a[s][g], live, a[s][g],
                                     _mm512_mul_pd(vx, wr[g]));
      }
    }
  }
#pragma GCC unroll 4
  for (std::size_t s = 0; s < S; ++s) {
#pragma GCC unroll 2
    for (std::size_t g = 0; g < G; ++g) {
      _mm512_mask_storeu_pd(acc + s * acc_stride + 8 * g, cm.m[g], a[s][g]);
    }
  }
}

using RowsTileFn = void (*)(const double*, std::size_t, std::size_t,
                            const double*, double*, std::size_t, ColumnMasks);

template <std::size_t G>
constexpr RowsTileFn kRowsTiles[kRowsTile + 1] = {
    nullptr, &rows_tile<G, 1>, &rows_tile<G, 2>, &rows_tile<G, 3>,
    &rows_tile<G, 4>};

// Samples per lane group of the sample-lane forward: one per zmm lane.
constexpr std::size_t kLaneSamples = 8;

// Offsets of 8 row-major rows `stride` doubles apart, for the gathers and
// scatters that move one column of the rows: lane i is row i.
__m512i lane_rows(std::size_t stride) {
  const auto s = static_cast<long long>(stride);
  return _mm512_set_epi64(7 * s, 6 * s, 5 * s, 4 * s, 3 * s, 2 * s, s, 0);
}

// Column `col` of the 8 rows at `rows` offsets.  The merge-masked form
// with every lane enabled, because the plain one starts from an undefined
// register that GCC 12 reports as uninitialized.
__m512d gather_column(const double* col, __m512i rows) {
  return _mm512_mask_i64gather_pd(_mm512_setzero_pd(), 0xff, rows, col, 8);
}

// One full group of 8 samples for C ≤ 16 classes, vectorized over the
// samples: lane i of a[j] is acc[i·acc_stride + j].  Per 4-block the 8
// rows' 4-element segments are transposed in registers into X0..X3 (lane i
// of Xr is x[i·d + k + r]) — pure data movement, so every lane holds the
// bits accumulate_rows would broadcast — and each class gets the canonical
// t-tree ((x0·w0 + x1·w1) + x2·w2) + x3·w3 with broadcast weights, added
// under the lanes whose block is live.  So each accumulator sees exactly
// the accumulate_rows chain: one t-tree add per live block, ascending k,
// then one mul+add per live tail row.
template <std::size_t C>
void rows_lanes(const double* x, std::size_t d, const double* w, double* acc,
                std::size_t acc_stride) {
  const __m512i acc_rows = lane_rows(acc_stride);
  __m512d a[C];
#pragma GCC unroll 16
  for (std::size_t j = 0; j < C; ++j) {
    a[j] = gather_column(acc + j, acc_rows);
  }
  // permutex2var indices over the 16 lanes of a pair of rows-pair vectors
  // (rows r, r+1 | rows r+2, r+3): elements 0,1 then 2,3 of the 4 rows.
  const __m512i lo = _mm512_set_epi64(13, 9, 5, 1, 12, 8, 4, 0);
  const __m512i hi = _mm512_set_epi64(15, 11, 7, 3, 14, 10, 6, 2);
  const auto rows_pair = [&](const double* p) {
    return _mm512_insertf64x4(_mm512_castpd256_pd512(_mm256_loadu_pd(p)),
                              _mm256_loadu_pd(p + d), 1);
  };
  const __m512d zero = _mm512_setzero_pd();
  const std::size_t d_blocked = d - d % 4;
  for (std::size_t k = 0; k < d_blocked; k += 4) {
    const double* xk = x + k;
    const __m512d p01 = rows_pair(xk);
    const __m512d p23 = rows_pair(xk + 2 * d);
    const __m512d p45 = rows_pair(xk + 4 * d);
    const __m512d p67 = rows_pair(xk + 6 * d);
    const __m512d u0 = _mm512_permutex2var_pd(p01, lo, p23);
    const __m512d u1 = _mm512_permutex2var_pd(p01, hi, p23);
    const __m512d v0 = _mm512_permutex2var_pd(p45, lo, p67);
    const __m512d v1 = _mm512_permutex2var_pd(p45, hi, p67);
    const __m512d x0 = _mm512_shuffle_f64x2(u0, v0, 0x44);
    const __m512d x1 = _mm512_shuffle_f64x2(u0, v0, 0xee);
    const __m512d x2 = _mm512_shuffle_f64x2(u1, v1, 0x44);
    const __m512d x3 = _mm512_shuffle_f64x2(u1, v1, 0xee);
    // The OR of the four bit patterns is ±0 exactly when all four elements
    // are ±0: dead iff every element == 0.0; NaN and denormals stay live.
    const __m512i bits = _mm512_or_si512(
        _mm512_or_si512(_mm512_castpd_si512(x0), _mm512_castpd_si512(x1)),
        _mm512_or_si512(_mm512_castpd_si512(x2), _mm512_castpd_si512(x3)));
    const __mmask8 live =
        _mm512_cmp_pd_mask(_mm512_castsi512_pd(bits), zero, _CMP_NEQ_UQ);
    if (live == 0) continue;
    const double* w0 = w + k * C;
#pragma GCC unroll 16
    for (std::size_t j = 0; j < C; ++j) {
      __m512d t = _mm512_mul_pd(x0, _mm512_set1_pd(w0[j]));
      t = _mm512_add_pd(t, _mm512_mul_pd(x1, _mm512_set1_pd(w0[C + j])));
      t = _mm512_add_pd(t, _mm512_mul_pd(x2, _mm512_set1_pd(w0[2 * C + j])));
      t = _mm512_add_pd(t, _mm512_mul_pd(x3, _mm512_set1_pd(w0[3 * C + j])));
      a[j] = _mm512_mask_add_pd(a[j], live, a[j], t);
    }
  }
  if (d_blocked < d) {
    const __m512i x_rows = lane_rows(d);
    for (std::size_t k = d_blocked; k < d; ++k) {
      const __m512d xv = gather_column(x + k, x_rows);
      const __mmask8 live = _mm512_cmp_pd_mask(xv, zero, _CMP_NEQ_UQ);
      const double* wrow = w + k * C;
#pragma GCC unroll 16
      for (std::size_t j = 0; j < C; ++j) {
        a[j] = _mm512_mask_add_pd(a[j], live, a[j],
                                  _mm512_mul_pd(xv, _mm512_set1_pd(wrow[j])));
      }
    }
  }
#pragma GCC unroll 16
  for (std::size_t j = 0; j < C; ++j) {
    _mm512_i64scatter_pd(acc + j, acc_rows, a[j], 8);
  }
}

using RowsLanesFn = void (*)(const double*, std::size_t, const double*,
                             double*, std::size_t);

template <std::size_t... I>
constexpr auto make_rows_lanes(std::index_sequence<I...>) {
  return std::array<RowsLanesFn, sizeof...(I) + 1>{nullptr,
                                                   &rows_lanes<I + 1>...};
}
constexpr auto kRowsLanes = make_rows_lanes(std::make_index_sequence<16>{});

void rows_tiled_avx512(const double* x, std::size_t n, std::size_t d,
                       std::size_t c, const double* w, double* acc,
                       std::size_t acc_stride) {
  if (c > 16) {
    accumulate_rows_tiled_impl<YmmBackend>(x, n, d, c, w, acc, acc_stride);
    return;
  }
  // Full 8-sample groups go lane-wise; the n % 8 leftover samples take the
  // register tiles of rows_tile.
  const std::size_t grouped = n - n % kLaneSamples;
  for (std::size_t s0 = 0; s0 < grouped; s0 += kLaneSamples) {
    kRowsLanes[c](x + s0 * d, d, w, acc + s0 * acc_stride, acc_stride);
  }
  const RowsTileFn* tiles = c > 8 ? kRowsTiles<2> : kRowsTiles<1>;
  const ColumnMasks cm = column_masks(c);
  for (std::size_t s0 = grouped; s0 < n; s0 += kRowsTile) {
    const std::size_t m = n - s0 < kRowsTile ? n - s0 : kRowsTile;
    tiles[m](x + s0 * d, d, c, w, acc + s0 * acc_stride, acc_stride, cm);
  }
}

// Live lanes of one sample in an 8-k group, from its != 0.0 lanes `nz`:
// a lane inside a full 4-block (`blocked`) is live when any lane of its
// block is — the block skip — and a d%4 tail lane when it is itself.
inline __mmask8 live_lanes(__mmask8 nz, __mmask8 blocked) {
  const unsigned lo = (nz & 0x0fu) != 0 ? 0x0fu : 0u;
  const unsigned hi = (nz & 0xf0u) != 0 ? 0xf0u : 0u;
  return static_cast<__mmask8>(((lo | hi) & blocked) | (nz & ~blocked));
}

// Lane masks of P adjacent 8-k groups: `lanes` = lanes with k < d,
// `blocked` = lanes inside a full 4-block (k < d − d%4).
template <std::size_t P>
struct GroupMasks {
  __mmask8 lanes[P];
  __mmask8 blocked[P];
};

// C classes × P adjacent 8-k groups: lane i of a[p][jj] is
// gt[(j + jj)·ld + k + 8p + i], held in registers across the whole
// ascending-s sweep.  Per live lane the update is a + x·err — the
// accumulate_outer element update — and dead lanes are left untouched by
// the masked add.  Rows are ld doubles apart, so the hardware prefetchers
// cannot follow the sweep; it prefetches the rows a few samples ahead.
template <std::size_t C, std::size_t P>
void outer_strip(const double* x, std::size_t n, std::size_t ld,
                 const double* err, std::size_t err_stride, double* g,
                 GroupMasks<P> m) {
  __m512d a[P][C];
#pragma GCC unroll 2
  for (std::size_t p = 0; p < P; ++p) {
#pragma GCC unroll 16
    for (std::size_t jj = 0; jj < C; ++jj) {
      a[p][jj] = _mm512_maskz_loadu_pd(m.lanes[p], g + jj * ld + 8 * p);
    }
  }
  const __m512d zero = _mm512_setzero_pd();
  for (std::size_t s = 0; s < n; ++s) {
    if (s + kOuterAhead < n) {
      // Lines of the group's first and last lanes (and the one between);
      // single groups are the row's last ≤ 2, where the first line suffices.
      const char* ahead =
          reinterpret_cast<const char*>(x + (s + kOuterAhead) * ld);
      _mm_prefetch(ahead, _MM_HINT_T0);
      if constexpr (P == 2) {
        _mm_prefetch(ahead + 64, _MM_HINT_T0);
        _mm_prefetch(ahead + 120, _MM_HINT_T0);
      }
    }
    __m512d xv[P];
    __mmask8 live[P];
    unsigned any = 0;
#pragma GCC unroll 2
    for (std::size_t p = 0; p < P; ++p) {
      xv[p] = _mm512_maskz_loadu_pd(m.lanes[p], x + s * ld + 8 * p);
      live[p] = live_lanes(_mm512_cmp_pd_mask(xv[p], zero, _CMP_NEQ_UQ),
                           m.blocked[p]);
      any |= live[p];
    }
    if (any == 0) continue;
    const double* es = err + s * err_stride;
#pragma GCC unroll 16
    for (std::size_t jj = 0; jj < C; ++jj) {
      const __m512d e = _mm512_set1_pd(es[jj]);
#pragma GCC unroll 2
      for (std::size_t p = 0; p < P; ++p) {
        a[p][jj] = _mm512_mask_add_pd(a[p][jj], live[p], a[p][jj],
                                      _mm512_mul_pd(xv[p], e));
      }
    }
  }
#pragma GCC unroll 2
  for (std::size_t p = 0; p < P; ++p) {
#pragma GCC unroll 16
    for (std::size_t jj = 0; jj < C; ++jj) {
      _mm512_mask_storeu_pd(g + jj * ld + 8 * p, m.lanes[p], a[p][jj]);
    }
  }
}

// Classes per strip (kOuterStripLanes, as in the 4-lane bodies): 2 groups
// × 12 accumulators plus the x rows and the error broadcast fit the 32 zmm
// registers.
template <std::size_t P>
using OuterStripFn = void (*)(const double*, std::size_t, std::size_t,
                              const double*, std::size_t, double*,
                              GroupMasks<P>);

template <std::size_t P, std::size_t... I>
constexpr auto make_outer_strips(std::index_sequence<I...>) {
  return std::array<OuterStripFn<P>, sizeof...(I) + 1>{
      nullptr, &outer_strip<I + 1, P>...};
}
template <std::size_t P>
constexpr auto kOuterStrips =
    make_outer_strips<P>(std::make_index_sequence<kOuterStripLanes>{});

template <std::size_t P>
void outer_strips(const double* x, std::size_t n, std::size_t ld,
                  std::size_t c, const double* err, std::size_t err_stride,
                  double* gt, GroupMasks<P> m) {
  for (std::size_t j = 0; j < c; j += kOuterStripLanes) {
    const std::size_t strip =
        c - j < kOuterStripLanes ? c - j : kOuterStripLanes;
    kOuterStrips<P>[strip](x, n, ld, err + j, err_stride, gt + j * ld, m);
  }
}

void outer_transposed_avx512(const double* x, std::size_t n, std::size_t d,
                             std::size_t ld, std::size_t c, const double* err,
                             std::size_t err_stride, double* gt) {
  const std::size_t d_blocked = d - d % 4;
  std::size_t k = 0;
  // Pairs of whole 8-k groups inside the blocked range, then single
  // groups with partial-lane and d%4-tail masks.
  for (; k + 16 <= d_blocked; k += 16) {
    outer_strips<2>(x + k, n, ld, c, err, err_stride, gt + k,
                    {{0xff, 0xff}, {0xff, 0xff}});
  }
  for (; k < d; k += 8) {
    const std::size_t width = d - k < 8 ? d - k : 8;
    const std::size_t full = d_blocked > k ? d_blocked - k : 0;
    const auto lanes = static_cast<__mmask8>((1u << width) - 1);
    const auto blocked =
        static_cast<__mmask8>(full >= 8 ? 0xffu : (1u << full) - 1);
    outer_strips<1>(x + k, n, ld, c, err, err_stride, gt + k,
                    {{lanes}, {blocked}});
  }
}

constexpr KernelTable kAvx512Table{&accumulate_rows_vec_impl<YmmBackend>,
                                   &accumulate_outer_vec_impl<YmmBackend>,
                                   &rows_tiled_avx512,
                                   &outer_transposed_avx512,
                                   Isa::kAvx512};

}  // namespace

const KernelTable* avx512_kernel_table() { return &kAvx512Table; }

#else

const KernelTable* avx512_kernel_table() { return nullptr; }

#endif

}  // namespace eefei::ml::simd
