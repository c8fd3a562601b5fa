// Dense inner loops of the ML hot path (logistic forward/backward).  The
// hot pattern everywhere is a rank-1 style
// accumulation against a row-major weight block:
//
//   accumulate_rows:  acc[j]      += Σ_k x[k] · w[k·c + j]   (forward)
//   accumulate_outer: out[k·c+j]  += x[k] · err[j]           (backward)
//
// Since the SIMD layer landed these are one-line dispatchers into the
// runtime-selected kernel table (ml/simd.h): AVX2 / SSE2 / NEON / scalar,
// all bit-identical by the fixed-lane determinism contract.  The k-blocking
// (groups of four, with blocks whose four inputs are all zero — blank
// regions of the synthetic digit images — skipped outright) lives in the
// kernel bodies, simd_lanes.h.  One indirect call amortizes over an entire
// d×c row block, so the dispatch cost is noise even at the 784×10 shape.
#pragma once

#include <cstddef>

#include "ml/simd.h"

namespace eefei::ml {

/// acc[0..c) += Σ_k x[k] · w[k·c + j] for k in [0, d).
inline void accumulate_rows(const double* x, std::size_t d, std::size_t c,
                            const double* w, double* acc) {
  simd::kernels().accumulate_rows(x, d, c, w, acc);
}

/// out[k·c + j] += x[k] · err[j] for k in [0, d), j in [0, c) — the outer
/// product accumulation of the gradient contraction Xᵀ·(P − Y).
inline void accumulate_outer(const double* x, std::size_t d, std::size_t c,
                             const double* err, double* out) {
  simd::kernels().accumulate_outer(x, d, c, err, out);
}

}  // namespace eefei::ml
