// Deterministic SIMD math layer: the public dispatch surface.
//
// Every dense kernel of the ML layer (accumulate_rows/accumulate_outer and
// the whole-batch epoch kernels) is compiled once per instruction set from
// one templated body (simd_lanes.h) and selected at runtime through the
// KernelTable below.  The layer's contract is *determinism first*:
//
//   - Fixed per-element operation order.  Every backend — AVX-512, AVX2,
//     SSE2, NEON, and the scalar fallback — runs the identical IEEE-754
//     expression tree on each element in the identical order.  The 4-lane
//     backends group columns by kLanes (SSE2/NEON emulate the 4-lane
//     vector with two 2-lane halves; the scalar backend with a 4-double
//     struct).  Lanes are independent in every kernel — there are no
//     horizontal reductions — which is also why the AVX-512 backend may
//     regroup columns 8 at a time without moving a bit: lane grouping is
//     unobservable when ops never cross lanes.
//   - No fused multiply-add.  Kernels use separate mul/add (never fma
//     intrinsics) and the ml targets are built with -ffp-contract=off, so
//     the compiler cannot contract a*b+c behind our back.
//   - Identical tails and sparse-skips.  Row blocking (k in groups of 4
//     with the all-zero block skip) and the scalar column tail match the
//     pre-SIMD kernels expression-for-expression.  A 4-block is dead iff
//     every element compares == 0.0 (so −0.0 is dead and NaN is live); a
//     d%4 tail row is dead iff its element does.  The whole-batch entries
//     (accumulate_rows_tiled / accumulate_outer_transposed) test the same
//     predicate inline, per sample, and skip exactly the same set; the
//     AVX-512 sample-lane forward tests it as "the OR of the block's bit
//     patterns is ±0", which holds exactly when every element is ±0.
//
// Consequence: the SIMD path is bit-identical to the scalar path, which is
// bit-identical to the pre-SIMD kernels — golden fingerprints never move
// when the dispatcher picks a different ISA.  tests/test_simd.cpp pins this
// with hard-coded CRCs; DESIGN.md ("Floating-point determinism contract")
// spells out the rules.
//
// Dispatch order: EEFEI_SIMD=OFF builds always run the scalar fallback;
// otherwise the EEFEI_SIMD_ISA environment variable
// (scalar|sse2|avx2|avx512|neon) can force a backend, else CPUID picks the
// widest supported ISA (avx512 > avx2 > sse2 on x86).
#pragma once

#include <cstddef>
#include <string_view>

namespace eefei::ml::simd {

/// Fixed lane count of the portable vector: 4 doubles (one AVX2 register,
/// two SSE2/NEON registers, a 4-double struct for scalar).
inline constexpr std::size_t kLanes = 4;

enum class Isa { kScalar, kSse2, kAvx2, kAvx512, kNeon };

[[nodiscard]] std::string_view isa_name(Isa isa);

/// The dispatched kernel set.  All function pointers are non-null.
struct KernelTable {
  /// acc[j] += Σ_k x[k] · w[k·c + j]  (forward contraction, row-major w).
  void (*accumulate_rows)(const double* x, std::size_t d, std::size_t c,
                          const double* w, double* acc);
  /// out[k·c + j] += x[k] · err[j]  (outer-product gradient accumulation).
  void (*accumulate_outer)(const double* x, std::size_t d, std::size_t c,
                           const double* err, double* out);
  /// Whole-batch forward: for every sample s < n of the row-major batch x
  /// (n rows of d features),
  ///   acc[s·acc_stride + j] += Σ_k x[s·d + k] · w[k·c + j].
  /// Bit-identical to n sequential accumulate_rows calls.  Samples are
  /// tiled (4 per tile) so each live 4×c weight block is loaded once per
  /// tile instead of once per sample.  The AVX-512 body runs each full
  /// group of 8 samples with one sample per zmm lane (c ≤ 16): the 8 rows'
  /// 4-blocks are transposed in registers and the block-dead test is the
  /// bitwise OR of the four elements against 0.0.  Either way every
  /// accumulator receives its own canonical block chain in ascending k,
  /// and a block skips for a sample exactly when accumulate_rows would
  /// skip it.  Reads exactly rows [0, n) of x; writes only the first c
  /// doubles of each acc row.
  void (*accumulate_rows_tiled)(const double* x, std::size_t n, std::size_t d,
                                std::size_t c, const double* w, double* acc,
                                std::size_t acc_stride);
  /// Whole-batch backward into a TRANSPOSED gradient gt (c rows), over the
  /// first d columns of rows `ld` apart in both x and gt:
  ///   gt[j·ld + k] += x[s·ld + k] · err[s·err_stride + j],  s ascending.
  /// Element gt[j·ld + k] receives exactly the sequence that out[k·c + j]
  /// receives from n sequential accumulate_outer calls — one mul and one
  /// add per live (s, k), the same skip set — so after the exact transpose
  /// the bits match.  The transposed layout lets the kernel vectorize over
  /// k and hold a block of the accumulator in registers across the whole
  /// sample sweep.  ld > d covers a k strip: x and gt point at its first
  /// column, which must sit on the 4-block grid of the full row so the
  /// strip's blocks (and d%4 tail) are the full call's, element for
  /// element.  Strips therefore partition the gradient without moving a
  /// bit.
  void (*accumulate_outer_transposed)(const double* x, std::size_t n,
                                      std::size_t d, std::size_t ld,
                                      std::size_t c, const double* err,
                                      std::size_t err_stride, double* gt);
  Isa isa = Isa::kScalar;
};

/// The table picked for this process (see dispatch order above).  The
/// choice is made once, on first call, and never changes afterwards.
[[nodiscard]] const KernelTable& kernels();

/// ISA of the dispatched table.
[[nodiscard]] Isa active_isa();

/// Table for a specific backend, or nullptr when that backend is not
/// compiled into this binary or not runnable on this CPU.  The scalar
/// table is always available.  Used by the cross-ISA identity tests and
/// the scalar-reference microbenchmarks.
[[nodiscard]] const KernelTable* kernels_for(Isa isa);

/// True when this binary was configured with -DEEFEI_SIMD=ON.
[[nodiscard]] bool simd_build_enabled();

}  // namespace eefei::ml::simd
