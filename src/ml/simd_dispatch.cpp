// Runtime ISA dispatch for the deterministic SIMD layer.  This TU is built
// with the project's baseline flags (x86-64: SSE2 guaranteed); the AVX2
// instantiation lives in simd_avx2.cpp, the only TU compiled with -mavx2,
// and is reached through avx2_kernel_table() so no AVX2 instruction can
// leak into baseline code paths.
#include "ml/simd.h"

#include <cstdlib>
#include <cstring>

#include "ml/simd_lanes.h"

namespace eefei::ml::simd {

namespace {

// The scalar table keeps the original (plain interleaved) kernel bodies:
// it is the bit- and structure-identical stand-in for the pre-SIMD code,
// which makes it both the EEFEI_SIMD=OFF fallback and the honest perf
// reference for bench_micro's speedup_vs_scalar.  Vector backends regroup
// the column loop into Vec/Half/scalar tails (same per-element op order,
// so same bits).  The whole-batch entries have one body for every table.
constexpr KernelTable kScalarTable{&accumulate_rows_impl<ScalarBackend>,
                                   &accumulate_outer_impl<ScalarBackend>,
                                   &accumulate_rows_tiled_impl<ScalarBackend>,
                                   &accumulate_outer_transposed_impl<ScalarBackend>,
                                   Isa::kScalar};

template <class B>
constexpr KernelTable make_vector_table(Isa isa) {
  return KernelTable{&accumulate_rows_vec_impl<B>,
                     &accumulate_outer_vec_impl<B>,
                     &accumulate_rows_tiled_impl<B>,
                     &accumulate_outer_transposed_impl<B>,
                     isa};
}

#if defined(__SSE2__)
constexpr KernelTable kSse2Table = make_vector_table<Sse2Backend>(Isa::kSse2);
#endif
#if defined(__aarch64__) && defined(__ARM_NEON)
constexpr KernelTable kNeonTable = make_vector_table<NeonBackend>(Isa::kNeon);
#endif

bool cpu_has_avx2() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool cpu_has_avx512f() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  // __builtin_cpu_supports also checks OS XSAVE state for zmm registers.
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

// Widest backend this build + CPU supports, honouring the EEFEI_SIMD_ISA
// override (scalar|sse2|avx2|avx512|neon).  An override naming an
// unavailable backend falls through to auto-detection rather than crashing.
const KernelTable& detect() {
#if !EEFEI_SIMD_ENABLED
  return kScalarTable;
#else
  if (const char* force = std::getenv("EEFEI_SIMD_ISA")) {
    if (std::strcmp(force, "scalar") == 0) return kScalarTable;
#if defined(__SSE2__)
    if (std::strcmp(force, "sse2") == 0) return kSse2Table;
#endif
#if defined(__aarch64__) && defined(__ARM_NEON)
    if (std::strcmp(force, "neon") == 0) return kNeonTable;
#endif
    if (std::strcmp(force, "avx2") == 0 && cpu_has_avx2()) {
      if (const KernelTable* t = avx2_kernel_table()) return *t;
    }
    if (std::strcmp(force, "avx512") == 0 && cpu_has_avx512f()) {
      if (const KernelTable* t = avx512_kernel_table()) return *t;
    }
  }
  if (cpu_has_avx512f()) {
    if (const KernelTable* t = avx512_kernel_table()) return *t;
  }
  if (cpu_has_avx2()) {
    if (const KernelTable* t = avx2_kernel_table()) return *t;
  }
#if defined(__aarch64__) && defined(__ARM_NEON)
  return kNeonTable;
#elif defined(__SSE2__)
  return kSse2Table;
#else
  return kScalarTable;
#endif
#endif  // EEFEI_SIMD_ENABLED
}

}  // namespace

const KernelTable& kernels() {
  static const KernelTable& table = detect();
  return table;
}

Isa active_isa() { return kernels().isa; }

const KernelTable* kernels_for(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return &kScalarTable;
    case Isa::kSse2:
#if defined(__SSE2__)
      return &kSse2Table;
#else
      return nullptr;
#endif
    case Isa::kAvx2:
      return cpu_has_avx2() ? avx2_kernel_table() : nullptr;
    case Isa::kAvx512:
      return cpu_has_avx512f() ? avx512_kernel_table() : nullptr;
    case Isa::kNeon:
#if defined(__aarch64__) && defined(__ARM_NEON)
      return &kNeonTable;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

bool simd_build_enabled() { return EEFEI_SIMD_ENABLED != 0; }

std::string_view isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kSse2:
      return "sse2";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

}  // namespace eefei::ml::simd
