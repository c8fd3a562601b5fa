// The single TU compiled with -mavx2 (only when EEFEI_SIMD=ON on an x86
// toolchain — see src/ml/CMakeLists.txt).  Everything AVX2 is confined
// here; the baseline dispatcher reaches it through avx2_kernel_table() and
// never executes these instructions unless CPUID reported support.
#include "ml/simd.h"
#include "ml/simd_lanes.h"

namespace eefei::ml::simd {

#if EEFEI_SIMD_ENABLED && defined(__AVX2__)

namespace {
constexpr KernelTable kAvx2Table{
    &accumulate_rows_vec_impl<Avx2Backend>,
    &accumulate_outer_vec_impl<Avx2Backend>,
    &accumulate_rows_tiled_impl<Avx2Backend>,
    &accumulate_outer_transposed_impl<Avx2Backend>,
    Isa::kAvx2};
}  // namespace

const KernelTable* avx2_kernel_table() { return &kAvx2Table; }

#else

const KernelTable* avx2_kernel_table() { return nullptr; }

#endif

}  // namespace eefei::ml::simd
