#include "kernels/exp_variants.h"

namespace turbo::kernels {

namespace {

// One variant per ISA: the kernel text included into its own namespace
// under that ISA's target (see simd_ops.h).
namespace portable {
using Ops = simd::portable::Ops;
#include "kernels/exp_microkernel.inc"
}  // namespace portable

#if defined(TT_SIMD_X86)
#pragma GCC push_options
#pragma GCC target("avx2,fma")
namespace avx2 {
using Ops = simd::avx2::Ops;
#include "kernels/exp_microkernel.inc"
}  // namespace avx2
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f,avx2,fma")
namespace avx512 {
using Ops = simd::avx512::Ops;
#include "kernels/exp_microkernel.inc"
}  // namespace avx512
#pragma GCC pop_options
#endif  // TT_SIMD_X86

}  // namespace

namespace detail {

const ExpKernels* exp_kernels(Isa isa) {
  if (!isa_supported(isa)) return nullptr;
#if defined(TT_SIMD_X86)
  if (isa == Isa::kAvx512) return &avx512::kTable;
  if (isa == Isa::kAvx2) return &avx2::kTable;
#endif
  return &portable::kTable;
}

const ExpKernels& best_exp_kernels() {
  static const ExpKernels& k = *exp_kernels(best_isa());
  return k;
}

}  // namespace detail

}  // namespace turbo::kernels
