#include "kernels/paged_attention.h"

#include <algorithm>

#include "kernels/paged_attention_variants.h"
#include "kernels/simd_ops.h"

namespace turbo::kernels {

namespace {

// One variant per ISA: the kernel text included into its own namespace
// under that ISA's target (see simd_ops.h).
namespace portable {
using Ops = simd::portable::Ops;
#include "kernels/paged_attention_microkernel.inc"
}  // namespace portable

#if defined(TT_SIMD_X86)
#pragma GCC push_options
#pragma GCC target("avx2,fma")
namespace avx2 {
using Ops = simd::avx2::Ops;
#include "kernels/paged_attention_microkernel.inc"
}  // namespace avx2
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f,avx2,fma")
namespace avx512 {
using Ops = simd::avx512::Ops;
#include "kernels/paged_attention_microkernel.inc"
}  // namespace avx512
#pragma GCC pop_options
#endif  // TT_SIMD_X86

}  // namespace

namespace detail {

PagedQkFn paged_qk_variant(Isa isa) {
  if (!isa_supported(isa)) return nullptr;
#if defined(TT_SIMD_X86)
  if (isa == Isa::kAvx512) return avx512::paged_qk;
  if (isa == Isa::kAvx2) return avx2::paged_qk;
#endif
  return portable::paged_qk;
}

PagedAvFn paged_av_variant(Isa isa) {
  if (!isa_supported(isa)) return nullptr;
#if defined(TT_SIMD_X86)
  if (isa == Isa::kAvx512) return avx512::paged_av;
  if (isa == Isa::kAvx2) return avx2::paged_av;
#endif
  return portable::paged_av;
}

}  // namespace detail

void paged_qk_dot(const float* q, const KvSpan* spans, int num_spans,
                  long count, long row_stride, int heads, int d,
                  float* scores) {
  static const detail::PagedQkFn kernel =
      detail::paged_qk_variant(detail::best_isa());
  kernel(q, spans, num_spans, count, row_stride, heads, d, scores);
}

void paged_av_accumulate(const float* probs, const KvSpan* spans,
                         int num_spans, long count, long row_stride,
                         int heads, int d, float* out) {
  static const detail::PagedAvFn kernel =
      detail::paged_av_variant(detail::best_isa());
  kernel(probs, spans, num_spans, count, row_stride, heads, d, out);
}

}  // namespace turbo::kernels
