// Internal: the ISA variants behind kernels::paged_qk_dot and
// kernels::paged_av_accumulate, exposed for tests only.
//
// Each variant has the public kernel's signature and the arithmetic order
// stated in paged_attention.h, so every variant is bit-identical to the
// portable one. The public kernels run the variant of detail::best_isa(),
// the same choice kernels::gemm makes.
#pragma once

#include "kernels/paged_attention.h"
#include "kernels/simd_ops.h"

namespace turbo::kernels::detail {

using PagedQkFn = void (*)(const float* q, const KvSpan* spans, int num_spans,
                           long count, long row_stride, int heads, int d,
                           float* scores);
using PagedAvFn = void (*)(const float* probs, const KvSpan* spans,
                           int num_spans, long count, long row_stride,
                           int heads, int d, float* out);

// The variant for `isa`, or nullptr when this build or this CPU lacks it.
PagedQkFn paged_qk_variant(Isa isa);
PagedAvFn paged_av_variant(Isa isa);

}  // namespace turbo::kernels::detail
