// Internal: the ISA variants behind kernels::gemm, exposed for tests only.
//
// Each variant computes C[m,n] = alpha * A x op(B) + beta * C serially, for
// any m, with the per-element arithmetic order stated in gemm.h, so every
// variant is bit-identical to the portable one. kernels::gemm runs the
// variant of detail::best_isa() and splits m into row blocks across threads.
#pragma once

#include "kernels/simd_ops.h"

namespace turbo::kernels::detail {

using GemmFn = void (*)(const float* a, const float* b, float* c, int m, int n,
                        int k, bool trans_b, float alpha, float beta);

// The variant for `isa`, or nullptr when this build or this CPU lacks it.
GemmFn gemm_variant(Isa isa);

}  // namespace turbo::kernels::detail
