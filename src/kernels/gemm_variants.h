// Internal: kernels::gemm on a chosen ISA variant, exposed for tests only.
//
// Both overloads do what the public ones do (the same packing and 64-row
// thread split) but run `isa`'s micro-kernels instead of detail::best_isa()'s.
// Every variant follows the per-element arithmetic order stated in gemm.h, so
// each is bit-identical to the portable one. `isa` must be isa_supported.
#pragma once

#include "kernels/gemm.h"
#include "kernels/simd_ops.h"

namespace turbo::kernels::detail {

void gemm(Isa isa, const float* a, const float* b, float* c, int m, int n,
          int k, bool trans_b, float alpha, float beta);

void gemm(Isa isa, const float* a, const PackedWeight& b, float* c, int m,
          float alpha, float beta);

}  // namespace turbo::kernels::detail
