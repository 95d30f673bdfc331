#include "kernels/gemm.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "kernels/gemm_variants.h"
#include "kernels/simd_ops.h"

namespace turbo::kernels {

namespace {

constexpr int kBlockM = 64;

// One variant per ISA: the micro-kernel text included into its own
// namespace under that ISA's target (see simd_ops.h).
namespace portable {
using Ops = simd::portable::Ops;
#include "kernels/gemm_microkernel.inc"
}  // namespace portable

#if defined(TT_SIMD_X86)
#pragma GCC push_options
#pragma GCC target("avx2,fma")
namespace avx2 {
using Ops = simd::avx2::Ops;
#include "kernels/gemm_microkernel.inc"
}  // namespace avx2
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f,avx2,fma")
namespace avx512 {
using Ops = simd::avx512::Ops;
#include "kernels/gemm_microkernel.inc"
}  // namespace avx512
#pragma GCC pop_options
#endif  // TT_SIMD_X86

}  // namespace

namespace detail {

GemmFn gemm_variant(Isa isa) {
  if (!isa_supported(isa)) return nullptr;
#if defined(TT_SIMD_X86)
  if (isa == Isa::kAvx512) return avx512::gemm_serial;
  if (isa == Isa::kAvx2) return avx2::gemm_serial;
#endif
  return portable::gemm_serial;
}

}  // namespace detail

void gemm_ref(const float* a, const float* b, float* c, int m, int n, int k,
              bool trans_b, float alpha, float beta) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int kk = 0; kk < k; ++kk) {
        const float bv = trans_b ? b[static_cast<long>(j) * k + kk]
                                 : b[static_cast<long>(kk) * n + j];
        acc += static_cast<double>(a[static_cast<long>(i) * k + kk]) * bv;
      }
      float* out = &c[static_cast<long>(i) * n + j];
      *out = alpha * static_cast<float>(acc) + beta * *out;
    }
  }
}

void gemm(const float* a, const float* b, float* c, int m, int n, int k,
          bool trans_b, float alpha, float beta) {
  TT_CHECK_GE(m, 0);
  TT_CHECK_GE(n, 0);
  TT_CHECK_GE(k, 0);
  if (m == 0 || n == 0) return;

  static const detail::GemmFn kernel = detail::gemm_variant(detail::best_isa());
  // Rows are independent and each C element's arithmetic is fixed, so the
  // split into 64-row blocks (and the thread count) cannot change a bit.
  const int blocks = (m + kBlockM - 1) / kBlockM;
#pragma omp parallel for schedule(static) if (blocks > 1)
  for (int blk = 0; blk < blocks; ++blk) {
    const int i0 = blk * kBlockM;
    kernel(a + static_cast<long>(i0) * k, b, c + static_cast<long>(i0) * n,
           std::min(kBlockM, m - i0), n, k, trans_b, alpha, beta);
  }
}

void batched_gemm(const float* a, const float* b, float* c, int batch, int m,
                  int n, int k, long stride_a, long stride_b, long stride_c,
                  bool trans_b, float alpha, float beta) {
  TT_CHECK_GE(batch, 0);
  for (int i = 0; i < batch; ++i) {
    gemm(a + static_cast<long>(i) * stride_a,
         b + static_cast<long>(i) * stride_b,
         c + static_cast<long>(i) * stride_c, m, n, k, trans_b, alpha, beta);
  }
}

}  // namespace turbo::kernels
