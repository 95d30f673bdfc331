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

// A variant's serial kernel over all m rows: panel_gemm reads B packed,
// dot_gemm reads a row-major B[n,k].
using SerialFn = void (*)(const float* a, const float* b, float* c, int m,
                          int n, int k, float alpha, float beta);

SerialFn panel_kernel(detail::Isa isa) {
#if defined(TT_SIMD_X86)
  if (isa == detail::Isa::kAvx512) return avx512::panel_gemm;
  if (isa == detail::Isa::kAvx2) return avx2::panel_gemm;
#endif
  (void)isa;
  return portable::panel_gemm;
}

SerialFn dot_kernel(detail::Isa isa) {
#if defined(TT_SIMD_X86)
  if (isa == detail::Isa::kAvx512) return avx512::dot_gemm;
  if (isa == detail::Isa::kAvx2) return avx2::dot_gemm;
#endif
  (void)isa;
  return portable::dot_gemm;
}

// Rows are independent and each C element's arithmetic is fixed, so the
// split into 64-row blocks (and the thread count) cannot change a bit.
void split_rows(SerialFn kernel, const float* a, const float* b, float* c,
                int m, int n, int k, float alpha, float beta) {
  const int blocks = (m + kBlockM - 1) / kBlockM;
#pragma omp parallel for schedule(static) if (blocks > 1)
  for (int blk = 0; blk < blocks; ++blk) {
    const int i0 = blk * kBlockM;
    kernel(a + static_cast<long>(i0) * k, b, c + static_cast<long>(i0) * n,
           std::min(kBlockM, m - i0), n, k, alpha, beta);
  }
}

size_t panel_bytes(int k, int n) {
  return sizeof(float) * static_cast<size_t>(k) * static_cast<size_t>(n);
}

// Writes row-major b[k, n] into `panels` in PackedWeight's layout.
void pack_panels(const float* b, int k, int n, float* panels) {
  constexpr int kPanel = PackedWeight::kPanelWidth;
  for (int j0 = 0; j0 < n; j0 += kPanel) {
    const int pw = std::min(kPanel, n - j0);
    float* panel = panels + static_cast<long>(j0) * k;
    for (int kk = 0; kk < k; ++kk) {
      const float* row = b + static_cast<long>(kk) * n + j0;
      std::copy(row, row + pw, panel + static_cast<long>(kk) * pw);
    }
  }
}

// The raw-pointer gemm's B in panel layout: B itself when it is one panel
// (n <= kPanelWidth: row-major is then the layout), else packed into this
// thread's scratch buffer, which only grows.
const float* as_panels(const float* b, int k, int n) {
  if (n <= PackedWeight::kPanelWidth) return b;
  thread_local AlignedBuffer scratch;
  if (scratch.size() < panel_bytes(k, n)) {
    scratch = AlignedBuffer(panel_bytes(k, n));
  }
  float* panels = reinterpret_cast<float*>(scratch.data());
  pack_panels(b, k, n, panels);
  return panels;
}

}  // namespace

PackedWeight PackedWeight::pack(const float* b, int k, int n) {
  TT_CHECK_GE(k, 0);
  TT_CHECK_GE(n, 0);
  auto storage = std::make_shared<AlignedBuffer>(panel_bytes(k, n));
  pack_panels(b, k, n, reinterpret_cast<float*>(storage->data()));
  PackedWeight w;
  w.k_ = k;
  w.n_ = n;
  w.storage_ = std::move(storage);
  return w;
}

Tensor PackedWeight::unpack() const {
  TT_CHECK(defined());
  Tensor t = Tensor::owned(Shape{k_, n_});
  float* out = t.data<float>();
  for (int j0 = 0; j0 < n_; j0 += kPanelWidth) {
    const int pw = std::min(kPanelWidth, n_ - j0);
    const float* panel = data() + static_cast<long>(j0) * k_;
    for (int kk = 0; kk < k_; ++kk) {
      const float* row = panel + static_cast<long>(kk) * pw;
      std::copy(row, row + pw, out + static_cast<long>(kk) * n_ + j0);
    }
  }
  return t;
}

namespace detail {

void gemm(Isa isa, const float* a, const float* b, float* c, int m, int n,
          int k, bool trans_b, float alpha, float beta) {
  TT_CHECK_GE(m, 0);
  TT_CHECK_GE(n, 0);
  TT_CHECK_GE(k, 0);
  if (m == 0 || n == 0) return;
  if (trans_b) {
    split_rows(dot_kernel(isa), a, b, c, m, n, k, alpha, beta);
  } else {
    split_rows(panel_kernel(isa), a, as_panels(b, k, n), c, m, n, k, alpha,
               beta);
  }
}

void gemm(Isa isa, const float* a, const PackedWeight& b, float* c, int m,
          float alpha, float beta) {
  TT_CHECK(b.defined());
  TT_CHECK_GE(m, 0);
  if (m == 0 || b.n() == 0) return;
  split_rows(panel_kernel(isa), a, b.data(), c, m, b.n(), b.k(), alpha, beta);
}

}  // namespace detail

void gemm(const float* a, const float* b, float* c, int m, int n, int k,
          bool trans_b, float alpha, float beta) {
  detail::gemm(detail::best_isa(), a, b, c, m, n, k, trans_b, alpha, beta);
}

void gemm(const float* a, const PackedWeight& b, float* c, int m, float alpha,
          float beta) {
  detail::gemm(detail::best_isa(), a, b, c, m, alpha, beta);
}

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
      // C is not read when beta is 0 (gemm.h): it may hold anything.
      float* out = &c[static_cast<long>(i) * n + j];
      const float scaled = alpha * static_cast<float>(acc);
      *out = beta == 0.0f ? scaled : scaled + beta * *out;
    }
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
