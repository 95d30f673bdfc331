// CPU GEMM kernels standing in for cuBLAS.
//
// Single precision. gemm runs register-blocked FMA micro-kernels
// (gemm_microkernel.inc) in one of three builds, picked once per process
// with __builtin_cpu_supports: AVX-512F, else AVX2+FMA, else a portable
// std::fma build (the only one off x86-64 or under clang). No build flag
// selects it. Rows are split into 64-row blocks across OpenMP threads.
//
// Layout. A and C are row-major. A non-transposed B[k,n] is read in
// PackedWeight's panel layout: column panels kPanelWidth floats wide, each
// stored as k contiguous panel rows, so a micro-kernel tile streams one
// contiguous block instead of k rows n floats apart. Model weights are
// packed once, at load, and held only packed. The raw-pointer gemm packs a
// row-major B into a per-thread scratch buffer on every call and runs the
// same kernel; a B of at most kPanelWidth columns is already one panel and
// is read in place. A transposed B[n,k] (trans_b: attention scores, whose B
// is an activation) is read row-major.
//
// Numerics: every build gives the same bits, and a C row depends only on
// its own A row, B and its own old C row, never on m, the row's position,
// the tiling, the thread count or whether B came packed or raw (batch
// invariance: a sequence decoded alone matches its batched run). Each
// element starts at beta * C (0 when beta is 0) and then:
//   - B[k,n]: c = fma(alpha * A[i,kk], B[kk,j], c) for kk ascending;
//   - trans_b, B[n,k]: c = fma(alpha, dot, c), where dot keeps 16 partial
//     sums (lane l takes kk = l mod 16, ascending) reduced by one fixed
//     tree: l + (l+8), then l + (l+4), l + (l+2), l + (l+1).
// gemm_ref is the naive double-accumulating triple loop used as the test
// oracle. GPU *timing* for GEMMs comes from the roofline in src/perfmodel.
#pragma once

#include <memory>

#include "common/aligned_buffer.h"
#include "tensor/tensor.h"

namespace turbo::kernels {

// A [k, n] GEMM weight stored once in the micro-kernel's panel layout.
// Panel p holds columns [p * kPanelWidth, p * kPanelWidth + w), w =
// min(kPanelWidth, n - p * kPanelWidth), as k rows of w floats; the panels
// follow one another, so the buffer holds exactly k * n floats. Copies share
// the (immutable) buffer, as Tensor copies share storage.
class PackedWeight {
 public:
  // Every variant's column strip (AVX-512 3 x 16, AVX2 3 x 8, portable 4)
  // divides it, so one layout serves every ISA.
  static constexpr int kPanelWidth = 48;

  PackedWeight() = default;

  // Packs row-major b[k, n].
  static PackedWeight pack(const float* b, int k, int n);

  // The row-major [k, n] matrix, bit-equal to what was packed. For cold
  // readers (checkpoints, reference paths); the GEMM reads the panels.
  Tensor unpack() const;

  int k() const { return k_; }
  int n() const { return n_; }
  long size() const { return static_cast<long>(k_) * n_; }
  bool defined() const { return storage_ != nullptr; }
  const float* data() const {
    return reinterpret_cast<const float*>(storage_->data());
  }

 private:
  int k_ = 0, n_ = 0;
  std::shared_ptr<const AlignedBuffer> storage_;
};

// C[m,n] = alpha * A[m,k] x op(B) + beta * C, op(B) = B[k,n] or
// transposed B[n,k] when trans_b.
void gemm(const float* a, const float* b, float* c, int m, int n, int k,
          bool trans_b = false, float alpha = 1.0f, float beta = 0.0f);

// C[m, b.n()] = alpha * A[m, b.k()] x B + beta * C with B packed: the same
// bits as gemm() on the row-major B, without the per-call packing.
void gemm(const float* a, const PackedWeight& b, float* c, int m,
          float alpha = 1.0f, float beta = 0.0f);

// Reference implementation (naive, single-threaded).
void gemm_ref(const float* a, const float* b, float* c, int m, int n, int k,
              bool trans_b = false, float alpha = 1.0f, float beta = 0.0f);

// Strided batched GEMM (cublasGemmStridedBatched): `batch` independent
// GEMMs whose A/B/C start `stride_* ` floats apart.
void batched_gemm(const float* a, const float* b, float* c, int batch, int m,
                  int n, int k, long stride_a, long stride_b, long stride_c,
                  bool trans_b = false, float alpha = 1.0f, float beta = 0.0f);

}  // namespace turbo::kernels
