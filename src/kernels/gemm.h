// CPU GEMM kernels standing in for cuBLAS.
//
// Row-major single precision. gemm runs one register-blocked FMA
// micro-kernel (gemm_microkernel.inc) in one of three builds, picked once
// per process with __builtin_cpu_supports: AVX-512F, else AVX2+FMA, else a
// portable std::fma build (the only one off x86-64 or under clang). No
// build flag selects it. Rows are split into 64-row blocks across OpenMP threads.
//
// Numerics: every build gives the same bits, and a C row depends only on
// its own A row, B and its own old C row, never on m, the row's position,
// the tiling or the thread count (batch invariance: a sequence decoded alone
// matches its batched run). Each element starts at beta * C (0 when beta is
// 0) and then:
//   - B[k,n]: c = fma(alpha * A[i,kk], B[kk,j], c) for kk ascending;
//   - trans_b, B[n,k]: c = fma(alpha, dot, c), where dot keeps 16 partial
//     sums (lane l takes kk = l mod 16, ascending) reduced by one fixed
//     tree: l + (l+8), then l + (l+4), l + (l+2), l + (l+1).
// gemm_ref is the naive double-accumulating triple loop used as the test
// oracle. GPU *timing* for GEMMs comes from the roofline in src/perfmodel.
#pragma once

namespace turbo::kernels {

// C[m,n] = alpha * A[m,k] x op(B) + beta * C, op(B) = B[k,n] or
// transposed B[n,k] when trans_b.
void gemm(const float* a, const float* b, float* c, int m, int n, int k,
          bool trans_b = false, float alpha = 1.0f, float beta = 0.0f);

// Reference implementation (naive, single-threaded).
void gemm_ref(const float* a, const float* b, float* c, int m, int n, int k,
              bool trans_b = false, float alpha = 1.0f, float beta = 0.0f);

// Strided batched GEMM (cublasGemmStridedBatched): `batch` independent
// GEMMs whose A/B/C start `stride_* ` floats apart.
void batched_gemm(const float* a, const float* b, float* c, int batch, int m,
                  int n, int k, long stride_a, long stride_b, long stride_c,
                  bool trans_b = false, float alpha = 1.0f, float beta = 0.0f);

}  // namespace turbo::kernels
