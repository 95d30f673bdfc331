#include "kernels/elementwise.h"

#include "kernels/exp_variants.h"
#include "kernels/parallel.h"

namespace turbo::kernels {

void add_bias(float* data, const float* bias, long rows, long cols) {
#pragma omp parallel for schedule(static) if (rows * cols >= kMinParallelElems)
  for (long r = 0; r < rows; ++r) {
    float* row = data + r * cols;
    for (long c = 0; c < cols; ++c) row[c] += bias[c];
  }
}

void gelu(float* data, long n) { detail::best_exp_kernels().gelu(data, n); }

void tanh(float* data, long n) { detail::best_exp_kernels().tanh(data, n); }

void add_bias_gelu(float* data, const float* bias, long rows, long cols) {
  detail::add_bias_gelu(detail::best_exp_kernels(), data, bias, rows, cols);
}

void detail::add_bias_gelu(const ExpKernels& k, float* data, const float* bias,
                           long rows, long cols) {
#pragma omp parallel for schedule(static) \
    if (rows * cols >= kMinParallelElems)
  for (long r = 0; r < rows; ++r) {
    float* row = data + r * cols;
    for (long c = 0; c < cols; ++c) row[c] += bias[c];
    k.gelu(row, cols);
  }
}

void add_residual(float* x, const float* residual, long n) {
#pragma omp parallel for schedule(static) if (n >= kMinParallelElems)
  for (long i = 0; i < n; ++i) x[i] += residual[i];
}

void split_add_bias_transpose(const float* qkv, const float* bias, float* q,
                              float* k, float* v, int batch, int seq,
                              int heads, int head_dim) {
  const long hidden = static_cast<long>(heads) * head_dim;
  float* outs[3] = {q, k, v};
#pragma omp parallel for collapse(2) schedule(static) \
    if (3L * batch * seq * hidden >= kMinParallelElems)
  for (int b = 0; b < batch; ++b) {
    for (int s = 0; s < seq; ++s) {
      const float* src = qkv + ((static_cast<long>(b) * seq + s) * 3) * hidden;
      for (int which = 0; which < 3; ++which) {
        const float* plane = src + which * hidden;
        const float* bias_plane = bias + which * hidden;
        for (int h = 0; h < heads; ++h) {
          float* dst = outs[which] +
                       ((static_cast<long>(b) * heads + h) * seq + s) *
                           head_dim;
          const long off = static_cast<long>(h) * head_dim;
          for (int d = 0; d < head_dim; ++d) {
            dst[d] = plane[off + d] + bias_plane[off + d];
          }
        }
      }
    }
  }
}

void transpose_to_heads(const float* in, float* out, int batch, int seq,
                        int heads, int head_dim) {
  const long hidden = static_cast<long>(heads) * head_dim;
#pragma omp parallel for collapse(2) schedule(static) \
    if (static_cast<long>(batch) * seq * hidden >= kMinParallelElems)
  for (int b = 0; b < batch; ++b) {
    for (int s = 0; s < seq; ++s) {
      const float* src = in + (static_cast<long>(b) * seq + s) * hidden;
      for (int h = 0; h < heads; ++h) {
        float* dst = out + ((static_cast<long>(b) * heads + h) * seq + s) *
                               head_dim;
        const long off = static_cast<long>(h) * head_dim;
        for (int d = 0; d < head_dim; ++d) dst[d] = src[off + d];
      }
    }
  }
}

void transpose_for_score(const float* in, float* out, int batch, int seq,
                         int heads, int head_dim) {
  const long hidden = static_cast<long>(heads) * head_dim;
#pragma omp parallel for collapse(2) schedule(static) \
    if (static_cast<long>(batch) * seq * hidden >= kMinParallelElems)
  for (int b = 0; b < batch; ++b) {
    for (int s = 0; s < seq; ++s) {
      float* dst = out + (static_cast<long>(b) * seq + s) * hidden;
      for (int h = 0; h < heads; ++h) {
        const float* src = in +
                           ((static_cast<long>(b) * heads + h) * seq + s) *
                               head_dim;
        const long off = static_cast<long>(h) * head_dim;
        for (int d = 0; d < head_dim; ++d) dst[off + d] = src[d];
      }
    }
  }
}

}  // namespace turbo::kernels
