#include "kernels/reduction.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "kernels/exp_variants.h"
#include "kernels/parallel.h"

namespace turbo::kernels {

void softmax_row(float* row, long n, float scale) {
  detail::best_exp_kernels().softmax_row(row, n, scale);
}

void softmax_rows(float* data, long rows, long cols, float scale) {
  const detail::ExpKernels& k = detail::best_exp_kernels();
#pragma omp parallel for schedule(static) \
    if (rows * cols >= kMinParallelElems)
  for (long r = 0; r < rows; ++r) {
    k.softmax_row(data + r * cols, cols, scale);
  }
}

void attention_softmax(float* scores, int batch, int heads, long s_q,
                       long s_k, float scale, const int* valid_len) {
  detail::attention_softmax(detail::best_exp_kernels(), scores, batch, heads,
                            s_q, s_k, scale, valid_len);
}

void detail::attention_softmax(const ExpKernels& k, float* scores, int batch,
                               int heads, long s_q, long s_k, float scale,
                               const int* valid_len) {
  const long rows_per_batch = static_cast<long>(heads) * s_q;
  // Validate masks up front: exceptions cannot propagate out of the
  // parallel region below.
  if (valid_len != nullptr) {
    for (int b = 0; b < batch; ++b) TT_CHECK_GT(valid_len[b], 0);
  }
#pragma omp parallel for collapse(2) schedule(static) \
    if (batch * rows_per_batch * s_k >= kMinParallelElems)
  for (int b = 0; b < batch; ++b) {
    for (long r = 0; r < rows_per_batch; ++r) {
      float* row = scores + (b * rows_per_batch + r) * s_k;
      const long valid = valid_len ? std::min<long>(valid_len[b], s_k) : s_k;
      k.softmax_row(row, valid, scale);
      // Masked keys get exactly zero weight.
      for (long c = valid; c < s_k; ++c) row[c] = 0.0f;
    }
  }
}

void layernorm(float* out, const float* in, const float* gamma,
               const float* beta, long rows, long cols, float eps) {
#pragma omp parallel for schedule(static) \
    if (rows * cols >= kMinParallelElemsHeavy)
  for (long r = 0; r < rows; ++r) {
    const float* x = in + r * cols;
    float* y = out + r * cols;
    double sum = 0.0, sq = 0.0;
    for (long c = 0; c < cols; ++c) {
      sum += x[c];
      sq += static_cast<double>(x[c]) * x[c];
    }
    const double mean = sum / static_cast<double>(cols);
    const double var = sq / static_cast<double>(cols) - mean * mean;
    const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    for (long c = 0; c < cols; ++c) {
      y[c] = gamma[c] * (static_cast<float>(x[c] - mean) * inv_std) + beta[c];
    }
  }
}

void add_bias_layernorm(float* out, const float* x, const float* residual,
                        const float* bias, const float* gamma,
                        const float* beta, long rows, long cols, float eps) {
#pragma omp parallel for schedule(static) \
    if (rows * cols >= kMinParallelElemsHeavy)
  for (long r = 0; r < rows; ++r) {
    const float* xr = x + r * cols;
    const float* res = residual + r * cols;
    float* y = out + r * cols;
    double sum = 0.0, sq = 0.0;
    // First pass materializes x + bias + residual into the output row, so
    // the reduction and normalize passes read the combined value.
    for (long c = 0; c < cols; ++c) {
      const float v = xr[c] + (bias ? bias[c] : 0.0f) + res[c];
      y[c] = v;
      sum += v;
      sq += static_cast<double>(v) * v;
    }
    const double mean = sum / static_cast<double>(cols);
    const double var = sq / static_cast<double>(cols) - mean * mean;
    const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    for (long c = 0; c < cols; ++c) {
      y[c] = gamma[c] * (static_cast<float>(y[c] - mean) * inv_std) + beta[c];
    }
  }
}

}  // namespace turbo::kernels
