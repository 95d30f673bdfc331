// Internal: the kernels built on the one vector exp (exp_microkernel.inc),
// one table per ISA variant, exposed for tests only. The public gelu,
// add_bias_gelu, tanh and softmaxes run detail::best_isa()'s table; every
// variant gives the same bits, so which one runs changes nothing.
#pragma once

#include "kernels/simd_ops.h"

namespace turbo::kernels::detail {

struct ExpKernels {
  // out[i] = exp(in[i]); in == out is allowed. Inputs are clamped to
  // [-86.5, 88], so exp of anything below -86.5 reads exp(-86.5), about
  // 2.6e-38, not 0.
  void (*exp)(const float* in, float* out, long n);
  // kernels::gelu, kernels::tanh and kernels::softmax_row.
  void (*gelu)(float* data, long n);
  void (*tanh)(float* data, long n);
  void (*softmax_row)(float* row, long n, float scale);
};

// The table of `isa`, or nullptr when this build or this CPU lacks it.
const ExpKernels* exp_kernels(Isa isa);

// The table of best_isa(), chosen once per process.
const ExpKernels& best_exp_kernels();

// kernels::add_bias_gelu and kernels::attention_softmax on table `k`.
void add_bias_gelu(const ExpKernels& k, float* data, const float* bias,
                   long rows, long cols);
void attention_softmax(const ExpKernels& k, float* scores, int batch,
                       int heads, long s_q, long s_k, float scale,
                       const int* valid_len);

}  // namespace turbo::kernels::detail
