// Element-wise and layout kernels (the "embarrassingly parallel" class of
// paper §4.1.1), including the fused variants TurboTransformers adds:
// combined add-bias + activation and the split/transpose kernels that have
// no cuDNN equivalent.
//
// Layout conventions (all row-major):
//   activations  [B, S, H]          H = heads * head_dim
//   per-head     [B, heads, S, d]
//   packed QKV   [B, S, 3, H]       (projection weight packed [H, 3H])
#pragma once

namespace turbo::kernels {

// data[r, c] += bias[c]
void add_bias(float* data, const float* bias, long rows, long cols);

// GELU, BERT's tanh approximation, computed as the same function
// x / (1 + exp(-2u)) on the one vector exp (exp_microkernel.inc): within
// 1e-6 of it over [-20, 20]. Each element's bits depend on its value
// alone: not on its position, n or the ISA. Serial: its one caller is the
// reference encoder.
void gelu(float* data, long n);

// Fused: data[r, c] = gelu(data[r, c] + bias[c]), the bits of add_bias
// followed by gelu.
void add_bias_gelu(float* data, const float* bias, long rows, long cols);

// tanh as 2 / (1 + exp(-2x)) - 1 on the same exp, within 3e-7 of it.
// Serial: its one caller is the classifier pooler's few rows.
void tanh(float* data, long n);

// x[i] += residual[i]
void add_residual(float* x, const float* residual, long n);

// Packed QKV [B, S, 3, H] + packed bias [3, H] -> three [B, heads, S, d]
// tensors. The fused replacement for three bias-adds and three transposes.
void split_add_bias_transpose(const float* qkv, const float* bias, float* q,
                              float* k, float* v, int batch, int seq,
                              int heads, int head_dim);

// [B, S, H] + bias[H] -> [B, heads, S, d]  (unfused pipeline's per-tensor
// transpose; bias pass kept separate in the unfused path).
void transpose_to_heads(const float* in, float* out, int batch, int seq,
                        int heads, int head_dim);

// [B, heads, S, d] -> [B, S, H]  (context re-layout after attention).
void transpose_for_score(const float* in, float* out, int batch, int seq,
                         int heads, int head_dim);

}  // namespace turbo::kernels
