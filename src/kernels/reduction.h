// Batch-reduction kernels: Softmax and LayerNorm (CPU numerics).
//
// These are the reference semantics for the GPU-simulated kernels in
// src/gpukernels and the math the models execute. Masked softmax follows
// the paper's ApplyMaskAndSoftmax: padded key positions contribute -inf
// before the row softmax, which is how zero-padded batches stay correct.
#pragma once

namespace turbo::kernels {

// Numerically stable softmax over one row of n floats, in place. `scale`
// multiplies logits first (1/sqrt(d) attention scaling). The single-row
// primitive softmax_rows applies per row — callers on serial hot paths
// (decoder attention) use it directly to skip the parallel region.
//
// Three vector passes (exp_microkernel.inc): the max of row * scale,
// e = exp(row * scale - max) with their sum, then e * (1 / sum). The sum
// takes one order on every ISA (16 strided partial sums, then a fixed
// tree), so a row's bits depend on its values alone: not on where it sits
// in a batch, on its tail or on the ISA.
void softmax_row(float* row, long n, float scale = 1.0f);

// Numerically stable softmax over each row of data[rows, cols], in place.
// `scale` multiplies logits first (1/sqrt(d) attention scaling).
void softmax_rows(float* data, long rows, long cols, float scale = 1.0f);

// Attention softmax over scores [B, heads, S_q, S_k] with per-batch valid
// key lengths: for batch b, columns >= valid_len[b] are masked to -inf.
// valid_len may be null (no padding).
void attention_softmax(float* scores, int batch, int heads, long s_q,
                       long s_k, float scale, const int* valid_len);

// out[r, :] = gamma * (in[r, :] - mean) / sqrt(var + eps) + beta.
// in == out is allowed.
void layernorm(float* out, const float* in, const float* gamma,
               const float* beta, long rows, long cols, float eps = 1e-5f);

// Fused: y = layernorm(x + bias + residual). x, residual: [rows, cols];
// bias may be null. out == x is allowed.
void add_bias_layernorm(float* out, const float* x, const float* residual,
                        const float* bias, const float* gamma,
                        const float* beta, long rows, long cols,
                        float eps = 1e-5f);

}  // namespace turbo::kernels
