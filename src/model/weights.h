// Weight containers for the transformer models. Weights are owned tensors,
// seeded deterministically: the paper's benchmarks likewise use randomly
// initialized models since serving performance is weight-independent. Every
// GEMM weight is a kernels::PackedWeight, packed once when it is made; the
// shapes below are the row-major [k, n] it was packed from.
#pragma once

#include <vector>

#include "common/rng.h"
#include "kernels/gemm.h"
#include "model/config.h"
#include "tensor/tensor.h"

namespace turbo::model {

// A [k, n] GEMM weight drawn row-major from N(0, 0.02) and packed.
kernels::PackedWeight random_weight(Rng& rng, int k, int n);

struct EncoderLayerWeights {
  // Attention. Fused QKV projection: [H, 3H], bias [3H]
  // (column blocks: Q | K | V).
  kernels::PackedWeight qkv_weight;
  Tensor qkv_bias;
  kernels::PackedWeight attn_out_weight;  // [H, H]
  Tensor attn_out_bias;                   // [H]
  Tensor ln1_gamma, ln1_beta;             // [H]
  // Feed-forward.
  kernels::PackedWeight inter_weight;     // [H, I]
  Tensor inter_bias;                      // [I]
  kernels::PackedWeight out_weight;       // [I, H]
  Tensor out_bias;                        // [H]
  Tensor ln2_gamma, ln2_beta;             // [H]

  static EncoderLayerWeights random(const ModelConfig& config, Rng& rng);
};

struct EmbeddingWeights {
  Tensor word;        // [vocab, H]
  Tensor position;    // [max_pos, H]
  Tensor ln_gamma, ln_beta;

  static EmbeddingWeights random(const ModelConfig& config, Rng& rng);
};

struct EncoderWeights {
  EmbeddingWeights embedding;
  // One entry when config.share_layer_weights (ALBERT), else num_layers.
  std::vector<EncoderLayerWeights> layers;

  static EncoderWeights random(const ModelConfig& config, uint64_t seed);
};

struct DecoderLayerWeights {
  // Self-attention (causal, cached).
  kernels::PackedWeight self_qkv_weight;       // [H, 3H]
  Tensor self_qkv_bias;                        // [3H]
  kernels::PackedWeight self_out_weight;       // [H, H]
  Tensor self_out_bias;                        // [H]
  Tensor ln1_gamma, ln1_beta;
  // Cross-attention over the encoder memory.
  kernels::PackedWeight cross_q_weight;        // [H, H]
  Tensor cross_q_bias;                         // [H]
  kernels::PackedWeight cross_kv_weight;       // [H, 2H]
  Tensor cross_kv_bias;                        // [2H]
  kernels::PackedWeight cross_out_weight;      // [H, H]
  Tensor cross_out_bias;                       // [H]
  Tensor ln2_gamma, ln2_beta;
  // Feed-forward.
  kernels::PackedWeight inter_weight;          // [H, I]
  Tensor inter_bias;                           // [I]
  kernels::PackedWeight out_weight;            // [I, H]
  Tensor out_bias;                             // [H]
  Tensor ln3_gamma, ln3_beta;

  static DecoderLayerWeights random(const ModelConfig& config, Rng& rng);
};

struct DecoderWeights {
  EmbeddingWeights embedding;            // target-side
  std::vector<DecoderLayerWeights> layers;
  kernels::PackedWeight output_proj;     // [H, vocab] logits projection

  static DecoderWeights random(const ModelConfig& config, uint64_t seed);
};

}  // namespace turbo::model
