#include "model/weights.h"

#include <cmath>

namespace turbo::model {

namespace {

Tensor random_matrix(Rng& rng, int64_t rows, int64_t cols) {
  Tensor t = Tensor::owned(Shape{rows, cols});
  // Scaled init keeps activations O(1) through deep stacks.
  const float stddev = 0.02f;
  rng.fill_normal(t.data<float>(), static_cast<size_t>(t.numel()), 0.0f,
                  stddev);
  return t;
}

Tensor random_bias(Rng& rng, int64_t n) {
  Tensor t = Tensor::owned(Shape{n});
  rng.fill_normal(t.data<float>(), static_cast<size_t>(t.numel()), 0.0f,
                  0.01f);
  return t;
}

Tensor ones(int64_t n) {
  Tensor t = Tensor::owned(Shape{n});
  float* d = t.data<float>();
  for (int64_t i = 0; i < n; ++i) d[i] = 1.0f;
  return t;
}

}  // namespace

kernels::PackedWeight random_weight(Rng& rng, int k, int n) {
  // Packed straight from the freshly drawn matrix, which is then freed: one
  // matrix at a time is ever held twice.
  const Tensor t = random_matrix(rng, k, n);
  return kernels::PackedWeight::pack(t.data<float>(), k, n);
}

EncoderLayerWeights EncoderLayerWeights::random(const ModelConfig& config,
                                                Rng& rng) {
  const int H = config.hidden;
  const int I = config.intermediate;
  EncoderLayerWeights w;
  w.qkv_weight = random_weight(rng, H, 3 * H);
  w.qkv_bias = random_bias(rng, 3 * H);
  w.attn_out_weight = random_weight(rng, H, H);
  w.attn_out_bias = random_bias(rng, H);
  w.ln1_gamma = ones(H);
  w.ln1_beta = random_bias(rng, H);
  w.inter_weight = random_weight(rng, H, I);
  w.inter_bias = random_bias(rng, I);
  w.out_weight = random_weight(rng, I, H);
  w.out_bias = random_bias(rng, H);
  w.ln2_gamma = ones(H);
  w.ln2_beta = random_bias(rng, H);
  return w;
}

EmbeddingWeights EmbeddingWeights::random(const ModelConfig& config,
                                          Rng& rng) {
  EmbeddingWeights w;
  w.word = random_matrix(rng, config.vocab, config.hidden);
  w.position = random_matrix(rng, config.max_pos, config.hidden);
  w.ln_gamma = ones(config.hidden);
  w.ln_beta = random_bias(rng, config.hidden);
  return w;
}

EncoderWeights EncoderWeights::random(const ModelConfig& config,
                                      uint64_t seed) {
  Rng rng(seed);
  EncoderWeights w;
  w.embedding = EmbeddingWeights::random(config, rng);
  const int distinct = config.share_layer_weights ? 1 : config.num_layers;
  w.layers.reserve(static_cast<size_t>(distinct));
  for (int i = 0; i < distinct; ++i) {
    w.layers.push_back(EncoderLayerWeights::random(config, rng));
  }
  return w;
}

DecoderLayerWeights DecoderLayerWeights::random(const ModelConfig& config,
                                                Rng& rng) {
  const int H = config.hidden;
  const int I = config.intermediate;
  DecoderLayerWeights w;
  w.self_qkv_weight = random_weight(rng, H, 3 * H);
  w.self_qkv_bias = random_bias(rng, 3 * H);
  w.self_out_weight = random_weight(rng, H, H);
  w.self_out_bias = random_bias(rng, H);
  w.ln1_gamma = ones(H);
  w.ln1_beta = random_bias(rng, H);
  w.cross_q_weight = random_weight(rng, H, H);
  w.cross_q_bias = random_bias(rng, H);
  w.cross_kv_weight = random_weight(rng, H, 2 * H);
  w.cross_kv_bias = random_bias(rng, 2 * H);
  w.cross_out_weight = random_weight(rng, H, H);
  w.cross_out_bias = random_bias(rng, H);
  w.ln2_gamma = ones(H);
  w.ln2_beta = random_bias(rng, H);
  w.inter_weight = random_weight(rng, H, I);
  w.inter_bias = random_bias(rng, I);
  w.out_weight = random_weight(rng, I, H);
  w.out_bias = random_bias(rng, H);
  w.ln3_gamma = ones(H);
  w.ln3_beta = random_bias(rng, H);
  return w;
}

DecoderWeights DecoderWeights::random(const ModelConfig& config,
                                      uint64_t seed) {
  Rng rng(seed);
  DecoderWeights w;
  w.embedding = EmbeddingWeights::random(config, rng);
  w.layers.reserve(static_cast<size_t>(config.num_layers));
  for (int i = 0; i < config.num_layers; ++i) {
    w.layers.push_back(DecoderLayerWeights::random(config, rng));
  }
  w.output_proj = random_weight(rng, config.hidden, config.vocab);
  return w;
}

}  // namespace turbo::model
