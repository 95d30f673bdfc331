#include "model/encoder.h"

#include <cmath>

#include "kernels/elementwise.h"
#include "kernels/embedding.h"
#include "kernels/fp16.h"
#include "kernels/gemm.h"
#include "kernels/reduction.h"

namespace turbo::model {

EncoderModel::EncoderModel(ModelConfig config, uint64_t seed)
    : EncoderModel(config, EncoderWeights::random(config, seed)) {}

EncoderModel::EncoderModel(ModelConfig config, EncoderWeights weights)
    : config_(std::move(config)),
      weights_(std::move(weights)),
      layer_graph_(graph::build_encoder_layer_fused(config_.layer_dims())) {
  TT_CHECK_EQ(weights_.layers.size(),
              static_cast<size_t>(config_.share_layer_weights
                                      ? 1
                                      : config_.num_layers));
  for (const auto& t : layer_graph_.tensors()) {
    tensor_id_by_name_[t.name] = t.id;
  }
}

Tensor EncoderModel::forward(const Tensor& ids,
                             const std::vector<int>* valid_lens) {
  TT_CHECK_EQ(ids.shape().ndim(), 2);
  TT_CHECK(ids.dtype() == DType::kI32);
  const int B = static_cast<int>(ids.shape()[0]);
  const int S = static_cast<int>(ids.shape()[1]);
  const int H = config_.hidden;
  const int heads = config_.heads;
  const int d = config_.head_dim();
  const int I = config_.intermediate;
  const long BS = static_cast<long>(B) * S;
  if (valid_lens) TT_CHECK_EQ(static_cast<int>(valid_lens->size()), B);

  // Hidden-state ping-pong buffers live outside the per-layer plan: the
  // layer output must survive into the next layer's op 0, which the
  // single-layer lifetime plan cannot express.
  if (!hidden_a_.defined() || hidden_a_.numel() < BS * H) {
    hidden_a_ = Tensor::owned(Shape{BS, H});
    hidden_b_ = Tensor::owned(Shape{BS, H});
  }

  // Plan this request's intermediates (Algorithm 1) once; reuse per layer.
  std::vector<memory::TensorUsage> usages;
  for (auto& u : layer_graph_.tensor_usages(B, S)) {
    const auto& spec = layer_graph_.tensor(u.tensor_id);
    if (spec.is_graph_input || spec.is_graph_output) continue;
    usages.push_back(std::move(u));
  }
  const memory::InferencePlan plan = allocator_.begin_inference(usages);
  last_planning_us_ = plan.planning_us;
  auto buf = [&](const char* name) -> float* {
    return reinterpret_cast<float*>(
        plan.placements.at(tensor_id_by_name_.at(name)).ptr);
  };

  float* qkv_out = buf("qkv_out");
  float* q = buf("Q");
  float* k = buf("K");
  float* v = buf("V");
  float* attn_score = buf("attn_score");
  float* ctx_layer = buf("ctx_layer");
  float* trans_out = buf("trans_out");
  float* attn_out = buf("attn_out");
  float* attn_ln_out = buf("attn_ln_out");
  float* intermediate_out = buf("intermediate_out");
  float* layer_out_raw = buf("layer_out_raw");

  // Embedding front-end.
  float* cur = hidden_a_.data<float>();
  float* nxt = hidden_b_.data<float>();
  kernels::embedding_lookup_layernorm(
      cur, ids.data<int32_t>(), weights_.embedding.word.data<float>(),
      weights_.embedding.position.data<float>(), nullptr, nullptr,
      weights_.embedding.ln_gamma.data<float>(),
      weights_.embedding.ln_beta.data<float>(), B, S, H, config_.vocab,
      config_.max_pos);

  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  const int* lens = valid_lens ? valid_lens->data() : nullptr;

  // GEMM dispatch: fp32 cuBLAS path or the Turbo-TC tensor-core numeric
  // contract (fp16 operands, fp32 accumulation).
  const bool tc = config_.tensor_core_gemm;
  // The fp16 path reads the weight row-major, unpacked for each call.
  auto run_gemm = [tc](const float* a, const kernels::PackedWeight& b,
                       float* c, int m) {
    if (tc) {
      kernels::gemm_fp16(a, b.unpack().data<float>(), c, m, b.n(), b.k());
    } else {
      kernels::gemm(a, b, c, m);
    }
  };
  auto run_batched = [tc](const float* a, const float* b, float* c,
                          int batch, int m, int n, int k, long sa, long sb,
                          long sc, bool trans_b) {
    if (tc) {
      for (int i = 0; i < batch; ++i) {
        kernels::gemm_fp16(a + static_cast<long>(i) * sa,
                           b + static_cast<long>(i) * sb,
                           c + static_cast<long>(i) * sc, m, n, k, trans_b);
      }
    } else {
      kernels::batched_gemm(a, b, c, batch, m, n, k, sa, sb, sc, trans_b);
    }
  };

  for (int layer = 0; layer < config_.num_layers; ++layer) {
    const EncoderLayerWeights& w = layer_weights(layer);

    // Gemm012Fused: [BS, H] x [H, 3H] -> packed QKV.
    run_gemm(cur, w.qkv_weight, qkv_out, static_cast<int>(BS));
    // SplitAddBiasTransposeForScore.
    kernels::split_add_bias_transpose(qkv_out, w.qkv_bias.data<float>(), q, k,
                                      v, B, S, heads, d);
    // BatchGemm3: scores = Q x K^T per (batch, head).
    run_batched(q, k, attn_score, B * heads, S, S, d,
                static_cast<long>(S) * d, static_cast<long>(S) * d,
                static_cast<long>(S) * S, /*trans_b=*/true);
    // ApplyMaskAndSoftmax (in place, padded keys masked).
    kernels::attention_softmax(attn_score, B, heads, S, S, scale, lens);
    // BatchGemm4: context = softmax(scores) x V.
    run_batched(attn_score, v, ctx_layer, B * heads, S, d, S,
                static_cast<long>(S) * S, static_cast<long>(S) * d,
                static_cast<long>(S) * d, /*trans_b=*/false);
    // TransposeForScore: [B, h, S, d] -> [B, S, H].
    kernels::transpose_for_score(ctx_layer, trans_out, B, S, heads, d);
    // Gemm5: attention output projection.
    run_gemm(trans_out, w.attn_out_weight, attn_out, static_cast<int>(BS));
    // AddBiasLayerNorm with the layer input as residual.
    kernels::add_bias_layernorm(attn_ln_out, attn_out, cur,
                                w.attn_out_bias.data<float>(),
                                w.ln1_gamma.data<float>(),
                                w.ln1_beta.data<float>(), BS, H);
    // BertIntermediate/gemm + AddBiasAct.
    run_gemm(attn_ln_out, w.inter_weight, intermediate_out,
             static_cast<int>(BS));
    kernels::add_bias_gelu(intermediate_out, w.inter_bias.data<float>(), BS,
                           I);
    // BertOutput/gemm + AddBiasLayerNorm.
    run_gemm(intermediate_out, w.out_weight, layer_out_raw,
             static_cast<int>(BS));
    kernels::add_bias_layernorm(nxt, layer_out_raw, attn_ln_out,
                                w.out_bias.data<float>(),
                                w.ln2_gamma.data<float>(),
                                w.ln2_beta.data<float>(), BS, H);
    std::swap(cur, nxt);
  }

  Tensor out = Tensor::owned(Shape{B, S, H});
  std::copy(cur, cur + BS * H, out.data<float>());
  return out;
}

Tensor EncoderModel::forward_reference(const Tensor& ids,
                                       const std::vector<int>* valid_lens) {
  const int B = static_cast<int>(ids.shape()[0]);
  const int S = static_cast<int>(ids.shape()[1]);
  const int H = config_.hidden;
  const int heads = config_.heads;
  const int d = config_.head_dim();
  const int I = config_.intermediate;
  const long BS = static_cast<long>(B) * S;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  const int* lens = valid_lens ? valid_lens->data() : nullptr;

  Tensor hidden = Tensor::owned(Shape{BS, H});
  kernels::embedding_lookup_layernorm(
      hidden.data<float>(), ids.data<int32_t>(),
      weights_.embedding.word.data<float>(),
      weights_.embedding.position.data<float>(), nullptr, nullptr,
      weights_.embedding.ln_gamma.data<float>(),
      weights_.embedding.ln_beta.data<float>(), B, S, H, config_.vocab,
      config_.max_pos);

  for (int layer = 0; layer < config_.num_layers; ++layer) {
    const EncoderLayerWeights& w = layer_weights(layer);
    // Unfused path: separate projections, biases and transposes, each in
    // its own freshly owned buffer.
    Tensor qkv = Tensor::owned(Shape{BS, 3 * H});
    kernels::gemm_ref(hidden.data<float>(),
                      w.qkv_weight.unpack().data<float>(), qkv.data<float>(),
                      static_cast<int>(BS), 3 * H, H);
    kernels::add_bias(qkv.data<float>(), w.qkv_bias.data<float>(), BS, 3 * H);

    Tensor q = Tensor::owned(Shape{static_cast<long>(B) * heads, S, d});
    Tensor k = Tensor::owned(Shape{static_cast<long>(B) * heads, S, d});
    Tensor v = Tensor::owned(Shape{static_cast<long>(B) * heads, S, d});
    // Unpack [BS, 3, H] planes, then per-tensor head transpose.
    Tensor plane = Tensor::owned(Shape{BS, H});
    Tensor* outs[3] = {&q, &k, &v};
    for (int which = 0; which < 3; ++which) {
      for (long r = 0; r < BS; ++r) {
        const float* src = qkv.data<float>() + (r * 3 + which) * H;
        std::copy(src, src + H, plane.data<float>() + r * H);
      }
      kernels::transpose_to_heads(plane.data<float>(), outs[which]->data<float>(),
                                  B, S, heads, d);
    }

    Tensor scores =
        Tensor::owned(Shape{static_cast<long>(B) * heads, S, S});
    for (int bh = 0; bh < B * heads; ++bh) {
      kernels::gemm_ref(q.data<float>() + static_cast<long>(bh) * S * d,
                        k.data<float>() + static_cast<long>(bh) * S * d,
                        scores.data<float>() + static_cast<long>(bh) * S * S,
                        S, S, d, /*trans_b=*/true);
    }
    kernels::attention_softmax(scores.data<float>(), B, heads, S, S, scale,
                               lens);
    Tensor ctx = Tensor::owned(Shape{static_cast<long>(B) * heads, S, d});
    for (int bh = 0; bh < B * heads; ++bh) {
      kernels::gemm_ref(scores.data<float>() + static_cast<long>(bh) * S * S,
                        v.data<float>() + static_cast<long>(bh) * S * d,
                        ctx.data<float>() + static_cast<long>(bh) * S * d, S,
                        d, S);
    }
    Tensor merged = Tensor::owned(Shape{BS, H});
    kernels::transpose_for_score(ctx.data<float>(), merged.data<float>(), B,
                                 S, heads, d);

    Tensor attn = Tensor::owned(Shape{BS, H});
    kernels::gemm_ref(merged.data<float>(),
                      w.attn_out_weight.unpack().data<float>(),
                      attn.data<float>(), static_cast<int>(BS), H, H);
    kernels::add_bias(attn.data<float>(), w.attn_out_bias.data<float>(), BS,
                      H);
    kernels::add_residual(attn.data<float>(), hidden.data<float>(), BS * H);
    Tensor attn_ln = Tensor::owned(Shape{BS, H});
    kernels::layernorm(attn_ln.data<float>(), attn.data<float>(),
                       w.ln1_gamma.data<float>(), w.ln1_beta.data<float>(),
                       BS, H);

    Tensor inter = Tensor::owned(Shape{BS, I});
    kernels::gemm_ref(attn_ln.data<float>(),
                      w.inter_weight.unpack().data<float>(),
                      inter.data<float>(), static_cast<int>(BS), I, H);
    kernels::add_bias(inter.data<float>(), w.inter_bias.data<float>(), BS, I);
    kernels::gelu(inter.data<float>(), BS * I);

    Tensor ffn = Tensor::owned(Shape{BS, H});
    kernels::gemm_ref(inter.data<float>(), w.out_weight.unpack().data<float>(),
                      ffn.data<float>(), static_cast<int>(BS), H, I);
    kernels::add_bias(ffn.data<float>(), w.out_bias.data<float>(), BS, H);
    kernels::add_residual(ffn.data<float>(), attn_ln.data<float>(), BS * H);
    kernels::layernorm(hidden.data<float>(), ffn.data<float>(),
                       w.ln2_gamma.data<float>(), w.ln2_beta.data<float>(),
                       BS, H);
  }

  Tensor out = Tensor::owned(Shape{B, S, H});
  std::copy(hidden.data<float>(), hidden.data<float>() + BS * H,
            out.data<float>());
  return out;
}

}  // namespace turbo::model
