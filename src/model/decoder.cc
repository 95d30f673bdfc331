#include "model/decoder.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "kernels/elementwise.h"
#include "kernels/gemm.h"
#include "kernels/paged_attention.h"
#include "kernels/reduction.h"

namespace turbo::model {

namespace {

void log_softmax_row(float* row, int n) {
  float max_v = -std::numeric_limits<float>::infinity();
  for (int i = 0; i < n; ++i) max_v = std::max(max_v, row[i]);
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += std::exp(static_cast<double>(row[i]) - max_v);
  const float lse = max_v + static_cast<float>(std::log(sum));
  for (int i = 0; i < n; ++i) row[i] -= lse;
}

}  // namespace

// ---------------------------------------------------------------------------
// DenseKvCache
// ---------------------------------------------------------------------------

DenseKvCache::DenseKvCache(const ModelConfig& config, int max_len, int s_src)
    : hidden_(config.hidden), max_len_(max_len), s_src_(s_src) {
  TT_CHECK_GE(max_len, 1);
  TT_CHECK_GE(s_src, 1);
  const size_t L = static_cast<size_t>(config.num_layers);
  self_k_.assign(L, std::vector<float>(static_cast<size_t>(max_len) * hidden_));
  self_v_ = self_k_;
  cross_ = std::make_shared<CrossKv>();
  cross_->k.assign(L, std::vector<float>(static_cast<size_t>(s_src) * hidden_));
  cross_->v = cross_->k;
}

float* DenseKvCache::self_k(int layer, int t) {
  TT_CHECK_LT(t, max_len_);
  return self_k_[static_cast<size_t>(layer)].data() +
         static_cast<size_t>(t) * hidden_;
}

float* DenseKvCache::self_v(int layer, int t) {
  TT_CHECK_LT(t, max_len_);
  return self_v_[static_cast<size_t>(layer)].data() +
         static_cast<size_t>(t) * hidden_;
}

float* DenseKvCache::cross_k(int layer, int s) {
  TT_CHECK_LT(s, s_src_);
  return cross_->k[static_cast<size_t>(layer)].data() +
         static_cast<size_t>(s) * hidden_;
}

float* DenseKvCache::cross_v(int layer, int s) {
  TT_CHECK_LT(s, s_src_);
  return cross_->v[static_cast<size_t>(layer)].data() +
         static_cast<size_t>(s) * hidden_;
}

void DenseKvCache::self_extents(int layer, int count,
                                std::vector<KvSpan>& out) {
  TT_CHECK_LE(count, max_len_);
  out.clear();
  out.push_back(KvSpan{self_k_[static_cast<size_t>(layer)].data(),
                       self_v_[static_cast<size_t>(layer)].data(), count});
}

void DenseKvCache::cross_extents(int layer, std::vector<KvSpan>& out) {
  out.clear();
  out.push_back(KvSpan{cross_->k[static_cast<size_t>(layer)].data(),
                       cross_->v[static_cast<size_t>(layer)].data(), s_src_});
}

// ---------------------------------------------------------------------------
// Seq2SeqDecoder
// ---------------------------------------------------------------------------

Seq2SeqDecoder::Seq2SeqDecoder(ModelConfig config, uint64_t seed)
    : config_(std::move(config)),
      weights_(DecoderWeights::random(config_, seed)) {}

void Seq2SeqDecoder::init_cross_attention(const Tensor& memory,
                                          KvCacheView& cache) const {
  TT_CHECK_MSG(!config_.decoder_only,
               "decoder-only model has no cross-attention to initialize");
  TT_CHECK_EQ(memory.shape().ndim(), 2);
  const int s_src = static_cast<int>(memory.shape()[0]);
  const int H = config_.hidden;
  TT_CHECK_EQ(memory.shape()[1], H);
  TT_CHECK_EQ(cache.src_len(), s_src);

  std::vector<float> kv(static_cast<size_t>(s_src) * 2 * H);
  for (int layer = 0; layer < config_.num_layers; ++layer) {
    const auto& w = weights_.layers[static_cast<size_t>(layer)];
    kernels::gemm(memory.data<float>(), w.cross_kv_weight, kv.data(), s_src);
    kernels::add_bias(kv.data(), w.cross_kv_bias.data<float>(), s_src, 2 * H);
    // kv row s is [K | V], each an [H] = [heads * d] strip.
    for (int s = 0; s < s_src; ++s) {
      const float* row = &kv[static_cast<size_t>(s) * 2 * H];
      std::copy(row, row + H, cache.cross_k(layer, s));
      std::copy(row + H, row + 2 * H, cache.cross_v(layer, s));
    }
  }
}

void Seq2SeqDecoder::step(const std::vector<StepSlot>& slots,
                          float* logits) const {
  DecodeWorkspace ws;
  step(slots, logits, ws);
}

void Seq2SeqDecoder::step(const std::vector<StepSlot>& slots, float* logits,
                          DecodeWorkspace& ws) const {
  const int nb = static_cast<int>(slots.size());
  TT_CHECK_GE(nb, 1);
  const int H = config_.hidden;
  const int d = config_.head_dim();
  const int I = config_.intermediate;
  const int vocab = config_.vocab;
  const int L = config_.num_layers;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));

  // resize() never shrinks capacity, so a reused workspace stops
  // allocating once it has seen the largest batch.
  auto& x = ws.x;
  auto& qkv = ws.qkv;
  auto& attn = ws.attn;
  auto& proj = ws.proj;
  auto& resid = ws.resid;
  auto& inter = ws.inter;
  x.resize(static_cast<size_t>(nb) * H);
  qkv.resize(static_cast<size_t>(nb) * 3 * H);
  attn.resize(static_cast<size_t>(nb) * H);
  proj.resize(static_cast<size_t>(nb) * H);
  resid.resize(static_cast<size_t>(nb) * H);
  inter.resize(static_cast<size_t>(nb) * I);

  // Embed each slot's previous token at its own position.
  for (int b = 0; b < nb; ++b) {
    const StepSlot& slot = slots[static_cast<size_t>(b)];
    TT_CHECK(slot.cache != nullptr);
    TT_CHECK_GE(slot.step, 0);
    TT_CHECK_GE(slot.prev_token, 0);
    TT_CHECK_LT(slot.prev_token, vocab);
    const float* wv = weights_.embedding.word.data<float>() +
                      static_cast<long>(slot.prev_token) * H;
    const float* pv =
        weights_.embedding.position.data<float>() +
        static_cast<long>(std::min(slot.step, config_.max_pos - 1)) * H;
    for (int i = 0; i < H; ++i) x[static_cast<size_t>(b) * H + i] = wv[i] + pv[i];
  }
  kernels::layernorm(x.data(), x.data(),
                     weights_.embedding.ln_gamma.data<float>(),
                     weights_.embedding.ln_beta.data<float>(), nb, H);

  for (int layer = 0; layer < L; ++layer) {
    const auto& w = weights_.layers[static_cast<size_t>(layer)];

    // --- cached causal self-attention ---
    std::copy(x.begin(), x.begin() + static_cast<long>(nb) * H, resid.begin());
    kernels::gemm(x.data(), w.self_qkv_weight, qkv.data(), nb);
    kernels::add_bias(qkv.data(), w.self_qkv_bias.data<float>(), nb, 3 * H);
    for (int b = 0; b < nb; ++b) {
      const StepSlot& slot = slots[static_cast<size_t>(b)];
      KvCacheView& cache = *slot.cache;
      const int t = slot.step;
      const float* qfull = &qkv[(static_cast<size_t>(b) * 3 + 0) * H];
      const float* kfull = &qkv[(static_cast<size_t>(b) * 3 + 1) * H];
      const float* vfull = &qkv[(static_cast<size_t>(b) * 3 + 2) * H];
      std::copy(kfull, kfull + H, cache.self_k(layer, t));
      std::copy(vfull, vfull + H, cache.self_v(layer, t));
      attend(cache, layer, /*self_side=*/true, t + 1, qfull,
             &attn[static_cast<size_t>(b) * H], scale, ws);
    }
    kernels::gemm(attn.data(), w.self_out_weight, proj.data(), nb);
    kernels::add_bias_layernorm(x.data(), proj.data(), resid.data(),
                                w.self_out_bias.data<float>(),
                                w.ln1_gamma.data<float>(),
                                w.ln1_beta.data<float>(), nb, H);

    // --- cross-attention over each slot's encoder memory ---
    // A decoder-only (causal LM) layer is self-attention + FFN: the whole
    // cross sublayer — projection, attention and its residual layernorm —
    // is absent, not merely zeroed.
    if (!config_.decoder_only) {
      std::copy(x.begin(), x.begin() + static_cast<long>(nb) * H,
                resid.begin());
      kernels::gemm(x.data(), w.cross_q_weight, proj.data(), nb);
      kernels::add_bias(proj.data(), w.cross_q_bias.data<float>(), nb, H);
      for (int b = 0; b < nb; ++b) {
        KvCacheView& cache = *slots[static_cast<size_t>(b)].cache;
        attend(cache, layer, /*self_side=*/false, cache.src_len(),
               &proj[static_cast<size_t>(b) * H],
               &attn[static_cast<size_t>(b) * H], scale, ws);
      }
      kernels::gemm(attn.data(), w.cross_out_weight, proj.data(), nb);
      kernels::add_bias_layernorm(x.data(), proj.data(), resid.data(),
                                  w.cross_out_bias.data<float>(),
                                  w.ln2_gamma.data<float>(),
                                  w.ln2_beta.data<float>(), nb, H);
    }

    // --- feed-forward ---
    std::copy(x.begin(), x.begin() + static_cast<long>(nb) * H, resid.begin());
    kernels::gemm(x.data(), w.inter_weight, inter.data(), nb);
    kernels::add_bias_gelu(inter.data(), w.inter_bias.data<float>(), nb, I);
    kernels::gemm(inter.data(), w.out_weight, proj.data(), nb);
    kernels::add_bias_layernorm(x.data(), proj.data(), resid.data(),
                                w.out_bias.data<float>(),
                                w.ln3_gamma.data<float>(),
                                w.ln3_beta.data<float>(), nb, H);
  }

  // Vocabulary projection. Prompt rows fed during chunked prefill carry
  // need_logits = false: gather the flagged rows, project only those, and
  // scatter back. gemm rows are independent, so the compact path produces
  // bit-identical logits for every flagged row; unflagged rows of `logits`
  // are left untouched.
  int keep = 0;
  for (const StepSlot& slot : slots) keep += slot.need_logits ? 1 : 0;
  if (keep == nb) {
    kernels::gemm(x.data(), weights_.output_proj, logits, nb);
  } else if (keep > 0) {
    auto& xg = ws.xg;
    auto& lg = ws.lg;
    xg.resize(static_cast<size_t>(keep) * H);
    lg.resize(static_cast<size_t>(keep) * vocab);
    int g = 0;
    for (int b = 0; b < nb; ++b) {
      if (!slots[static_cast<size_t>(b)].need_logits) continue;
      std::copy(x.begin() + static_cast<long>(b) * H,
                x.begin() + static_cast<long>(b + 1) * H,
                xg.begin() + static_cast<long>(g) * H);
      ++g;
    }
    kernels::gemm(xg.data(), weights_.output_proj, lg.data(), keep);
    g = 0;
    for (int b = 0; b < nb; ++b) {
      if (!slots[static_cast<size_t>(b)].need_logits) continue;
      std::copy(lg.begin() + static_cast<long>(g) * vocab,
                lg.begin() + static_cast<long>(g + 1) * vocab,
                logits + static_cast<long>(b) * vocab);
      ++g;
    }
  }
}

void Seq2SeqDecoder::attend(KvCacheView& cache, int layer, bool self_side,
                            int count, const float* q, float* out, float scale,
                            DecodeWorkspace& ws) const {
  const int H = config_.hidden;
  const int heads = config_.heads;
  const int d = config_.head_dim();
  auto& scores = ws.scores;
  auto& spans = ws.spans;
  if (self_side) {
    cache.self_extents(layer, count, spans);
  } else {
    cache.cross_extents(layer, spans);
  }
  long covered = 0;
  for (const KvSpan& span : spans) covered += span.rows;
  TT_CHECK_EQ(covered, count);
  // Scores live [heads, count]: the kernels read each K row once past all
  // heads, with a per-head softmax in between.
  scores.resize(static_cast<size_t>(heads) * count);
  const int num_spans = static_cast<int>(spans.size());
  kernels::paged_qk_dot(q, spans.data(), num_spans, count, H, heads, d,
                        scores.data());
  for (int h = 0; h < heads; ++h) {
    kernels::softmax_row(scores.data() + static_cast<long>(h) * count, count,
                         scale);
  }
  std::fill(out, out + H, 0.0f);
  kernels::paged_av_accumulate(scores.data(), spans.data(), num_spans, count,
                               H, heads, d, out);
}

Hypothesis Seq2SeqDecoder::decode(const Tensor& memory, int max_len,
                                  int bos_id, int eos_id,
                                  int beam_size) const {
  TT_CHECK_MSG(!config_.decoder_only,
               "decode() beam search requires encoder memory; decoder-only "
               "models are served through GenerationServer's causal path");
  TT_CHECK_EQ(memory.shape().ndim(), 2);
  const int s_src = static_cast<int>(memory.shape()[0]);
  TT_CHECK_EQ(memory.shape()[1], config_.hidden);
  TT_CHECK_GE(beam_size, 1);
  TT_CHECK_GE(max_len, 1);
  const int vocab = config_.vocab;

  std::vector<Hypothesis> beams(1);
  beams[0].tokens = {bos_id};
  std::vector<std::unique_ptr<DenseKvCache>> caches;
  // Cross-attention K/V once per sentence; beam copies share them.
  caches.push_back(std::make_unique<DenseKvCache>(config_, max_len, s_src));
  init_cross_attention(memory, *caches[0]);
  std::vector<Hypothesis> finished;

  std::vector<float> logits(static_cast<size_t>(beam_size) * vocab);
  DecodeWorkspace ws;

  for (int t = 0; t < max_len; ++t) {
    const int nb = static_cast<int>(beams.size());
    std::vector<StepSlot> slots(static_cast<size_t>(nb));
    for (int b = 0; b < nb; ++b) {
      slots[static_cast<size_t>(b)] = StepSlot{
          beams[static_cast<size_t>(b)].tokens.back(), t,
          caches[static_cast<size_t>(b)].get()};
    }
    step(slots, logits.data(), ws);
    for (int b = 0; b < nb; ++b) {
      log_softmax_row(&logits[static_cast<size_t>(b) * vocab], vocab);
    }

    struct Cand {
      double score;
      int beam;
      int token;
    };
    std::vector<Cand> cands;
    for (int b = 0; b < nb; ++b) {
      for (int tok = 0; tok < vocab; ++tok) {
        cands.push_back(Cand{beams[static_cast<size_t>(b)].log_prob +
                                 logits[static_cast<size_t>(b) * vocab + tok],
                             b, tok});
      }
    }
    const size_t keep = std::min<size_t>(cands.size(),
                                         static_cast<size_t>(beam_size));
    std::partial_sort(cands.begin(), cands.begin() + static_cast<long>(keep),
                      cands.end(), [](const Cand& a, const Cand& b) {
                        return a.score > b.score;
                      });

    std::vector<Hypothesis> next;
    std::vector<int> parents;
    for (size_t c = 0; c < keep; ++c) {
      Hypothesis h = beams[static_cast<size_t>(cands[c].beam)];
      h.log_prob = cands[c].score;
      if (cands[c].token == eos_id) {
        finished.push_back(std::move(h));
        continue;
      }
      h.tokens.push_back(cands[c].token);
      next.push_back(std::move(h));
      parents.push_back(cands[c].beam);
    }
    if (next.empty()) break;

    // Self-attention caches follow surviving hypotheses (cross K/V
    // shared). A parent's last child takes the parent's cache over
    // outright — greedy decode and self-continuing beams never copy. Only
    // parents surviving into multiple hypotheses are copied.
    std::vector<int> remaining(static_cast<size_t>(nb), 0);
    for (const int p : parents) ++remaining[static_cast<size_t>(p)];
    std::vector<std::unique_ptr<DenseKvCache>> next_caches;
    next_caches.reserve(next.size());
    for (size_t b = 0; b < next.size(); ++b) {
      const size_t p = static_cast<size_t>(parents[b]);
      if (--remaining[p] == 0) {
        next_caches.push_back(std::move(caches[p]));
      } else {
        next_caches.push_back(std::make_unique<DenseKvCache>(*caches[p]));
      }
    }
    caches = std::move(next_caches);
    beams = std::move(next);
  }

  // Unfinished hypotheses compete too (ran out of length budget).
  for (auto& h : beams) finished.push_back(std::move(h));
  TT_CHECK(!finished.empty());
  auto best = std::max_element(finished.begin(), finished.end(),
                               [](const Hypothesis& a, const Hypothesis& b) {
                                 return a.log_prob < b.log_prob;
                               });
  return *best;
}

}  // namespace turbo::model
