// Seq2Seq transformer decoder (paper Table 3, Fig. 9).
//
// The forward pass is exposed at two levels:
//
//  * step(): one decoder forward step over a *step batch* — any number of
//    independent sequences, each at its own decode position, each reading
//    and writing K/V through an externally owned KvCacheView. This is the
//    primitive the generation-serving subsystem (src/genserve) fuses
//    iteration-level batches with: sequences join and leave the batch
//    between steps without touching each other's caches.
//
//  * decode(): whole-sentence beam search built on step(), preserved for
//    the Fig. 9 / Table 3 workload (beam_size >= 1; 1 = greedy). Each step
//    runs the beam through num_layers decoder layers (cached causal
//    self-attention + cross-attention over the encoder memory +
//    feed-forward), projects to the vocabulary and expands the beam.
//    Cross-attention K/V are projected once per sentence.
#pragma once

#include <memory>
#include <vector>

#include "kernels/paged_attention.h"
#include "model/weights.h"
#include "tensor/tensor.h"

namespace turbo::model {

struct Hypothesis {
  std::vector<int> tokens;  // includes BOS, excludes EOS
  double log_prob = 0.0;
};

// One contiguous extent of K/V rows (paged attention) — the currency
// between caches and the span kernels; see kernels/paged_attention.h.
using KvSpan = kernels::KvSpan;

// Per-sequence decode state owned outside the decoder. Rows are contiguous
// [heads * head_dim] strips; storage across tokens may be non-contiguous
// (e.g. pool blocks in genserve::KvCachePool). The decoder writes token t's
// self K/V during the step with index t and reads rows [0, t]; cross rows
// are written once by init_cross_attention and read every step.
class KvCacheView {
 public:
  virtual ~KvCacheView() = default;

  // Source-sentence length this cache's cross-attention K/V covers.
  virtual int src_len() const = 0;

  // Row accessors, through which the decoder writes K/V.
  // [heads * head_dim] row for self-attention K/V of target token t.
  virtual float* self_k(int layer, int t) = 0;
  virtual float* self_v(int layer, int t) = 0;

  // [heads * head_dim] row for cross-attention K/V of source position s.
  virtual float* cross_k(int layer, int s) = 0;
  virtual float* cross_v(int layer, int s) = 0;

  // Block-extent iteration (paged attention), through which the decoder
  // reads K/V: overwrite `out` with contiguous spans covering self token
  // rows [0, count) — respectively cross rows [0, src_len()) — in position
  // order. Implementations must only report rows that are already
  // materialized (for pool caches, try_ensure_token up to count - 1 must
  // have run). The span kernels' results do not depend on how the rows split
  // into spans, so any two caches holding the same rows decode
  // bit-identically (kernels/paged_attention.h).
  virtual void self_extents(int layer, int count,
                            std::vector<KvSpan>& out) = 0;
  virtual void cross_extents(int layer, std::vector<KvSpan>& out) = 0;
};

// Simple contiguous KvCacheView for one sequence: the reference cache
// implementation, used by decode()'s beam search. Copies share the
// cross-attention K/V (immutable after init_cross_attention) and deep-copy
// the self caches, which is exactly what beam reordering needs. Being fully
// contiguous, its extents are a single span per layer.
class DenseKvCache final : public KvCacheView {
 public:
  DenseKvCache(const ModelConfig& config, int max_len, int s_src);

  int src_len() const override { return s_src_; }
  float* self_k(int layer, int t) override;
  float* self_v(int layer, int t) override;
  float* cross_k(int layer, int s) override;
  float* cross_v(int layer, int s) override;
  void self_extents(int layer, int count, std::vector<KvSpan>& out) override;
  void cross_extents(int layer, std::vector<KvSpan>& out) override;

 private:
  struct CrossKv {
    std::vector<std::vector<float>> k, v;  // [L][s_src * H]
  };

  int hidden_ = 0;
  int max_len_ = 0;
  int s_src_ = 0;
  std::vector<std::vector<float>> self_k_, self_v_;  // [L][max_len * H]
  std::shared_ptr<CrossKv> cross_;
};

// Reusable scratch for step(): callers on the serving hot path keep one
// across calls so per-token work allocates nothing after warm-up.
struct DecodeWorkspace {
  std::vector<float> x, qkv, attn, proj, resid, inter, scores;
  std::vector<float> xg, lg;  // gathered hidden rows / compact logits
  std::vector<KvSpan> spans;
};

class Seq2SeqDecoder {
 public:
  explicit Seq2SeqDecoder(ModelConfig config, uint64_t seed = 42);

  // One sequence's slot in a step batch.
  struct StepSlot {
    int prev_token = 0;          // token fed at this step (BOS at step 0)
    int step = 0;                // 0-based decode position
    KvCacheView* cache = nullptr;
    // Chunked prefill feeds prompt rows whose outputs nobody samples; such
    // slots still write K/V and attend (the cache must fill) but skip the
    // vocabulary projection. Their logits rows are left untouched.
    bool need_logits = true;
  };

  // Project the encoder memory [s_src, H] of one sentence into the cache's
  // cross-attention K/V rows. Must run once per sequence before its first
  // step (the once-per-sentence optimization the step loop depends on).
  void init_cross_attention(const Tensor& memory, KvCacheView& cache) const;

  // One fused decoder step over slots.size() independent sequences; each
  // may sit at a different decode position over a different source length.
  // Writes logits [slots.size(), vocab] into `logits` (caller-owned).
  void step(const std::vector<StepSlot>& slots, float* logits,
            DecodeWorkspace& ws) const;
  // Convenience overload with a throwaway workspace.
  void step(const std::vector<StepSlot>& slots, float* logits) const;

  // memory: encoder output [S_src, H] for one sentence. Returns the best
  // hypothesis after beam search (beam_size >= 1; 1 = greedy), implemented
  // on top of step() with one DenseKvCache per live beam (a reorder copies
  // the parent's cache).
  Hypothesis decode(const Tensor& memory, int max_len, int bos_id, int eos_id,
                    int beam_size) const;

  const ModelConfig& config() const { return config_; }
  const DecoderWeights& weights() const { return weights_; }

 private:
  // One query's attention over `count` cached K/V rows of `cache` (self
  // history when `self_side`, else cross memory): the span kernels' scores,
  // a per-head softmax and the weighted values into out[H].
  void attend(KvCacheView& cache, int layer, bool self_side, int count,
              const float* q, float* out, float scale,
              DecodeWorkspace& ws) const;

  ModelConfig config_;
  DecoderWeights weights_;
};

}  // namespace turbo::model
