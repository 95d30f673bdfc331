// Paged (block-iterating) attention: extent geometry, and bit-identity of
// a dense cache (one span per layer) against pooled caches (one span per
// block) across fragmented pools, CoW forks, and greedy and beam decode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "genserve/kv_cache_pool.h"
#include "model/decoder.h"
#include "tensor/tensor.h"

namespace turbo::genserve {
namespace {

model::ModelConfig tiny() { return model::ModelConfig::tiny(2, 32, 2, 64, 50); }

KvPoolOptions small_pool() {
  KvPoolOptions o;
  o.block_tokens = 4;
  o.blocks_per_slab = 8;
  return o;
}

Tensor random_memory(const model::ModelConfig& config, int s_src,
                     uint64_t seed) {
  Rng rng(seed);
  Tensor memory = Tensor::owned(Shape{s_src, config.hidden});
  rng.fill_normal(memory.data<float>(), static_cast<size_t>(memory.numel()),
                  0.0f, 1.0f);
  return memory;
}

// ---------------------------------------------------------------------------
// Extent geometry
// ---------------------------------------------------------------------------

TEST(KvExtents, DenseIsOneSpanPooledIsOnePerBlock) {
  const auto config = tiny();
  const int H = config.hidden;

  model::DenseKvCache dense(config, /*max_len=*/10, /*s_src=*/6);
  std::vector<model::KvSpan> spans;
  dense.self_extents(0, 7, spans);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].rows, 7);
  EXPECT_EQ(spans[0].k, dense.self_k(0, 0));
  EXPECT_EQ(spans[0].v, dense.self_v(0, 0));
  dense.cross_extents(1, spans);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].rows, 6);
  EXPECT_EQ(spans[0].k, dense.cross_k(1, 0));

  // bt=4: 7 self rows -> spans of 4 + 3; every row lands where the row
  // accessors say it does.
  KvCachePool pool(config, small_pool());
  auto seq = pool.admit(1, /*s_src=*/6, /*max_new_tokens=*/10);
  for (int t = 0; t < 7; ++t) pool.ensure_token(*seq, t);
  seq->self_extents(0, 7, spans);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].rows, 4);
  EXPECT_EQ(spans[1].rows, 3);
  for (int t = 0; t < 7; ++t) {
    const auto& span = spans[static_cast<size_t>(t / 4)];
    EXPECT_EQ(span.k + static_cast<size_t>(t % 4) * H, seq->self_k(0, t));
    EXPECT_EQ(span.v + static_cast<size_t>(t % 4) * H, seq->self_v(0, t));
  }
  seq->cross_extents(1, spans);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].k, seq->cross_k(1, 0));
  EXPECT_EQ(spans[1].v, seq->cross_v(1, 4));
}

// ---------------------------------------------------------------------------
// Step bit-identity: dense (one span) vs pooled (one span per block)
// ---------------------------------------------------------------------------

TEST(PagedAttention, StepLogitsBitIdenticalDenseVsPooled) {
  const auto config = tiny();
  model::Seq2SeqDecoder decoder(config, 29);
  const int s_src = 7;  // crosses the bt=4 cross-block boundary
  const int max_new = 10;
  const int vocab = config.vocab;
  Tensor memory = random_memory(config, s_src, 11);

  model::DenseKvCache dense(config, max_new, s_src);
  KvCachePool pool(config, small_pool());
  auto pooled = pool.admit(1, s_src, max_new);
  decoder.init_cross_attention(memory, dense);
  decoder.init_cross_attention(memory, *pooled);

  std::vector<float> ref(static_cast<size_t>(vocab));
  std::vector<float> got(static_cast<size_t>(vocab));
  int token = 1;
  for (int t = 0; t < max_new; ++t) {
    pool.ensure_token(*pooled, t);
    decoder.step({{token, t, &dense}}, ref.data());
    decoder.step({{token, t, pooled.get()}}, got.data());
    EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                          static_cast<size_t>(vocab) * sizeof(float)),
              0)
        << "pooled vs dense at step " << t;
    token = static_cast<int>(
        std::max_element(ref.begin(), ref.end()) - ref.begin());
  }
}

// ---------------------------------------------------------------------------
// Fragmented pool: release/re-admit scrambles physical block order
// ---------------------------------------------------------------------------

TEST(PagedAttention, FragmentedPoolBitIdenticalToDense) {
  const auto config = tiny();
  model::Seq2SeqDecoder decoder(config, 31);
  const int s_src = 5;
  const int max_new = 16;  // 4 self blocks per layer at bt=4
  const int vocab = config.vocab;
  Tensor memory = random_memory(config, s_src, 13);

  KvCachePool pool(config, small_pool());
  // Fragment: fully grow a filler sequence, then release it. Its blocks
  // return to the LIFO free list, so the next admit draws them in reversed
  // (non-monotonic) physical order.
  {
    auto filler = pool.admit(100, s_src, max_new);
    for (int t = 0; t < max_new; ++t) pool.ensure_token(*filler, t);
  }
  auto pooled = pool.admit(1, s_src, max_new);
  // Interleave growth with a second live sequence so the target's later
  // blocks scatter further.
  auto neighbor = pool.admit(2, s_src, max_new);

  decoder.init_cross_attention(memory, *pooled);
  model::DenseKvCache dense(config, max_new, s_src);
  decoder.init_cross_attention(memory, dense);

  std::vector<float> ref(static_cast<size_t>(vocab));
  std::vector<float> got(static_cast<size_t>(vocab));
  std::vector<int> pooled_tokens, dense_tokens;
  int ptoken = 1, dtoken = 1;
  for (int t = 0; t < max_new; ++t) {
    pool.ensure_token(*pooled, t);
    pool.ensure_token(*neighbor, t);
    decoder.step({{ptoken, t, pooled.get()}}, got.data());
    decoder.step({{dtoken, t, &dense}}, ref.data());
    ASSERT_EQ(std::memcmp(got.data(), ref.data(),
                          static_cast<size_t>(vocab) * sizeof(float)),
              0)
        << "fragmented pooled diverged from dense at step " << t;
    ptoken = static_cast<int>(
        std::max_element(got.begin(), got.end()) - got.begin());
    dtoken = static_cast<int>(
        std::max_element(ref.begin(), ref.end()) - ref.begin());
    pooled_tokens.push_back(ptoken);
    dense_tokens.push_back(dtoken);
  }
  EXPECT_EQ(pooled_tokens, dense_tokens);

  // The fragmentation actually happened: the target's self spans are not
  // in ascending physical order.
  std::vector<model::KvSpan> spans;
  pooled->self_extents(0, max_new, spans);
  ASSERT_EQ(spans.size(), 4u);
  bool monotonic = true;
  for (size_t i = 1; i < spans.size(); ++i) {
    if (spans[i].k < spans[i - 1].k) monotonic = false;
  }
  EXPECT_FALSE(monotonic) << "free-list reuse should scramble block order";
  pool.check_invariants();
}

// ---------------------------------------------------------------------------
// CoW forks: paged reads through shared and privately copied blocks
// ---------------------------------------------------------------------------

TEST(PagedAttention, CowForkBitIdenticalToDenseDeepCopy) {
  const auto config = tiny();
  model::Seq2SeqDecoder decoder(config, 37);
  const int s_src = 6;
  const int max_new = 10;
  const int vocab = config.vocab;
  Tensor memory = random_memory(config, s_src, 17);

  model::DenseKvCache dense_root(config, max_new, s_src);
  KvCachePool pool(config, small_pool());
  auto pooled_root = pool.admit(1, s_src, max_new);
  decoder.init_cross_attention(memory, dense_root);
  decoder.init_cross_attention(memory, *pooled_root);

  std::vector<float> ref(static_cast<size_t>(vocab));
  std::vector<float> got(static_cast<size_t>(vocab));
  auto step_pair = [&](model::KvCacheView& dense, SequenceKv& pooled,
                       int token, int t) {
    pool.ensure_token(pooled, t);
    decoder.step({{token, t, &dense}}, ref.data());
    decoder.step({{token, t, &pooled}}, got.data());
    ASSERT_EQ(std::memcmp(got.data(), ref.data(),
                          static_cast<size_t>(vocab) * sizeof(float)),
              0)
        << "pooled diverged from dense at step " << t;
  };

  // Shared history crossing a block boundary, then fork and diverge: the
  // parent CoW-copies the tail block, the child keeps reading the shared
  // prefix through its extents.
  const std::vector<int> history = {1, 5, 9, 13, 17};
  for (int t = 0; t < static_cast<int>(history.size()); ++t) {
    step_pair(dense_root, *pooled_root, history[static_cast<size_t>(t)], t);
  }
  model::DenseKvCache dense_fork(dense_root);
  auto pooled_fork = pool.fork(*pooled_root, 2);
  const int t0 = static_cast<int>(history.size());
  for (int k = 0; k < 4; ++k) {
    step_pair(dense_root, *pooled_root, 20 + k, t0 + k);
    step_pair(dense_fork, *pooled_fork, 30 + k, t0 + k);
  }
  EXPECT_GT(pool.cow_copies(), 0u);
  pool.check_invariants();
}

// ---------------------------------------------------------------------------
// Whole decodes: greedy and beam, dense vs a fragmented pool
// ---------------------------------------------------------------------------

TEST(PagedAttention, GreedyAndBeamDecodeOnFragmentedPoolMatchDense) {
  // Head width 20: every score and output lane runs the kernels' masked
  // tails, which the d = 16 model above never reaches.
  const auto config = model::ModelConfig::tiny(2, 40, 2, 64, 50);
  model::Seq2SeqDecoder decoder(config, 29);
  const int s_src = 7;
  const int max_len = 12;
  Tensor memory = random_memory(config, s_src, 19);

  for (const int beam : {1, 3}) {
    const auto dense = decoder.decode(memory, max_len, 1, 2, beam);
    KvCachePool pool(config, small_pool());
    {
      // As in FragmentedPoolBitIdenticalToDense: the beams draw released
      // blocks in reversed physical order.
      auto filler = pool.admit(100, s_src, max_len);
      for (int t = 0; t < max_len; ++t) pool.ensure_token(*filler, t);
    }
    PooledBeamKv factory(&pool);
    const auto pooled = decoder.decode(memory, max_len, 1, 2, beam, &factory);
    EXPECT_EQ(pooled.tokens, dense.tokens) << "beam " << beam;
    EXPECT_EQ(pooled.log_prob, dense.log_prob) << "beam " << beam;
    EXPECT_EQ(pool.active_sequences(), 0);
  }
}

}  // namespace
}  // namespace turbo::genserve
