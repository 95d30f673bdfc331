// Paged (block-iterating) attention: extent geometry, and bit-identity of
// a dense cache (one span per layer) against pooled caches (one span per
// block), also across fragmented pools.
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

// A prompt of `len` tokens starting at `first`: distinct `first`s give
// distinct prompts, so admits never share cross blocks.
std::vector<int> prompt_of(int len, int first) {
  std::vector<int> p(static_cast<size_t>(len));
  for (int i = 0; i < len; ++i) p[static_cast<size_t>(i)] = first + i;
  return p;
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
  auto seq = pool.admit(1, prompt_of(6, 3), /*max_new_tokens=*/10);
  for (int t = 0; t < 7; ++t) ASSERT_TRUE(pool.try_ensure_token(*seq, t));
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
  auto pooled = pool.admit(1, prompt_of(s_src, 3), max_new);
  decoder.init_cross_attention(memory, dense);
  decoder.init_cross_attention(memory, *pooled);

  std::vector<float> ref(static_cast<size_t>(vocab));
  std::vector<float> got(static_cast<size_t>(vocab));
  int token = 1;
  for (int t = 0; t < max_new; ++t) {
    ASSERT_TRUE(pool.try_ensure_token(*pooled, t));
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
  // Head width 16, then 20: at 20 every score and output lane also runs
  // the kernels' masked tails.
  for (const auto& config :
       {tiny(), model::ModelConfig::tiny(2, 40, 2, 64, 50)}) {
    SCOPED_TRACE(testing::Message() << "hidden " << config.hidden);
    model::Seq2SeqDecoder decoder(config, 31);
    const int s_src = 5;
    const int max_new = 16;  // 4 self blocks per layer at bt=4
    const int vocab = config.vocab;
    Tensor memory = random_memory(config, s_src, 13);

    KvCachePool pool(config, small_pool());
    // Fragment: fully grow a filler sequence, then release it. Its blocks
    // return to the LIFO free list, so the next admit draws them in
    // reversed (non-monotonic) physical order.
    {
      auto filler = pool.admit(100, prompt_of(s_src, 20), max_new);
      for (int t = 0; t < max_new; ++t) {
        ASSERT_TRUE(pool.try_ensure_token(*filler, t));
      }
    }
    auto pooled = pool.admit(1, prompt_of(s_src, 3), max_new);
    // Interleave growth with a second live sequence so the target's later
    // blocks scatter further.
    auto neighbor = pool.admit(2, prompt_of(s_src, 10), max_new);

    decoder.init_cross_attention(memory, *pooled);
    model::DenseKvCache dense(config, max_new, s_src);
    decoder.init_cross_attention(memory, dense);

    std::vector<float> ref(static_cast<size_t>(vocab));
    std::vector<float> got(static_cast<size_t>(vocab));
    std::vector<int> pooled_tokens, dense_tokens;
    int ptoken = 1, dtoken = 1;
    for (int t = 0; t < max_new; ++t) {
      ASSERT_TRUE(pool.try_ensure_token(*pooled, t));
      ASSERT_TRUE(pool.try_ensure_token(*neighbor, t));
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
}

}  // namespace
}  // namespace turbo::genserve
