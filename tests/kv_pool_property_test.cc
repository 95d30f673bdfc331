// Randomized property tests for the refcounted KvCachePool.
//
// A model of the pool is maintained alongside the real one: every sequence
// remembers the exact K/V values it wrote into each self row, and the value
// its prompt's cross rows were initialized with. Random interleavings of
// admit / grow-write / release then check, after every operation:
//
//  * refcount conservation — KvCachePool::check_invariants() rebuilds each
//    block's expected refcount from the live sequences and prompt shares
//    and compares it with the pool's counters, free list and slab
//    occupancy;
//  * no aliasing — each sequence's recorded rows still read back exactly,
//    so no write through one sequence can leak into an unrelated
//    sequence's blocks;
//  * exact drain — after all releases the DeviceTracker footprint, slab
//    count and refcounts return exactly to zero.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "genserve/generation_scheduler.h"
#include "genserve/kv_cache_pool.h"
#include "model/config.h"
#include "serving/cost_table.h"

namespace turbo::genserve {
namespace {

model::ModelConfig tiny() { return model::ModelConfig::tiny(2, 32, 2, 64, 50); }

struct ModelSeq {
  std::unique_ptr<SequenceKv> kv;
  int steps = 0;                  // self rows written so far
  int marker = 0;                 // base of values this sequence writes
  float cross_value = 0.0f;       // value its cross rows were filled with
  std::vector<float> expected;    // expected[t] = value written into row t
};

// The value sequence `marker` writes into self row t (K side; V adds 0.5).
float row_value(int marker, int t) {
  return static_cast<float>(marker) * 100.0f + static_cast<float>(t);
}

// Grows `s` by one row and writes it; false (nothing written) when the
// pool is out of blocks.
bool write_next_row(const model::ModelConfig& config, KvCachePool& pool,
                    ModelSeq& s) {
  const int t = s.steps;
  if (!pool.try_ensure_token(*s.kv, t)) return false;
  const float v = row_value(s.marker, t);
  for (int layer = 0; layer < config.num_layers; ++layer) {
    std::fill_n(s.kv->self_k(layer, t), config.hidden, v);
    std::fill_n(s.kv->self_v(layer, t), config.hidden, v + 0.5f);
  }
  s.expected.push_back(v);
  ++s.steps;
  return true;
}

void init_cross(const model::ModelConfig& config, ModelSeq& s, float value) {
  for (int layer = 0; layer < config.num_layers; ++layer) {
    for (int pos = 0; pos < s.kv->src_len(); ++pos) {
      std::fill_n(s.kv->cross_k(layer, pos), config.hidden, value);
      std::fill_n(s.kv->cross_v(layer, pos), config.hidden, value);
    }
  }
  s.kv->mark_cross_ready();
}

void verify_seq(const model::ModelConfig& config, ModelSeq& s) {
  const int H = config.hidden;
  for (int layer = 0; layer < config.num_layers; ++layer) {
    for (int t = 0; t < s.steps; ++t) {
      const float v = s.expected[static_cast<size_t>(t)];
      ASSERT_EQ(s.kv->self_k(layer, t)[0], v)
          << "seq " << s.kv->id() << " layer " << layer << " row " << t;
      ASSERT_EQ(s.kv->self_k(layer, t)[H - 1], v);
      ASSERT_EQ(s.kv->self_v(layer, t)[0], v + 0.5f);
    }
    for (int pos = 0; pos < s.kv->src_len(); ++pos) {
      ASSERT_EQ(s.kv->cross_k(layer, pos)[0], s.cross_value)
          << "seq " << s.kv->id() << " cross row " << pos;
      ASSERT_EQ(s.kv->cross_v(layer, pos)[H - 1], s.cross_value);
    }
  }
}

void run_interleaving(uint64_t seed, KvPoolOptions opts) {
  const auto config = tiny();
  KvCachePool pool(config, opts);
  Rng rng(seed);

  // A small template set so admits collide on prompts and exercise the
  // prefix-sharing paths; identical templates must share cross blocks.
  const int kTemplates = 5;
  std::vector<std::vector<int>> prompts;
  for (int i = 0; i < kTemplates; ++i) {
    prompts.push_back(
        rng.token_ids(3 + static_cast<int>(rng.uniform_int(0, 7)), 50));
  }

  std::vector<ModelSeq> live;
  int64_t next_id = 1;
  int next_marker = 1;
  const int kOps = 400;

  for (int op = 0; op < kOps; ++op) {
    const int kind = static_cast<int>(rng.uniform_int(0, 9));
    if (kind <= 2 || live.empty()) {
      // Admit from a random template.
      const auto& prompt =
          prompts[static_cast<size_t>(rng.uniform_int(0, kTemplates - 1))];
      const int max_new = 4 + static_cast<int>(rng.uniform_int(0, 8));
      if (!pool.can_admit_now(prompt)) continue;
      ModelSeq s;
      s.kv = pool.admit(next_id++, prompt, max_new);
      s.marker = next_marker++;
      // Cross rows carry a template-determined value, so every sequence
      // sharing the prompt expects identical cross content.
      s.cross_value = static_cast<float>(prompt[0]) + 7000.0f;
      if (s.kv->needs_cross_init()) init_cross(config, s, s.cross_value);
      live.push_back(std::move(s));
    } else if (kind <= 7) {
      // Write the next token row of a random sequence; on a full pool the
      // grow fails and nothing changes.
      ModelSeq& s = live[static_cast<size_t>(
          rng.uniform_int(0, static_cast<int64_t>(live.size()) - 1))];
      if (s.steps < s.kv->max_new_tokens()) write_next_row(config, pool, s);
    } else {
      // Release a random sequence, verifying its content first.
      const size_t idx = static_cast<size_t>(
          rng.uniform_int(0, static_cast<int64_t>(live.size()) - 1));
      verify_seq(config, live[idx]);
      live.erase(live.begin() + static_cast<long>(idx));
    }
    ASSERT_NO_THROW(pool.check_invariants()) << "after op " << op;
  }

  // Every sequence must still read back its own writes (full sweep), then
  // drain the pool and require the footprint to return exactly to zero.
  for (auto& s : live) verify_seq(config, s);
  while (!live.empty()) {
    live.pop_back();
    pool.check_invariants();
  }
  EXPECT_EQ(pool.active_sequences(), 0);
  EXPECT_EQ(pool.blocks_in_use(), 0u);
  EXPECT_EQ(pool.num_slabs(), 0);
  EXPECT_EQ(pool.stats().current_device_bytes, 0u);
  EXPECT_EQ(pool.stats().device_malloc_bytes, pool.stats().device_free_bytes);
}

KvPoolOptions base_opts() {
  KvPoolOptions o;
  o.block_tokens = 4;
  o.blocks_per_slab = 8;
  return o;
}

TEST(KvPoolProperty, RandomInterleavingsUnbounded) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    run_interleaving(seed, base_opts());
  }
}

TEST(KvPoolProperty, RandomInterleavingsBoundedPool) {
  // A tight capacity forces admission rejections, failed grows and slab
  // sweep + slot reuse; a failed grow must change nothing.
  auto opts = base_opts();
  const size_t slab_bytes = static_cast<size_t>(opts.blocks_per_slab) *
                            KvCachePool(tiny(), opts).block_bytes();
  opts.max_bytes = 6 * slab_bytes;  // 48 blocks: a handful of sequences
  for (uint64_t seed = 11; seed <= 14; ++seed) {
    run_interleaving(seed, opts);
  }
}

TEST(KvPoolProperty, RandomInterleavingsSharingDisabled) {
  // With prefix matching off every admit owns private cross blocks; all
  // invariants must hold identically.
  auto opts = base_opts();
  opts.enable_prefix_sharing = false;
  for (uint64_t seed = 21; seed <= 23; ++seed) {
    run_interleaving(seed, opts);
  }
}

// Randomized admit / grow / preempt / resume / release
// interleavings under current-demand admission. The model tracks parked
// state: a preempted sequence keeps its expected row values (its tokens
// are parked), must hold no self blocks, and must read back every row
// exactly after a resume replays them — while refcount conservation holds
// at every step and the pool never exceeds capacity.
void run_preemption_interleaving(uint64_t seed, KvPoolOptions opts) {
  const auto config = tiny();
  KvCachePool pool(config, opts);
  Rng rng(seed);

  const int kTemplates = 4;
  std::vector<std::vector<int>> prompts;
  for (int i = 0; i < kTemplates; ++i) {
    prompts.push_back(
        rng.token_ids(3 + static_cast<int>(rng.uniform_int(0, 7)), 50));
  }

  struct PSeq : ModelSeq {
    bool parked = false;
  };
  std::vector<PSeq> live;
  int64_t next_id = 1;
  int next_marker = 1;
  size_t preempts = 0;
  size_t resumes = 0;
  const int kOps = 500;

  // Replay after resume: re-derive every parked row (the serving stack
  // feeds the parked tokens back through the decoder; here the model
  // rewrites the recorded values). Growth may hit capacity mid-replay —
  // that is a legitimate cascading preemption, so the sequence parks
  // again.
  auto replay = [&](PSeq& s) {
    for (int t = 0; t < s.steps; ++t) {
      if (!pool.try_ensure_token(*s.kv, t)) {
        pool.preempt(*s.kv);
        s.parked = true;
        ++preempts;
        return;
      }
      for (int layer = 0; layer < config.num_layers; ++layer) {
        std::fill_n(s.kv->self_k(layer, t), config.hidden, s.expected[t]);
        std::fill_n(s.kv->self_v(layer, t), config.hidden,
                    s.expected[t] + 0.5f);
      }
    }
  };

  for (int op = 0; op < kOps; ++op) {
    const int kind = static_cast<int>(rng.uniform_int(0, 11));
    if (kind <= 1 || live.empty()) {
      const auto& prompt =
          prompts[static_cast<size_t>(rng.uniform_int(0, kTemplates - 1))];
      const int max_new = 4 + static_cast<int>(rng.uniform_int(0, 8));
      if (!pool.can_admit_now(prompt)) continue;
      PSeq s;
      s.kv = pool.admit(next_id++, prompt, max_new);
      s.marker = next_marker++;
      s.cross_value = static_cast<float>(prompt[0]) + 7000.0f;
      if (s.kv->needs_cross_init()) init_cross(config, s, s.cross_value);
      live.push_back(std::move(s));
    } else if (kind <= 7) {
      // Grow one row through try_ensure_token: exhaustion preempts a
      // random other non-parked sequence (or parks this one when alone).
      PSeq& s = live[static_cast<size_t>(
          rng.uniform_int(0, static_cast<int64_t>(live.size()) - 1))];
      if (s.parked || s.steps >= s.kv->max_new_tokens()) continue;
      while (!pool.try_ensure_token(*s.kv, s.steps)) {
        std::vector<PSeq*> victims;
        for (auto& other : live) {
          if (!other.parked && other.kv.get() != s.kv.get()) {
            victims.push_back(&other);
          }
        }
        PSeq* victim =
            victims.empty()
                ? &s
                : victims[static_cast<size_t>(rng.uniform_int(
                      0, static_cast<int64_t>(victims.size()) - 1))];
        pool.preempt(*victim->kv);
        victim->parked = true;
        ++preempts;
        if (victim == &s) break;
      }
      if (!s.parked) {
        const float v = row_value(s.marker, s.steps);
        for (int layer = 0; layer < config.num_layers; ++layer) {
          std::fill_n(s.kv->self_k(layer, s.steps), config.hidden, v);
          std::fill_n(s.kv->self_v(layer, s.steps), config.hidden, v + 0.5f);
        }
        s.expected.push_back(v);
        ++s.steps;
      }
    } else if (kind <= 9) {
      // Resume a random parked sequence and replay its parked rows.
      std::vector<PSeq*> parked;
      for (auto& s : live) {
        if (s.parked) parked.push_back(&s);
      }
      if (parked.empty()) continue;
      PSeq& s = *parked[static_cast<size_t>(
          rng.uniform_int(0, static_cast<int64_t>(parked.size()) - 1))];
      if (!pool.can_resume(*s.kv)) continue;
      pool.resume(*s.kv);
      s.parked = false;
      ++resumes;
      replay(s);
    } else {
      // Release a random sequence (parked or not), verifying it first.
      const size_t idx = static_cast<size_t>(
          rng.uniform_int(0, static_cast<int64_t>(live.size()) - 1));
      if (!live[idx].parked) verify_seq(config, live[idx]);
      live.erase(live.begin() + static_cast<long>(idx));
    }
    ASSERT_NO_THROW(pool.check_invariants()) << "after op " << op;
    ASSERT_LE(pool.blocks_in_use(), pool.max_blocks()) << "after op " << op;
  }
  EXPECT_GT(preempts, 0u) << "seed " << seed << " never preempted";

  // Every non-parked sequence reads back its writes; drain to zero.
  for (auto& s : live) {
    if (!s.parked) verify_seq(config, s);
  }
  while (!live.empty()) {
    live.pop_back();
    pool.check_invariants();
  }
  EXPECT_EQ(pool.active_sequences(), 0);
  EXPECT_EQ(pool.parked_sequences(), 0);
  EXPECT_EQ(pool.blocks_in_use(), 0u);
  EXPECT_EQ(pool.num_slabs(), 0);
  EXPECT_EQ(pool.stats().current_device_bytes, 0u);
  EXPECT_EQ(pool.stats().device_malloc_bytes, pool.stats().device_free_bytes);
}

TEST(KvPoolProperty, RandomPreemptRequeueInterleavingsOversubscribed) {
  // Tight capacity + current-demand admission: admits oversubscribe, growth
  // runs the pool dry, preempt/resume churns constantly. No block may
  // leak or double-free, and usage must never exceed capacity.
  auto opts = base_opts();
  const size_t slab_bytes = static_cast<size_t>(opts.blocks_per_slab) *
                            KvCachePool(tiny(), opts).block_bytes();
  opts.max_bytes = 2 * slab_bytes;  // 16 blocks: a couple of sequences
  for (uint64_t seed = 31; seed <= 36; ++seed) {
    run_preemption_interleaving(seed, opts);
  }
}

TEST(KvPoolProperty, RandomPreemptRequeueSharingDisabled) {
  auto opts = base_opts();
  opts.enable_prefix_sharing = false;
  const size_t slab_bytes = static_cast<size_t>(opts.blocks_per_slab) *
                            KvCachePool(tiny(), opts).block_bytes();
  opts.max_bytes = 2 * slab_bytes;
  for (uint64_t seed = 41; seed <= 43; ++seed) {
    run_preemption_interleaving(seed, opts);
  }
}

TEST(KvPoolProperty, PromptSharingChargesCrossBlocksOnce) {
  const auto config = tiny();
  KvCachePool pool(config, base_opts());
  Rng rng(7);
  const auto prompt = rng.token_ids(8, 50);  // 2 cross blocks x 2 layers

  auto a = pool.admit(1, prompt, 4);
  const size_t in_use_one = pool.blocks_in_use();
  EXPECT_TRUE(a->needs_cross_init());
  for (int layer = 0; layer < config.num_layers; ++layer) {
    for (int s = 0; s < a->src_len(); ++s) {
      std::fill_n(a->cross_k(layer, s), config.hidden, 3.5f);
    }
  }
  a->mark_cross_ready();

  // Same prompt: marginal demand is self-only and cross blocks are mapped,
  // not allocated.
  EXPECT_EQ(pool.blocks_for_admit_now(prompt),
            static_cast<size_t>(config.num_layers));
  auto b = pool.admit(2, prompt, 4);
  EXPECT_FALSE(b->needs_cross_init());
  EXPECT_EQ(pool.prefix_hits(), 1u);
  // Unique blocks grew only by b's first self block per layer.
  EXPECT_EQ(pool.blocks_in_use() - in_use_one,
            static_cast<size_t>(config.num_layers));
  // The two sequences read the same physical cross rows.
  EXPECT_EQ(a->cross_k(0, 0), b->cross_k(0, 0));
  pool.check_invariants();

  // The share outlives its creator: b keeps the cross blocks (and their
  // projected content) alive.
  a.reset();
  pool.check_invariants();
  EXPECT_EQ(b->cross_k(1, b->src_len() - 1)[0], 3.5f);
  b.reset();
  EXPECT_EQ(pool.blocks_in_use(), 0u);
  EXPECT_EQ(pool.stats().current_device_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Causal (decoder-only) sequences over the radix cache tier.
//
// Every self row t of a causal sequence is a pure function of the fed
// tokens [0, t] — the model writes fnv1a(fed[0..t]) into row t, so a
// radix adoption that ever attached a wrong-prefix chain reads back as a
// value mismatch, not just a refcount error. Random interleavings of
// admit / grow / preempt / resume / donate-and-release then check refcount
// conservation, the capacity cap, that LRU eviction never drops a node a
// live sequence still references, and that drop_radix_cache() + release
// drains the pool to exactly zero bytes.
// ---------------------------------------------------------------------------

float causal_row_value(const std::vector<int>& fed, int t) {
  return static_cast<float>(fnv1a_range(fed.data(), t + 1) % 8192u);
}

struct CSeq {
  std::unique_ptr<SequenceKv> kv;
  std::vector<int> fed;  // prompt + generated tokens fed so far
  int steps = 0;         // self rows written (== fed.size() unless parked)
  bool parked = false;
};

struct CausalRunStats {
  size_t preempts = 0;
  size_t radix_hits = 0;
  size_t radix_hit_rows = 0;
  size_t radix_evictions = 0;
};

void verify_causal(const model::ModelConfig& config, const CSeq& s) {
  const int H = config.hidden;
  for (int layer = 0; layer < config.num_layers; ++layer) {
    for (int t = 0; t < s.steps; ++t) {
      const float v = causal_row_value(s.fed, t);
      ASSERT_EQ(s.kv->self_k(layer, t)[0], v)
          << "seq " << s.kv->id() << " layer " << layer << " row " << t
          << " (prefix_rows " << s.kv->prefix_rows() << ")";
      ASSERT_EQ(s.kv->self_k(layer, t)[H - 1], v);
      ASSERT_EQ(s.kv->self_v(layer, t)[0], v + 0.5f);
    }
  }
}

void run_causal_radix_interleaving(uint64_t seed, KvPoolOptions opts,
                                   CausalRunStats* out) {
  const auto config = tiny();
  KvCachePool pool(config, opts);
  Rng rng(seed);
  CausalRunStats stats;

  // Prompt templates sharing a block-aligned base, then diverging: admits
  // branch the tree instead of only extending one chain.
  const std::vector<int> base = rng.token_ids(2 * opts.block_tokens, 50);
  const int kTemplates = 5;
  std::vector<std::vector<int>> prompts;
  for (int i = 0; i < kTemplates; ++i) {
    auto p = base;
    const auto tail =
        rng.token_ids(1 + static_cast<int>(rng.uniform_int(0, 5)), 50);
    p.insert(p.end(), tail.begin(), tail.end());
    prompts.push_back(std::move(p));
  }

  std::vector<CSeq> live;
  int64_t next_id = 1;
  const int kOps = 400;

  // Write self row `t` (value derived from the fed prefix), preempting
  // random victims on block exhaustion; parks `s` itself when it is the
  // last one standing. Returns false if `s` parked.
  auto write_row = [&](CSeq& s, int t) -> bool {
    while (!pool.try_ensure_token(*s.kv, t)) {
      CSeq* victim = nullptr;
      for (auto& other : live) {
        if (!other.parked && other.kv && other.kv.get() != s.kv.get()) {
          victim = &other;
        }
      }
      if (victim == nullptr) {
        pool.preempt(*s.kv);
        s.parked = true;
        ++stats.preempts;
        return false;
      }
      pool.preempt(*victim->kv);
      victim->parked = true;
      ++stats.preempts;
    }
    const float v = causal_row_value(s.fed, t);
    for (int layer = 0; layer < config.num_layers; ++layer) {
      std::fill_n(s.kv->self_k(layer, t), config.hidden, v);
      std::fill_n(s.kv->self_v(layer, t), config.hidden, v + 0.5f);
    }
    return true;
  };
  // Write rows [s.steps, rows); s.steps tracks progress even if parked.
  auto write_until = [&](CSeq& s, int rows) {
    while (s.steps < rows) {
      if (!write_row(s, s.steps)) return;
      ++s.steps;
    }
  };

  for (int op = 0; op < kOps; ++op) {
    const int kind = static_cast<int>(rng.uniform_int(0, 11));
    if (kind <= 2 || live.empty()) {
      // Admit from a random template, adopting whatever block-aligned
      // prefix of it the tree has cached. Adopted rows must already read
      // back as this fed-prefix's values — a wrong-prefix adoption fails
      // loudly here.
      const auto& prompt =
          prompts[static_cast<size_t>(rng.uniform_int(0, kTemplates - 1))];
      const int max_new = 4 + static_cast<int>(rng.uniform_int(0, 8));
      const auto plan = pool.plan_causal(prompt);
      if (!pool.can_admit_causal_now(plan)) continue;
      CSeq s;
      s.kv = pool.admit_causal(next_id++, prompt, max_new, plan);
      s.fed = prompt;
      s.steps = s.kv->prefix_rows();
      ASSERT_TRUE(s.kv->causal());
      ASSERT_FALSE(s.kv->needs_cross_init());
      ASSERT_EQ(s.kv->prefix_rows(), plan.prefix_rows);
      ASSERT_EQ(s.kv->prefix_rows() % opts.block_tokens, 0);
      ASSERT_LT(s.kv->prefix_rows(), static_cast<int>(prompt.size()));
      verify_causal(config, s);
      live.push_back(std::move(s));
      write_until(live.back(), static_cast<int>(live.back().fed.size()));
    } else if (kind <= 6) {
      // Grow a non-parked sequence by one fed token.
      std::vector<CSeq*> growable;
      for (auto& s : live) {
        if (!s.parked &&
            static_cast<int>(s.fed.size()) <
                s.kv->src_len() + s.kv->max_new_tokens()) {
          growable.push_back(&s);
        }
      }
      if (growable.empty()) continue;
      CSeq& s = *growable[static_cast<size_t>(
          rng.uniform_int(0, static_cast<int64_t>(growable.size()) - 1))];
      s.fed.push_back(static_cast<int>(rng.uniform_int(0, 49)));
      write_until(s, static_cast<int>(s.fed.size()));
    } else if (kind <= 7) {
      // Preempt a random non-parked sequence outright.
      std::vector<CSeq*> up;
      for (auto& s : live) {
        if (!s.parked) up.push_back(&s);
      }
      if (up.empty()) continue;
      CSeq& s = *up[static_cast<size_t>(
          rng.uniform_int(0, static_cast<int64_t>(up.size()) - 1))];
      pool.preempt(*s.kv);
      s.parked = true;
      ++stats.preempts;
    } else if (kind <= 9) {
      // Resume a parked sequence: re-plan over the full fed history (it
      // may adopt *more* rows than it was admitted with, e.g. its own
      // donation from a neighbour's retirement), then replay the rest.
      std::vector<CSeq*> parked;
      for (auto& s : live) {
        if (s.parked) parked.push_back(&s);
      }
      if (parked.empty()) continue;
      CSeq& s = *parked[static_cast<size_t>(
          rng.uniform_int(0, static_cast<int64_t>(parked.size()) - 1))];
      const auto plan = pool.plan_causal(s.fed);
      if (!pool.can_resume_causal(*s.kv, plan,
                                  static_cast<int>(s.fed.size()))) {
        continue;
      }
      pool.resume_causal(*s.kv, plan);
      s.parked = false;
      s.steps = s.kv->prefix_rows();
      verify_causal(config, s);
      write_until(s, static_cast<int>(s.fed.size()));
    } else {
      // Retire a random sequence: verify, donate its written rows to the
      // cache tier, release the handle.
      const size_t idx = static_cast<size_t>(
          rng.uniform_int(0, static_cast<int64_t>(live.size()) - 1));
      CSeq& s = live[idx];
      if (!s.parked) {
        verify_causal(config, s);
        std::vector<int> written(s.fed.begin(),
                                 s.fed.begin() + s.steps);
        pool.donate_radix(*s.kv, written);
      }
      live.erase(live.begin() + static_cast<long>(idx));
    }
    ASSERT_NO_THROW(pool.check_invariants()) << "seed " << seed
                                             << " after op " << op;
    ASSERT_LE(pool.radix_evictable_blocks(), pool.radix_cached_blocks());
    if (pool.max_blocks() != 0) {
      ASSERT_LE(pool.blocks_in_use(), pool.max_blocks())
          << "seed " << seed << " after op " << op;
    }
  }

  // Every surviving non-parked sequence still reads back its fed-derived
  // rows — eviction under churn never touched a live-referenced node.
  for (auto& s : live) {
    if (!s.parked) verify_causal(config, s);
  }
  while (!live.empty()) {
    CSeq& s = live.back();
    if (!s.parked) {
      std::vector<int> written(s.fed.begin(), s.fed.begin() + s.steps);
      pool.donate_radix(*s.kv, written);
    }
    live.pop_back();
    pool.check_invariants();
  }
  EXPECT_EQ(pool.active_sequences(), 0);
  EXPECT_EQ(pool.parked_sequences(), 0);
  // Only the cache tier is left holding blocks, all of it evictable.
  EXPECT_EQ(pool.blocks_in_use(), pool.radix_cached_blocks());
  EXPECT_EQ(pool.radix_evictable_blocks(), pool.radix_cached_blocks());
  EXPECT_EQ(pool.charged_blocks(), 0u);

  stats.radix_hits = pool.radix_hits();
  stats.radix_hit_rows = pool.radix_hit_rows();
  stats.radix_evictions = pool.radix_evictions();

  pool.drop_radix_cache();
  pool.check_invariants();
  EXPECT_EQ(pool.radix_cached_blocks(), 0u);
  EXPECT_EQ(pool.blocks_in_use(), 0u);
  EXPECT_EQ(pool.num_slabs(), 0);
  EXPECT_EQ(pool.stats().current_device_bytes, 0u);
  EXPECT_EQ(pool.stats().device_malloc_bytes, pool.stats().device_free_bytes);
  *out = stats;
}

TEST(KvPoolProperty, RandomCausalRadixInterleavingsUnbounded) {
  CausalRunStats total;
  for (uint64_t seed = 51; seed <= 54; ++seed) {
    CausalRunStats s;
    run_causal_radix_interleaving(seed, base_opts(), &s);
    total.radix_hits += s.radix_hits;
    total.radix_hit_rows += s.radix_hit_rows;
  }
  // The workload shares block-aligned prefixes by construction: the tier
  // must actually get hit, or the whole test is vacuous.
  EXPECT_GT(total.radix_hits, 0u);
  EXPECT_GT(total.radix_hit_rows, 0u);
}

TEST(KvPoolProperty, RandomCausalRadixInterleavingsBoundedPool) {
  // Tight capacity: admissions force make_room to reclaim the evictable
  // tier LRU-first and preempt/resume churns; live-referenced (pinned)
  // nodes must survive every eviction.
  auto opts = base_opts();
  const size_t slab_bytes = static_cast<size_t>(opts.blocks_per_slab) *
                            KvCachePool(tiny(), opts).block_bytes();
  opts.max_bytes = 4 * slab_bytes;  // 32 blocks
  CausalRunStats total;
  for (uint64_t seed = 61; seed <= 66; ++seed) {
    CausalRunStats s;
    run_causal_radix_interleaving(seed, opts, &s);
    total.preempts += s.preempts;
    total.radix_hits += s.radix_hits;
    total.radix_evictions += s.radix_evictions;
  }
  EXPECT_GT(total.preempts, 0u);
  EXPECT_GT(total.radix_hits, 0u);
  EXPECT_GT(total.radix_evictions, 0u);
}

TEST(KvPoolProperty, RandomCausalRadixDisabled) {
  // enable_radix_tree=false: plans never match, donations are no-ops, and
  // the same interleavings still conserve refcounts and drain to zero.
  auto opts = base_opts();
  opts.enable_radix_tree = false;
  for (uint64_t seed = 71; seed <= 72; ++seed) {
    CausalRunStats s;
    run_causal_radix_interleaving(seed, opts, &s);
    EXPECT_EQ(s.radix_hits, 0u);
    EXPECT_EQ(s.radix_evictions, 0u);
  }
}

TEST(KvPoolProperty, CausalDonationAdoptionIsExact) {
  // Deterministic end-to-end of the tier: write, donate, re-admit, adopt.
  const auto config = tiny();
  auto opts = base_opts();
  KvCachePool pool(config, opts);
  Rng rng(9);
  const auto prompt = rng.token_ids(11, 50);  // 2 whole blocks + 3 tokens

  CSeq a;
  a.kv = pool.admit_causal(1, prompt, 4, pool.plan_causal(prompt));
  a.fed = prompt;
  EXPECT_EQ(a.kv->prefix_rows(), 0);  // cold tree
  for (int t = 0; t < static_cast<int>(prompt.size()); ++t) {
    ASSERT_TRUE(pool.try_ensure_token(*a.kv, t));
    const float v = causal_row_value(a.fed, t);
    for (int layer = 0; layer < config.num_layers; ++layer) {
      std::fill_n(a.kv->self_k(layer, t), config.hidden, v);
      std::fill_n(a.kv->self_v(layer, t), config.hidden, v + 0.5f);
    }
    ++a.steps;
  }
  pool.donate_radix(*a.kv, a.fed);
  // 2 whole chunks x 2 layers donated; the 3-token tail is not block
  // aligned and stays private.
  EXPECT_EQ(pool.radix_nodes(), 2u);
  EXPECT_EQ(pool.radix_cached_blocks(),
            2u * static_cast<size_t>(config.num_layers));
  a.kv.reset();
  pool.check_invariants();
  EXPECT_EQ(pool.radix_evictable_blocks(), pool.radix_cached_blocks());

  // Same prompt again: adopts both cached chunks, reads back a's values.
  const auto plan = pool.plan_causal(prompt);
  EXPECT_EQ(plan.prefix_rows, 2 * opts.block_tokens);
  CSeq b;
  b.kv = pool.admit_causal(2, prompt, 4, plan);
  b.fed = prompt;
  b.steps = b.kv->prefix_rows();
  EXPECT_EQ(b.kv->prefix_rows(), 2 * opts.block_tokens);
  EXPECT_EQ(pool.radix_hits(), 1u);
  EXPECT_EQ(pool.radix_hit_rows(), static_cast<size_t>(2 * opts.block_tokens));
  verify_causal(config, b);
  // Adopted nodes are pinned: not evictable while b holds them.
  EXPECT_EQ(pool.radix_evictable_blocks(), 0u);
  pool.check_invariants();

  // Extending b past the adopted prefix writes a block of its own; the
  // cached chunks stay intact.
  b.fed.push_back(42);
  ASSERT_TRUE(pool.try_ensure_token(*b.kv, b.steps));
  const float v = causal_row_value(b.fed, b.steps);
  for (int layer = 0; layer < config.num_layers; ++layer) {
    std::fill_n(b.kv->self_k(layer, b.steps), config.hidden, v);
    std::fill_n(b.kv->self_v(layer, b.steps), config.hidden, v + 0.5f);
  }
  ++b.steps;
  verify_causal(config, b);
  pool.donate_radix(*b.kv, b.fed);
  b.kv.reset();
  pool.drop_radix_cache();
  pool.check_invariants();
  EXPECT_EQ(pool.blocks_in_use(), 0u);
  EXPECT_EQ(pool.stats().current_device_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Chunked prefill under a token quantum, driven through the real scheduler.
//
// A GenerationScheduler in causal quantum mode forms every step's mixed
// batch; a synthetic driver stands in for the decoder, writing the
// fed-prefix-derived value fnv1a(fed[0..t]) into every scheduled row and
// sampling a deterministic token at each chunk frontier (so replays after
// preemption regenerate bit-identical values). Random arrivals, forced
// sheds (the cross-pool reclaim path) and radix donation/adoption at
// retirement all interleave.
// After every step:
//  * the quantum is conserved — quantum_charged equals the rows the plan
//    actually carries and never exceeds the budget (causal prompts are
//    divisible, so overflow must never be flagged);
//  * refcount conservation — check_invariants() and the capacity cap;
//  * adopted rows read back their fed-prefix values at every admission
//    and resume that attached a radix prefix.
// ---------------------------------------------------------------------------

int deterministic_token(const std::vector<int>& fed) {
  // Any fixed function of the fed history works; it only has to reproduce
  // the same token when a replayed chunk reaches the same frontier (and
  // never the EOS id 2).
  return 3 + static_cast<int>(fnv1a_range(fed.data(), fed.size()) % 40u);
}

void run_chunked_prefill_property(uint64_t seed, KvPoolOptions opts,
                                  int quantum, int chunk_tokens) {
  const auto config = tiny();
  KvCachePool pool(config, opts);
  const auto costs = serving::CostTable::warmup(
      [](int len, int batch) { return 0.01 + 0.0001 * len * batch; }, 128, 16,
      8);
  GenSchedulerOptions sched_opts;
  sched_opts.causal_lm = true;
  sched_opts.max_active = 4;
  sched_opts.step_token_quantum = quantum;
  sched_opts.prefill_chunk_tokens = chunk_tokens;
  GenerationScheduler scheduler(&pool, &costs, sched_opts);
  Rng rng(seed);

  // Prompt templates share a block-aligned base so retirements donate
  // prefixes that later admissions adopt mid-run.
  const std::vector<int> base = rng.token_ids(2 * opts.block_tokens, 50);
  const int kTemplates = 4;
  std::vector<std::vector<int>> prompts;
  for (int i = 0; i < kTemplates; ++i) {
    auto p = base;
    const auto tail =
        rng.token_ids(1 + static_cast<int>(rng.uniform_int(0, 5)), 50);
    p.insert(p.end(), tail.begin(), tail.end());
    prompts.push_back(std::move(p));
  }

  const auto fed_of = [](const ActiveSequence& seq) {
    std::vector<int> fed = seq.request.src_tokens;
    fed.insert(fed.end(), seq.tokens.begin(), seq.tokens.end());
    return fed;
  };
  const auto verify_rows = [&](SequenceKv& kv, const std::vector<int>& fed,
                               int rows) {
    for (int layer = 0; layer < config.num_layers; ++layer) {
      for (int t = 0; t < rows; ++t) {
        const float v = causal_row_value(fed, t);
        ASSERT_EQ(kv.self_k(layer, t)[0], v)
            << "seq " << kv.id() << " layer " << layer << " row " << t
            << " (prefix_rows " << kv.prefix_rows() << ")";
        ASSERT_EQ(kv.self_v(layer, t)[0], v + 0.5f);
      }
    }
  };

  int64_t next_id = 1;
  size_t sheds = 0;
  int chunked_rows = 0;
  size_t adoptions_checked = 0;
  const int kOps = 250;

  const auto drive_one_step = [&](int op) {
    // (Re)admissions first; every adoption must already read back the fed
    // prefix it claims to cover.
    for (ActiveSequence* seq : scheduler.admit(static_cast<double>(op))) {
      if (seq->kv->prefix_rows() > 0) {
        verify_rows(*seq->kv, fed_of(*seq), seq->kv->prefix_rows());
        ++adoptions_checked;
      }
      ASSERT_EQ(seq->step, seq->kv->prefix_rows());
    }
    const auto plan = scheduler.prepare_step();
    ASSERT_FALSE(plan.quantum_overflow)
        << "causal prompts are divisible; nothing may overflow the quantum";
    ASSERT_LE(plan.quantum_charged, quantum);
    ASSERT_TRUE(plan.encode.empty());
    int charged = 0;
    for (ActiveSequence* seq : plan.stepping) {
      const std::vector<int> fed = fed_of(*seq);
      const int known = static_cast<int>(fed.size()) - seq->step;
      ASSERT_GE(seq->step_tokens, 1);
      ASSERT_LE(seq->step_tokens, known);
      charged += seq->step_tokens;
      if (seq->step_tokens > 1) chunked_rows += seq->step_tokens;
      for (int i = 0; i < seq->step_tokens; ++i) {
        const int t = seq->step + i;
        const float v = causal_row_value(fed, t);
        for (int layer = 0; layer < config.num_layers; ++layer) {
          std::fill_n(seq->kv->self_k(layer, t), config.hidden, v);
          std::fill_n(seq->kv->self_v(layer, t), config.hidden, v + 0.5f);
        }
      }
      const bool frontier = seq->step_tokens == known;
      seq->step += seq->step_tokens;
      if (frontier) {
        seq->tokens.push_back(deterministic_token(fed));
        seq->last_token = seq->tokens.back();
        if (static_cast<int>(seq->tokens.size()) >=
            seq->request.max_new_tokens) {
          seq->finished = true;
          verify_rows(*seq->kv, fed_of(*seq), seq->step);
        }
      }
    }
    ASSERT_EQ(charged, plan.quantum_charged);
    scheduler.retire_finished();  // donates written rows to the radix tier
  };

  for (int op = 0; op < kOps; ++op) {
    const int kind = static_cast<int>(rng.uniform_int(0, 9));
    if (kind <= 1 && scheduler.pending() < 3) {
      serving::GenerationRequest r;
      r.id = next_id++;
      r.src_tokens =
          prompts[static_cast<size_t>(rng.uniform_int(0, kTemplates - 1))];
      r.max_new_tokens = 2 + static_cast<int>(rng.uniform_int(0, 6));
      r.bos_id = 1;
      r.eos_id = 2;
      scheduler.enqueue(std::move(r));
    } else if (kind == 2) {
      // Forced reclaim (the multi-model shed path): parks sequences —
      // possibly mid-prefill — that must later resume and replay exactly.
      if (scheduler.shed(static_cast<size_t>(
              rng.uniform_int(1, 2) * static_cast<int64_t>(
                                          pool.block_bytes()))) > 0) {
        ++sheds;
      }
    } else {
      drive_one_step(op);
    }
    ASSERT_NO_THROW(pool.check_invariants()) << "seed " << seed
                                             << " after op " << op;
    ASSERT_LE(pool.blocks_in_use(), pool.max_blocks());
  }

  // Drain: step the scheduler dry.
  for (int op = kOps; !scheduler.idle(); ++op) {
    ASSERT_LT(op, kOps + 500) << "scheduler failed to drain";
    drive_one_step(op);
    pool.check_invariants();
  }
  EXPECT_GT(chunked_rows, 0) << "seed " << seed << " never ran a chunk";
  EXPECT_GT(adoptions_checked, 0u) << "seed " << seed << " never adopted";
  EXPECT_EQ(pool.active_sequences(), 0);
  EXPECT_EQ(pool.parked_sequences(), 0);
  EXPECT_EQ(pool.blocks_in_use(), pool.radix_cached_blocks());
  pool.drop_radix_cache();
  pool.check_invariants();
  EXPECT_EQ(pool.blocks_in_use(), 0u);
  EXPECT_EQ(pool.stats().current_device_bytes, 0u);
  EXPECT_EQ(pool.stats().device_malloc_bytes, pool.stats().device_free_bytes);
}

TEST(KvPoolProperty, ChunkedPrefillRandomQuantumInterleavings) {
  // Random quantum and chunk geometry per seed over an unbounded pool.
  for (uint64_t seed = 81; seed <= 84; ++seed) {
    const int quantum = 2 + static_cast<int>(seed % 7);
    const int chunk = static_cast<int>(seed % 3);  // 0 = block_tokens
    run_chunked_prefill_property(seed, base_opts(), quantum, chunk);
  }
}

TEST(KvPoolProperty, ChunkedPrefillBoundedPoolChurn) {
  // Tight capacity: chunked prefill, shed-forced preemption and radix
  // eviction all fight over 24 blocks.
  auto opts = base_opts();
  const size_t slab_bytes = static_cast<size_t>(opts.blocks_per_slab) *
                            KvCachePool(tiny(), opts).block_bytes();
  opts.max_bytes = 3 * slab_bytes;
  for (uint64_t seed = 91; seed <= 95; ++seed) {
    const int quantum = 3 + static_cast<int>(seed % 6);
    run_chunked_prefill_property(seed, opts, quantum, /*chunk_tokens=*/0);
  }
}

}  // namespace
}  // namespace turbo::genserve
