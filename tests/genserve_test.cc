#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/check.h"
#include "common/rng.h"
#include "genserve/generation_server.h"
#include "genserve/kv_cache_pool.h"
#include "genserve/multi_model_server.h"
#include "model/decoder.h"
#include "model/encoder.h"

namespace turbo::genserve {
namespace {

model::ModelConfig tiny() { return model::ModelConfig::tiny(2, 32, 2, 64, 50); }

KvPoolOptions small_pool() {
  KvPoolOptions o;
  o.block_tokens = 4;
  o.blocks_per_slab = 8;
  return o;
}

serving::GenerationRequest make_request(Rng& rng, int64_t id, int src_len,
                                        int max_new) {
  serving::GenerationRequest r;
  r.id = id;
  r.src_tokens = rng.token_ids(src_len, 50);
  r.max_new_tokens = max_new;
  r.bos_id = 1;
  r.eos_id = 2;
  return r;
}

// A prompt of `len` tokens starting at `first`: distinct `first`s (or
// lengths) give distinct prompts, so admits never share cross blocks.
std::vector<int> prompt_of(int len, int first = 3) {
  std::vector<int> p(static_cast<size_t>(len));
  for (int i = 0; i < len; ++i) p[static_cast<size_t>(i)] = first + i;
  return p;
}

// ---------------------------------------------------------------------------
// KvCachePool
// ---------------------------------------------------------------------------

TEST(KvCachePool, AdmitGrowReleaseAccounting) {
  KvCachePool pool(tiny(), small_pool());
  EXPECT_EQ(pool.bytes_in_use(), 0u);
  EXPECT_EQ(pool.active_sequences(), 0);

  // bt=4, L=2: s_src=6 -> 2 cross blocks/layer; admit materializes cross
  // + 1 self per layer.
  auto seq = pool.admit(7, prompt_of(6), /*max_new_tokens=*/8);
  EXPECT_EQ(pool.blocks_in_use(), 6u);
  EXPECT_EQ(pool.active_sequences(), 1);
  EXPECT_EQ(seq->capacity_tokens(), 4);

  // Growth within the first block is free; crossing the boundary adds one
  // block per layer.
  ASSERT_TRUE(pool.try_ensure_token(*seq, 3));
  EXPECT_EQ(pool.blocks_in_use(), 6u);
  ASSERT_TRUE(pool.try_ensure_token(*seq, 4));
  EXPECT_EQ(pool.blocks_in_use(), 8u);
  EXPECT_EQ(seq->capacity_tokens(), 8);
  pool.check_invariants();

  const size_t peak = pool.stats().peak_device_bytes;
  EXPECT_GT(peak, 0u);

  // Release: everything returns, empty slabs are freed, footprint drops.
  seq.reset();
  EXPECT_EQ(pool.blocks_in_use(), 0u);
  EXPECT_EQ(pool.active_sequences(), 0);
  EXPECT_EQ(pool.stats().current_device_bytes, 0u);
  EXPECT_EQ(pool.num_slabs(), 0);
  EXPECT_EQ(pool.stats().peak_device_bytes, peak);
}

TEST(KvCachePool, CapacityIsNeverExceeded) {
  KvPoolOptions opts = small_pool();
  KvCachePool probe(tiny(), small_pool());
  opts.max_bytes = 8 * probe.block_bytes();  // exactly one slab
  KvCachePool pool(tiny(), opts);

  // 4 cross + 2 self blocks now; growing past token 3 fills all 8.
  ASSERT_TRUE(pool.can_admit_now(prompt_of(6)));
  auto seq = pool.admit(1, prompt_of(6), 12);
  ASSERT_TRUE(pool.try_ensure_token(*seq, 7));
  EXPECT_EQ(pool.blocks_in_use(), 8u);
  EXPECT_FALSE(pool.can_admit_now(prompt_of(1)));
  EXPECT_THROW(pool.admit(2, prompt_of(1), 1), CheckError);
  // Growth past capacity fails without mutating anything.
  EXPECT_FALSE(pool.try_ensure_token(*seq, 8));
  EXPECT_EQ(pool.blocks_in_use(), 8u);
  EXPECT_EQ(seq->capacity_tokens(), 8);
  pool.check_invariants();

  seq.reset();
  EXPECT_TRUE(pool.can_admit_now(prompt_of(6)));
  auto seq2 = pool.admit(3, prompt_of(6), 8);
  EXPECT_LE(pool.stats().current_device_bytes, opts.max_bytes);
}

TEST(KvCachePool, SequencesDoNotAlias) {
  const auto config = tiny();
  KvCachePool pool(config, small_pool());
  auto a = pool.admit(1, prompt_of(5), 8);
  auto b = pool.admit(2, prompt_of(3), 8);

  const int H = config.hidden;
  for (int layer = 0; layer < config.num_layers; ++layer) {
    for (int t = 0; t < 8; ++t) {
      ASSERT_TRUE(pool.try_ensure_token(*a, t));
      ASSERT_TRUE(pool.try_ensure_token(*b, t));
      std::fill(a->self_k(layer, t), a->self_k(layer, t) + H, 1.0f);
      std::fill(b->self_k(layer, t), b->self_k(layer, t) + H, 2.0f);
      std::fill(a->self_v(layer, t), a->self_v(layer, t) + H, 3.0f);
      std::fill(b->self_v(layer, t), b->self_v(layer, t) + H, 4.0f);
    }
    for (int s = 0; s < a->src_len(); ++s) {
      std::fill(a->cross_k(layer, s), a->cross_k(layer, s) + H, 5.0f);
    }
    for (int s = 0; s < b->src_len(); ++s) {
      std::fill(b->cross_k(layer, s), b->cross_k(layer, s) + H, 6.0f);
    }
  }
  for (int layer = 0; layer < config.num_layers; ++layer) {
    for (int t = 0; t < 8; ++t) {
      EXPECT_EQ(a->self_k(layer, t)[0], 1.0f);
      EXPECT_EQ(b->self_k(layer, t)[H - 1], 2.0f);
      EXPECT_EQ(a->self_v(layer, t)[0], 3.0f);
      EXPECT_EQ(b->self_v(layer, t)[H - 1], 4.0f);
    }
    for (int s = 0; s < a->src_len(); ++s) {
      EXPECT_EQ(a->cross_k(layer, s)[0], 5.0f);
    }
    for (int s = 0; s < b->src_len(); ++s) {
      EXPECT_EQ(b->cross_k(layer, s)[0], 6.0f);
    }
  }
}

// ---------------------------------------------------------------------------
// Step decoding over pool caches matches whole-sentence greedy decode
// ---------------------------------------------------------------------------

TEST(StepDecoding, PooledGreedyMatchesBeamOneDecode) {
  const auto config = tiny();
  model::Seq2SeqDecoder decoder(config, 29);
  Rng rng(11);
  const int s_src = 7;
  const int max_new = 10;
  Tensor memory = Tensor::owned(Shape{s_src, config.hidden});
  rng.fill_normal(memory.data<float>(), static_cast<size_t>(memory.numel()),
                  0.0f, 1.0f);

  const auto reference = decoder.decode(memory, max_new, 1, 2, 1);

  KvCachePool pool(config, small_pool());
  auto kv = pool.admit(1, prompt_of(s_src), max_new);
  decoder.init_cross_attention(memory, *kv);

  std::vector<int> generated;
  int last = 1;  // BOS
  std::vector<float> logits(static_cast<size_t>(config.vocab));
  for (int t = 0; t < max_new; ++t) {
    ASSERT_TRUE(pool.try_ensure_token(*kv, t));
    decoder.step({{last, t, kv.get()}}, logits.data());
    const int token = static_cast<int>(
        std::max_element(logits.begin(), logits.end()) - logits.begin());
    if (token == 2) break;
    generated.push_back(token);
    last = token;
  }

  // reference.tokens = [BOS, content...]
  ASSERT_GE(reference.tokens.size(), 1u);
  const std::vector<int> ref_content(reference.tokens.begin() + 1,
                                     reference.tokens.end());
  EXPECT_EQ(generated, ref_content);
}

// ---------------------------------------------------------------------------
// GenerationScheduler invariants
// ---------------------------------------------------------------------------

TEST(GenerationScheduler, RespectsMaxActiveAndServesEveryoneOnce) {
  GenServerOptions options;
  options.pool = small_pool();
  options.scheduler.max_active = 2;
  GenerationServer server(make_bundle("model", 1, tiny(), 29), options);

  Rng rng(3);
  const int n = 6;
  for (int i = 0; i < n; ++i) {
    server.submit(make_request(rng, i, 3 + i, 6));
  }

  int max_seen_active = 0;
  server.set_step_observer([&](const StepStats& s) {
    max_seen_active = std::max(max_seen_active, s.active);
  });
  const auto responses = server.run_to_completion();

  EXPECT_LE(max_seen_active, 2);
  EXPECT_EQ(responses.size(), static_cast<size_t>(n));
  std::vector<int64_t> ids;
  for (const auto& r : responses) ids.push_back(r.request_id);
  std::sort(ids.begin(), ids.end());
  for (int i = 0; i < n; ++i) EXPECT_EQ(ids[static_cast<size_t>(i)], i);
  EXPECT_EQ(server.scheduler().total_enqueued(), static_cast<size_t>(n));
  EXPECT_EQ(server.scheduler().total_admitted(), static_cast<size_t>(n));
  EXPECT_EQ(server.scheduler().total_retired(), static_cast<size_t>(n));
  EXPECT_TRUE(server.idle());
  EXPECT_EQ(server.pool().active_sequences(), 0);
  EXPECT_EQ(server.pool().stats().current_device_bytes, 0u);
}

TEST(GenerationScheduler, PoolCapacityStagesAdmission) {
  GenServerOptions options;
  options.pool = small_pool();
  // One slab: exactly one (s_src<=4 ? cross 1 : 2, max_new 8) sequence.
  {
    KvCachePool probe(tiny(), small_pool());
    options.pool.max_bytes = 8 * probe.block_bytes();
  }
  options.scheduler.max_active = 4;
  GenerationServer server(make_bundle("model", 1, tiny(), 29), options);

  Rng rng(4);
  for (int i = 0; i < 3; ++i) server.submit(make_request(rng, i, 6, 8));

  int max_seen_active = 0;
  size_t max_device_bytes = 0;
  server.set_step_observer([&](const StepStats& s) {
    max_seen_active = std::max(max_seen_active, s.active);
    max_device_bytes = std::max(max_device_bytes, s.kv_device_bytes);
  });
  const auto responses = server.run_to_completion();
  EXPECT_EQ(responses.size(), 3u);
  EXPECT_EQ(max_seen_active, 1);  // capacity admits one at a time
  EXPECT_LE(max_device_bytes, options.pool.max_bytes);
}

TEST(GenerationScheduler, UnboundedPoolAdmitsUpToMaxActiveAndNeverPreempts) {
  // With neither max_bytes nor a bounded budget, max_blocks() is SIZE_MAX:
  // the current-demand gate always passes, so the first admit round takes
  // min(queued, max_active) and nothing is ever preempted — for seq2seq
  // and decoder-only bundles alike. This is why a deployment without a KV
  // cap schedules exactly as it did under worst-case admission.
  const model::ModelConfig configs[] = {
      tiny(), model::ModelConfig::tiny_causal(2, 32, 2, 64, 50)};
  for (const auto& config : configs) {
    for (const int queued : {3, 10}) {
      GenServerOptions options;
      options.pool = small_pool();
      options.scheduler.max_active = 6;
      GenerationServer server(make_bundle("model", 1, config, 29), options);
      Rng rng(17);
      for (int i = 0; i < queued; ++i) {
        server.submit(make_request(rng, i, 20 + i, 24));
      }
      std::vector<int> admitted;
      server.set_step_observer(
          [&](const StepStats& s) { admitted.push_back(s.admitted); });
      EXPECT_EQ(server.run_to_completion().size(),
                static_cast<size_t>(queued));
      ASSERT_FALSE(admitted.empty());
      EXPECT_EQ(admitted.front(), std::min(queued, 6))
          << "causal " << config.decoder_only << " queued " << queued;
      EXPECT_EQ(server.scheduler().total_preempted(), 0u);
      EXPECT_EQ(server.pool().max_blocks(),
                std::numeric_limits<size_t>::max());
    }
  }
}

// ---------------------------------------------------------------------------
// Iteration-level batching must not change any sequence's output
// ---------------------------------------------------------------------------

TEST(GenerationServer, BatchedResultsMatchSoloRuns) {
  const auto config = tiny();
  Rng rng(5);
  std::vector<serving::GenerationRequest> requests;
  for (int i = 0; i < 5; ++i) {
    requests.push_back(make_request(rng, i, 3 + 2 * i, 8));
  }

  // Solo: one server per request.
  std::map<int64_t, std::vector<int>> solo;
  for (const auto& r : requests) {
    GenServerOptions options;
    options.pool = small_pool();
    GenerationServer server(make_bundle("model", 1, config, 29), options);
    server.submit(r);
    const auto responses = server.run_to_completion();
    ASSERT_EQ(responses.size(), 1u);
    solo[r.id] = responses[0].tokens;
  }

  // Batched: all through one server with iteration-level batching.
  GenServerOptions options;
  options.pool = small_pool();
  options.scheduler.max_active = 3;
  GenerationServer server(make_bundle("model", 1, config, 29), options);
  for (const auto& r : requests) server.submit(r);
  const auto responses = server.run_to_completion();
  ASSERT_EQ(responses.size(), requests.size());
  for (const auto& resp : responses) {
    EXPECT_EQ(resp.tokens, solo[resp.request_id])
        << "request " << resp.request_id;
  }
}

TEST(GenerationServer, PrefixSharingDoesNotChangeOutputs) {
  // Requests repeating the same prompt take the sharing fast path (mapped
  // cross blocks, encoder skipped); their tokens must match a server with
  // sharing disabled exactly.
  const auto config = tiny();
  Rng rng(19);
  std::vector<serving::GenerationRequest> requests;
  const auto shared_src = rng.token_ids(9, 50);
  for (int i = 0; i < 6; ++i) {
    auto r = make_request(rng, i, 3 + i, 6);
    if (i % 2 == 0) r.src_tokens = shared_src;  // ids 0, 2, 4 share a prompt
    requests.push_back(std::move(r));
  }

  std::map<int64_t, std::vector<int>> reference;
  {
    GenServerOptions options;
    options.pool = small_pool();
    options.pool.enable_prefix_sharing = false;
    options.scheduler.max_active = 6;
    GenerationServer server(make_bundle("model", 1, config, 29), options);
    for (const auto& r : requests) server.submit(r);
    for (const auto& resp : server.run_to_completion()) {
      reference[resp.request_id] = resp.tokens;
    }
    EXPECT_EQ(server.pool().prefix_hits(), 0u);
  }

  GenServerOptions options;
  options.pool = small_pool();
  options.scheduler.max_active = 6;
  GenerationServer server(make_bundle("model", 1, config, 29), options);
  int shared_admits = 0;
  server.set_step_observer(
      [&](const StepStats& s) { shared_admits += s.admitted_shared; });
  for (const auto& r : requests) server.submit(r);
  const auto responses = server.run_to_completion();
  ASSERT_EQ(responses.size(), requests.size());
  for (const auto& resp : responses) {
    EXPECT_EQ(resp.tokens, reference[resp.request_id])
        << "request " << resp.request_id;
  }
  EXPECT_EQ(server.pool().prefix_hits(), 2u);  // requests 2 and 4
  EXPECT_EQ(shared_admits, 2);
  server.pool().check_invariants();
  EXPECT_EQ(server.pool().stats().current_device_bytes, 0u);
}

// ---------------------------------------------------------------------------
// The async shell over one bundle: end-to-end streaming
// ---------------------------------------------------------------------------

// AsyncMultiModelGenerationServer with a single bundle registered under
// `options` — the async shell of a single-model deployment.
std::unique_ptr<AsyncMultiModelGenerationServer> async_shell(
    const GenServerOptions& options) {
  auto server = std::make_unique<AsyncMultiModelGenerationServer>();
  server->register_bundle(make_bundle("model", 1, tiny(), 29), 0, options)
      .get();
  return server;
}

TEST(AsyncGenerationShell, StreamsAndResolvesConcurrentRequests) {
  GenServerOptions options;
  options.pool = small_pool();
  options.scheduler.max_active = 8;
  auto server = async_shell(options);

  struct Stream {
    std::vector<int> tokens;  // streamed content tokens (EOS excluded)
    std::vector<int> steps;
    int last_count = 0;
  };
  std::mutex stream_mutex;
  std::map<int64_t, Stream> streams;

  Rng rng(6);
  const int n = 10;
  std::vector<serving::GenerationRequest> requests;
  std::vector<std::future<serving::GenerationResponse>> futures;
  for (int i = 0; i < n; ++i) {
    requests.push_back(make_request(rng, i, 3 + (i % 5) * 2, 5 + (i % 3) * 3));
  }
  for (const auto& r : requests) {
    futures.push_back(server->submit(
        r, [&, eos = r.eos_id](int64_t id, int token, int step, bool last) {
          std::lock_guard<std::mutex> lock(stream_mutex);
          auto& s = streams[id];
          if (token != eos) s.tokens.push_back(token);
          s.steps.push_back(step);
          if (last) ++s.last_count;
        }));
  }

  for (int i = 0; i < n; ++i) {
    const auto resp = futures[static_cast<size_t>(i)].get();
    EXPECT_EQ(resp.request_id, i);
    EXPECT_GE(resp.steps, 1);
    EXPECT_LE(static_cast<int>(resp.tokens.size()),
              requests[static_cast<size_t>(i)].max_new_tokens);
    std::lock_guard<std::mutex> lock(stream_mutex);
    const auto& s = streams[i];
    // Streamed content tokens match the final response, in order, with
    // exactly one is_last and strictly increasing step indices.
    EXPECT_EQ(s.tokens, resp.tokens);
    EXPECT_EQ(s.last_count, 1);
    for (size_t k = 1; k < s.steps.size(); ++k) {
      EXPECT_EQ(s.steps[k], s.steps[k - 1] + 1);
    }
  }
  server->shutdown();
  EXPECT_EQ(server->served(), static_cast<size_t>(n));
  const auto stats = server->model_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].pool.active_sequences, 0);
  EXPECT_EQ(stats[0].pool.device_bytes, 0u);
  EXPECT_GT(stats[0].pool.peak_device_bytes, 0u);
}

TEST(AsyncGenerationShell, RejectsSubmitAfterShutdownAndDuplicateIds) {
  GenServerOptions options;
  options.pool = small_pool();
  auto server = async_shell(options);
  Rng rng(7);

  // Hold request 1 open (its first token callback blocks the worker) so
  // the duplicate submit below cannot race with its completion.
  std::promise<void> gate;
  std::shared_future<void> gate_future = gate.get_future().share();
  std::atomic<bool> gated{false};
  auto f1 = server->submit(make_request(rng, 1, 4, 4),
                           [&, gate_future](int64_t, int, int, bool) {
                             if (!gated.exchange(true)) gate_future.wait();
                           });
  EXPECT_THROW(server->submit(make_request(rng, 1, 4, 4)), CheckError);
  gate.set_value();
  f1.get();
  server->shutdown();
  EXPECT_THROW(server->submit(make_request(rng, 2, 4, 4)), CheckError);
}

TEST(AsyncGenerationShell, IsolatesABadRequestInItsOwnFuture) {
  // A request that could never be admitted (worst case 2*(2+10) = 24
  // blocks against an 8-block pool) and one with an out-of-vocab source
  // token are rejected through their own futures — validation runs on the
  // worker — without wedging the queue or touching the valid request
  // behind them, which resolves with the sync engine's tokens.
  GenServerOptions options;
  options.pool = small_pool();
  {
    KvCachePool probe(tiny(), small_pool());
    options.pool.max_bytes = 8 * probe.block_bytes();  // one slab = 8 blocks
  }
  Rng rng(8);
  const auto never = make_request(rng, 1, 6, 40);
  auto out_of_vocab = make_request(rng, 3, 4, 4);
  out_of_vocab.src_tokens[0] = 9999;
  const auto valid = make_request(rng, 2, 6, 8);

  GenerationServer reference(make_bundle("model", 1, tiny(), 29), options);
  reference.submit(valid);
  const auto expected = reference.run_to_completion();
  ASSERT_EQ(expected.size(), 1u);

  auto server = async_shell(options);
  auto f_never = server->submit(never);
  auto f_vocab = server->submit(std::move(out_of_vocab));
  auto f_valid = server->submit(valid);
  EXPECT_THROW(f_never.get(), CheckError);
  EXPECT_THROW(f_vocab.get(), CheckError);
  const auto resp = f_valid.get();
  EXPECT_EQ(resp.request_id, 2);
  EXPECT_EQ(resp.tokens, expected[0].tokens);
  server->shutdown();
  EXPECT_EQ(server->served(), 1u);
}

TEST(AsyncGenerationShell, OversubscribedPoolPreemptsWithoutGapsOrDuplicates) {
  // Concurrent submitters against a pool ~2x oversubscribed by worst-case
  // demand: the worker must preempt and requeue under load, yet every
  // request completes and every stream is gapless and duplicate-free.
  GenServerOptions options;
  options.pool = small_pool();
  {
    KvCachePool probe(tiny(), small_pool());
    options.pool.max_bytes = 3 * 8 * probe.block_bytes();  // 24 blocks
  }
  options.scheduler.max_active = 8;
  auto server = async_shell(options);

  struct Stream {
    std::vector<int> tokens;
    std::vector<int> steps;
    int last_count = 0;
  };
  std::mutex stream_mutex;
  std::map<int64_t, Stream> streams;

  Rng rng(23);
  const int threads = 4;
  const int per_thread = 4;
  std::vector<serving::GenerationRequest> requests;
  for (int i = 0; i < threads * per_thread; ++i) {
    // Worst case 10 blocks each (cross 4 + self 6): any 3 in flight
    // oversubscribe the 24-block pool.
    requests.push_back(make_request(rng, i, 5 + (i % 4), 9 + (i % 3)));
  }

  std::vector<std::future<serving::GenerationResponse>> futures(
      requests.size());
  std::vector<std::thread> submitters;
  for (int tid = 0; tid < threads; ++tid) {
    submitters.emplace_back([&, tid] {
      for (int k = 0; k < per_thread; ++k) {
        const size_t idx = static_cast<size_t>(tid * per_thread + k);
        futures[idx] = server->submit(
            requests[idx], [&, eos = requests[idx].eos_id](
                               int64_t id, int token, int step, bool last) {
              std::lock_guard<std::mutex> lock(stream_mutex);
              auto& s = streams[id];
              if (token != eos) s.tokens.push_back(token);
              s.steps.push_back(step);
              if (last) ++s.last_count;
            });
      }
    });
  }
  for (auto& t : submitters) t.join();

  for (size_t i = 0; i < futures.size(); ++i) {
    const auto resp = futures[i].get();  // every request completes
    EXPECT_EQ(resp.request_id, static_cast<int64_t>(i));
    std::lock_guard<std::mutex> lock(stream_mutex);
    const auto& s = streams[static_cast<int64_t>(i)];
    // No duplicates, no gaps across preemptions: step indices are exactly
    // 0,1,2,... and the streamed tokens equal the final response.
    EXPECT_EQ(s.tokens, resp.tokens);
    EXPECT_EQ(s.last_count, 1);
    for (size_t k = 0; k < s.steps.size(); ++k) {
      EXPECT_EQ(s.steps[k], static_cast<int>(k)) << "request " << i;
    }
  }
  server->shutdown();
  EXPECT_EQ(server->served(), requests.size());
  const auto stats = server->model_stats();
  ASSERT_EQ(stats.size(), 1u);
  const PoolSnapshot& snapshot = stats[0].pool;
  EXPECT_EQ(snapshot.active_sequences, 0);
  EXPECT_EQ(snapshot.device_bytes, 0u);
  EXPECT_GT(snapshot.preemptions, 0u)
      << "pool was not tight enough to force preemption";
  EXPECT_EQ(snapshot.preemptions, snapshot.resumes);
}

TEST(GenerationServer, ObservedCostsOverrideAnalyticAdmission) {
  // The admission gate must switch from the analytic warm-up to measured
  // costs: an optimistic table predicts everything fits the budget; after
  // synthetic observe() measurements report ~100x slower steps, the same
  // budget admits smaller batches.
  const double budget_ms = 1.0;
  auto run_burst = [&](bool warm) {
    GenServerOptions options;
    options.pool = small_pool();
    options.scheduler.max_active = 6;
    options.scheduler.max_step_cost_ms = budget_ms;
    // Analytic stand-in: ~0.1 ms per step at any batch — far under budget.
    options.cost_table = serving::CostTable::warmup(
        [](int len, int batch) {
          return 0.05 + 0.001 * batch + 0.0001 * len;
        },
        /*max_len=*/64, /*max_batch=*/8, /*len_step=*/8);
    // The server's own steps run in microseconds and would drag the table
    // back down; freeze it so the synthetic measurements decide alone.
    options.observe_step_costs = false;
    GenerationServer server(make_bundle("model", 1, tiny(), 29), options);
    if (warm) {
      // Synthetic fused-step measurements: big batches measured ~0.9 ms
      // per extra sequence. Repeated observations converge the EMA.
      for (int rep = 0; rep < 64; ++rep) {
        for (int batch = 1; batch <= 8; ++batch) {
          for (int len = 8; len <= 24; len += 8) {
            server.mutable_cost_table().observe(len, batch,
                                                0.2 + 0.9 * (batch - 1));
          }
        }
      }
    }
    Rng rng(12);
    for (int i = 0; i < 6; ++i) server.submit(make_request(rng, i, 4, 6));
    int max_seen_active = 0;
    server.set_step_observer([&](const StepStats& s) {
      max_seen_active = std::max(max_seen_active, s.active);
    });
    EXPECT_EQ(server.run_to_completion().size(), 6u);
    return max_seen_active;
  };

  const int analytic_batch = run_burst(/*warm=*/false);
  const int warmed_batch = run_burst(/*warm=*/true);
  EXPECT_EQ(analytic_batch, 6);  // analytic table: budget never binds
  // Warmed table: 0.2 + 0.9*(b-1) <= 1.0 ms admits at most batch 1.
  EXPECT_LT(warmed_batch, analytic_batch);
  EXPECT_EQ(warmed_batch, 1);
}

TEST(GenerationServer, StepLatencyFeedsCostTableObserve) {
  // With observe_step_costs on (the default), serving mutates the table:
  // real fused-step latencies replace the analytic stand-in.
  GenServerOptions options;
  options.pool = small_pool();
  options.scheduler.max_active = 4;
  // Absurd analytic warm-up (1 second per step) that measurements must
  // pull toward reality (microseconds).
  options.cost_table = serving::CostTable::warmup(
      [](int, int) { return 1000.0; }, /*max_len=*/64, /*max_batch=*/8,
      /*len_step=*/8);
  GenerationServer server(make_bundle("model", 1, tiny(), 29), options);
  const double before = server.cost_table().batch_cost_ms(16, 4);
  Rng rng(13);
  for (int i = 0; i < 8; ++i) server.submit(make_request(rng, i, 6, 8));
  server.run_to_completion();
  const double after = server.cost_table().batch_cost_ms(16, 4);
  EXPECT_EQ(before, 1000.0);
  EXPECT_LT(after, before);
}

TEST(GenerationScheduler, CostTableSmallerThanMaxActiveDoesNotAbort) {
  GenServerOptions options;
  options.pool = small_pool();
  options.scheduler.max_active = 4;
  options.scheduler.max_step_cost_ms = 1e9;  // budget on, never binding
  // Warm-up grid caps at batch 2 < max_active: admission must clamp the
  // lookup, not crash.
  options.cost_table = serving::CostTable::warmup(
      [](int len, int batch) { return 0.1 + 0.01 * len * batch; }, 64, 2, 8);
  GenerationServer server(make_bundle("model", 1, tiny(), 29), options);
  Rng rng(9);
  for (int i = 0; i < 6; ++i) server.submit(make_request(rng, i, 4, 4));
  int max_seen_active = 0;
  server.set_step_observer([&](const StepStats& s) {
    max_seen_active = std::max(max_seen_active, s.active);
  });
  EXPECT_EQ(server.run_to_completion().size(), 6u);
  EXPECT_EQ(max_seen_active, 4);
}

// ---------------------------------------------------------------------------
// Decoder-only serving over the radix tier
// ---------------------------------------------------------------------------

TEST(GenerationServer, DecoderOnlyRadixSharingDoesNotChangeOutputs) {
  // Causal requests sharing a block-aligned prompt prefix: the second wave
  // (after the first wave's retirements donated their rows) adopts cached
  // prefixes and skips their prefill steps — tokens must match a radix-off
  // server bit-exactly.
  const auto config = model::ModelConfig::tiny_causal(2, 32, 2, 64, 50);
  Rng rng(23);
  const auto system_prompt = rng.token_ids(12, 50);  // 3 blocks of 4
  std::vector<serving::GenerationRequest> wave1, wave2;
  for (int i = 0; i < 4; ++i) {
    serving::GenerationRequest r;
    r.id = i;
    r.src_tokens = system_prompt;
    const auto user = rng.token_ids(2 + i, 50);
    r.src_tokens.insert(r.src_tokens.end(), user.begin(), user.end());
    r.max_new_tokens = 5;
    r.bos_id = 1;
    r.eos_id = 2;
    wave1.push_back(r);
    r.id = 10 + i;
    wave2.push_back(std::move(r));
  }

  auto run = [&](bool radix) {
    GenServerOptions options;
    options.pool = small_pool();
    options.pool.enable_radix_tree = radix;
    options.scheduler.max_active = 4;
    GenerationServer server(make_bundle("model", 1, config, 29), options);
    std::map<int64_t, std::vector<int>> out;
    int prefilled = 0;
    server.set_step_observer(
        [&](const StepStats& s) { prefilled += s.prefilled; });
    for (const auto& r : wave1) server.submit(r);
    for (const auto& resp : server.run_to_completion()) {
      out[resp.request_id] = resp.tokens;
    }
    for (const auto& r : wave2) server.submit(r);
    for (const auto& resp : server.run_to_completion()) {
      out[resp.request_id] = resp.tokens;
    }
    if (radix) {
      // Wave 2 repeats wave-1 prompts exactly: each request adopts the
      // donated prefix instead of re-prefilling it.
      EXPECT_GE(server.pool().radix_hits(), wave2.size());
      EXPECT_GT(server.pool().radix_hit_rows(), 0u);
      // Only the donated cache tier is left, all of it evictable.
      EXPECT_EQ(server.pool().charged_blocks(), 0u);
      EXPECT_EQ(server.pool().blocks_in_use(),
                server.pool().radix_cached_blocks());
    } else {
      EXPECT_EQ(server.pool().radix_hits(), 0u);
      EXPECT_EQ(server.pool().stats().current_device_bytes, 0u);
    }
    server.pool().check_invariants();
    return std::make_pair(out, prefilled);
  };

  const auto off = run(false);
  const auto on = run(true);
  EXPECT_EQ(on.first, off.first);  // bit-identical token streams
  EXPECT_LT(on.second, off.second);  // adopted rows skipped prefill steps
}

TEST(GenerationServer, RadixTierMoreThanDoublesWarmTurnConcurrency) {
  // Multi-turn chat on a fixed pool: every conversation opens with the
  // same block-aligned system prompt, and each later turn's prompt is the
  // whole fed history plus fresh user tokens.
  // With the radix tier on, an admitted sequence adopts its cached prefix
  // (charged once across adopters) and retirees donate their blocks as an
  // uncharged cache tier; off, every sequence prefills every row into
  // private blocks, so the same pool holds far fewer sequences at once.
  constexpr int kSystemTokens = 256;  // 32 blocks of 8
  constexpr int kUserTokens = 8;
  constexpr int kConversations = 8;
  constexpr int kMaxNew = 6;
  const auto config = model::ModelConfig::tiny_causal(2, 64, 4, 128, 500);

  struct Run {
    std::vector<std::vector<int>> histories;  // fed tokens per conversation
    double warm_mean_active = 0.0;  // mean active per step, final turn
  };
  const auto run = [&](bool radix) {
    GenServerOptions options;
    options.pool.block_tokens = 8;
    options.pool.blocks_per_slab = 4;
    options.pool.max_bytes = 128ull * 8 * config.hidden * 2 * sizeof(float);
    options.pool.enable_radix_tree = radix;
    options.scheduler.max_active = 32;
    GenerationServer server(make_bundle("model", 1, config, 29), options);
    size_t active_sum = 0;
    size_t steps = 0;
    server.set_step_observer([&](const StepStats& s) {
      if (s.active == 0) return;
      active_sum += static_cast<size_t>(s.active);
      ++steps;
    });

    Rng rng(0xC4A7);
    const auto system_prompt = rng.token_ids(kSystemTokens, 500);
    Run r;
    r.histories.assign(kConversations, system_prompt);
    for (int turn = 0; turn < 2; ++turn) {
      for (auto& h : r.histories) {
        const auto user = rng.token_ids(kUserTokens, 500);
        h.insert(h.end(), user.begin(), user.end());
      }
      for (auto& req : bench::chat_turn_requests(r.histories, turn, kMaxNew)) {
        server.submit(std::move(req));
      }
      active_sum = 0;
      steps = 0;
      for (const auto& resp : server.run_to_completion()) {
        auto& h = r.histories[static_cast<size_t>(resp.request_id % 100)];
        h.insert(h.end(), resp.tokens.begin(), resp.tokens.end());
      }
    }
    r.warm_mean_active =
        static_cast<double>(active_sum) / static_cast<double>(steps);
    EXPECT_EQ(server.pool().radix_hits() > 0, radix);
    server.pool().check_invariants();
    return r;
  };

  const Run off = run(false);
  const Run on = run(true);
  EXPECT_EQ(on.histories, off.histories);  // adoption is bit-exact
  EXPECT_GT(on.warm_mean_active, 2.0 * off.warm_mean_active)
      << "radix on " << on.warm_mean_active << " vs off "
      << off.warm_mean_active;
}

// ---------------------------------------------------------------------------
// Chunked prefill bit-identity (packed token quantum vs one row per step)
// ---------------------------------------------------------------------------

// Each request served alone at step_token_quantum = 1 on an unbounded
// pool: one row per step, no batching, no preemption — the per-token
// order the packed, batched and preempting runs must reproduce.
// StepDecoding.PooledGreedyMatchesBeamOneDecode ties this path to the
// dense decode().
std::map<int64_t, std::vector<int>> one_row_solo_reference(
    const model::ModelConfig& config,
    const std::vector<serving::GenerationRequest>& requests) {
  std::map<int64_t, std::vector<int>> out;
  for (const auto& r : requests) {
    GenServerOptions options;
    options.pool = small_pool();
    options.scheduler.step_token_quantum = 1;
    GenerationServer server(make_bundle("model", 1, config, 29), options);
    server.submit(r);
    const auto responses = server.run_to_completion();
    TT_CHECK_EQ(responses.size(), 1u);
    TT_CHECK_EQ(server.scheduler().total_preempted(), 0u);
    out[r.id] = responses[0].tokens;
  }
  return out;
}

TEST(GenerationServer, ChunkedPrefillBitIdenticalSeq2Seq) {
  // Quantum stepping reorders work — deferred whole-prompt encode jobs,
  // mixed decode batches, preempt-and-requeue under an oversubscribed
  // pool — but every request's token stream must match the one-row solo
  // reference bit-exactly. Two requests share a prompt so the follower
  // waits on the creator's deferred encode (cross_ready).
  const auto config = tiny();
  Rng rng(47);
  std::vector<serving::GenerationRequest> requests;
  const auto shared_src = rng.token_ids(7, 50);
  for (int i = 0; i < 6; ++i) {
    auto r = make_request(rng, i, 3 + i, 10);
    if (i == 1 || i == 4) r.src_tokens = shared_src;
    requests.push_back(std::move(r));
  }

  GenServerOptions options;
  options.pool = small_pool();
  {
    KvCachePool probe(tiny(), small_pool());
    options.pool.max_bytes = 16 * probe.block_bytes();  // 2 slabs
  }
  options.scheduler.max_active = 6;
  options.scheduler.step_token_quantum = 4;
  GenerationServer server(make_bundle("model", 1, config, 29), options);
  for (const auto& r : requests) server.submit(r);
  std::map<int64_t, std::vector<int>> out;
  for (auto& resp : server.run_to_completion()) {
    out[resp.request_id] = std::move(resp.tokens);
  }
  server.pool().check_invariants();
  EXPECT_EQ(server.pool().stats().current_device_bytes, 0u);

  ASSERT_EQ(out.size(), requests.size());
  EXPECT_EQ(out, one_row_solo_reference(config, requests));
  EXPECT_GT(server.pool_snapshot().preemptions, 0u)
      << "pool was not tight enough to preempt";
}

TEST(GenerationServer, ChunkedPrefillBitIdenticalCausalWithMidPrefillPreempt) {
  // Decoder-only: four 16-token prompts against a 16-block pool. Chunked
  // prefill races all four prompts through the pool at once, so at least
  // one sequence is preempted before its prompt finishes feeding (a
  // kPreempt event with zero parked tokens) and must resume mid-prefill —
  // outputs still match the one-prompt-token-per-step solo reference
  // bit-exactly.
  const auto config = model::ModelConfig::tiny_causal(2, 32, 2, 64, 50);
  Rng rng(53);
  std::vector<serving::GenerationRequest> requests;
  for (int i = 0; i < 4; ++i) {
    requests.push_back(make_request(rng, i, 16, 6));
  }

  GenServerOptions options;
  options.pool = small_pool();
  {
    KvCachePool probe(config, small_pool());
    options.pool.max_bytes = 16 * probe.block_bytes();
  }
  options.scheduler.max_active = 4;
  options.scheduler.step_token_quantum = 6;
  options.trace.enabled = true;
  GenerationServer server(make_bundle("model", 1, config, 29), options);
  for (const auto& r : requests) server.submit(r);
  std::map<int64_t, std::vector<int>> out;
  for (auto& resp : server.run_to_completion()) {
    out[resp.request_id] = std::move(resp.tokens);
  }
  bool mid_prefill_preempt = false;
  for (const auto& span : server.trace_spans()) {
    if (span.kind == obs::SpanKind::kPreempt && span.tokens == 0) {
      mid_prefill_preempt = true;
    }
  }
  server.pool().check_invariants();

  ASSERT_EQ(out.size(), requests.size());
  EXPECT_EQ(out, one_row_solo_reference(config, requests));
  EXPECT_TRUE(mid_prefill_preempt) << "no sequence was preempted mid-prefill";
}

TEST(KvCachePool, PromptHashCollisionsNeverShare) {
  // Force every prompt onto one hash bucket: sharing decisions must fall
  // back to full token equality, so distinct prompts stay unshared and
  // identical prompts still share.
  const auto config = tiny();
  auto opts = small_pool();
  opts.prompt_hash_override = [](const std::vector<int>&) -> uint64_t {
    return 7;
  };
  KvCachePool pool(config, opts);
  Rng rng(31);
  const auto prompt_a = rng.token_ids(8, 50);
  auto prompt_b = prompt_a;
  prompt_b.back() += 1;  // same length, same forced hash, different tokens

  auto a = pool.admit(1, prompt_a, 4);
  EXPECT_TRUE(a->needs_cross_init());
  auto b = pool.admit(2, prompt_b, 4);
  EXPECT_TRUE(b->needs_cross_init()) << "collision must not map b onto a's "
                                        "cross blocks";
  EXPECT_EQ(pool.prefix_hits(), 0u);
  EXPECT_NE(a->cross_k(0, 0), b->cross_k(0, 0));
  a->mark_cross_ready();
  b->mark_cross_ready();

  auto c = pool.admit(3, prompt_a, 4);  // true repeat still shares
  EXPECT_FALSE(c->needs_cross_init());
  EXPECT_EQ(pool.prefix_hits(), 1u);
  EXPECT_EQ(a->cross_k(0, 0), c->cross_k(0, 0));
  pool.check_invariants();
}

TEST(GenerationScheduler, RejectsNegativeRequestIds) {
  // Negative span seqs mark engine-level phase spans in traces, so a
  // request id must be non-negative to keep its spans sequence-level.
  GenServerOptions options;
  options.pool = small_pool();
  GenerationServer server(make_bundle("model", 1, tiny(), 29), options);
  Rng rng(3);
  auto r = make_request(rng, -1, 4, 4);
  EXPECT_THROW(server.submit(r), CheckError);
}

}  // namespace
}  // namespace turbo::genserve
