// Deterministic preempt-and-requeue scenarios for current-demand
// admission.
//
// The contract under test: preemption is invisible to results. A victim
// surrenders its unshared self blocks (prompt-shared cross blocks and
// adopted radix prefixes stay resident through their other holders), parks
// its generated tokens,
// and on resume re-derives them bit-identically — same tokens, same
// logits — because the cross K/V never left the pool and the decoder is
// deterministic. KvCachePool::check_invariants() runs after every event.
// An oversubscribed 48-request burst also checks that a pool whose
// requests' summed worst case far exceeds its capacity still serves every
// request
// bit-identically, and that a traced preempting run changes nothing and
// attributes >= 95% of its step time to phases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "common/check.h"
#include "common/rng.h"
#include "genserve/generation_server.h"
#include "genserve/kv_cache_pool.h"
#include "model/decoder.h"
#include "obs/passes.h"
#include "obs/trace_io.h"

namespace turbo::genserve {
namespace {

model::ModelConfig tiny() { return model::ModelConfig::tiny(2, 32, 2, 64, 50); }

KvPoolOptions small_pool() {
  KvPoolOptions o;
  o.block_tokens = 4;
  o.blocks_per_slab = 8;
  return o;
}

size_t pool_block_bytes() {
  return KvCachePool(tiny(), small_pool()).block_bytes();
}

float row_value(int marker, int t) {
  return static_cast<float>(marker) * 100.0f + static_cast<float>(t);
}

void write_row(const model::ModelConfig& config, SequenceKv& kv, int marker,
               int t) {
  for (int layer = 0; layer < config.num_layers; ++layer) {
    std::fill_n(kv.self_k(layer, t), config.hidden, row_value(marker, t));
    std::fill_n(kv.self_v(layer, t), config.hidden,
                row_value(marker, t) + 0.5f);
  }
}

void expect_rows(const model::ModelConfig& config, SequenceKv& kv, int marker,
                 int rows) {
  for (int layer = 0; layer < config.num_layers; ++layer) {
    for (int t = 0; t < rows; ++t) {
      ASSERT_EQ(kv.self_k(layer, t)[0], row_value(marker, t))
          << "seq " << kv.id() << " layer " << layer << " row " << t;
      ASSERT_EQ(kv.self_v(layer, t)[config.hidden - 1],
                row_value(marker, t) + 0.5f);
    }
  }
}

void init_cross(const model::ModelConfig& config, SequenceKv& kv,
                float value) {
  for (int layer = 0; layer < config.num_layers; ++layer) {
    for (int s = 0; s < kv.src_len(); ++s) {
      std::fill_n(kv.cross_k(layer, s), config.hidden, value);
      std::fill_n(kv.cross_v(layer, s), config.hidden, value);
    }
  }
  if (kv.needs_cross_init()) kv.mark_cross_ready();
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

// ---------------------------------------------------------------------------
// Pool-level lifecycle
// ---------------------------------------------------------------------------

TEST(Preemption, SingleVictimReleasesBlocksAndResumesExactly) {
  const auto config = tiny();
  auto opts = small_pool();
  opts.max_bytes = 2 * 8 * pool_block_bytes();  // 16 blocks
  KvCachePool pool(config, opts);
  Rng rng(31);

  // Two admits: current demand (2 cross blocks x 2 layers +
  // 1 self block x 2 layers = 6 each) fits; the summed worst case
  // (blocks_for: 10 + 8 = 18) oversubscribes the 16-block pool.
  const auto prompt_a = rng.token_ids(6, 50);
  const auto prompt_b = rng.token_ids(7, 50);
  auto a = pool.admit(1, prompt_a, 12);
  auto b = pool.admit(2, prompt_b, 8);
  init_cross(config, *a, 10.0f);
  init_cross(config, *b, 20.0f);
  pool.check_invariants();
  EXPECT_EQ(pool.blocks_in_use(), 12u);
  EXPECT_GT(pool.blocks_for(6, 12) + pool.blocks_for(7, 8),
            pool.max_blocks());  // oversubscribed

  // a grows to 9 rows (two block-boundary crossings: 12 -> 14 -> 16).
  int a_rows = 0;
  for (int t = 0; t < 9; ++t, ++a_rows) {
    ASSERT_TRUE(pool.try_ensure_token(*a, t));
    write_row(config, *a, 1, t);
  }
  int b_rows = 0;
  for (int t = 0; t < 4; ++t, ++b_rows) {
    ASSERT_TRUE(pool.try_ensure_token(*b, t));
    write_row(config, *b, 2, t);
  }
  pool.check_invariants();
  EXPECT_EQ(pool.blocks_in_use(), 16u);

  // b's next row needs a block per layer: the pool is exhausted, and the
  // failed grow must mutate nothing.
  EXPECT_FALSE(pool.try_ensure_token(*b, 4));
  pool.check_invariants();
  expect_rows(config, *b, 2, b_rows);

  // Preempt b: its 2 self blocks return, its cross share stays resident.
  pool.preempt(*b);
  pool.check_invariants();
  EXPECT_TRUE(b->parked());
  EXPECT_EQ(pool.parked_sequences(), 1);
  EXPECT_EQ(pool.blocks_in_use(), 14u);
  EXPECT_EQ(pool.preemptions(), 1u);
  EXPECT_EQ(pool.stats().preempt_freed_bytes, 2 * pool.block_bytes());
  // b's cross rows are still readable (the share never moved).
  EXPECT_EQ(b->cross_k(0, 0)[0], 20.0f);

  // a keeps decoding through the capacity b released.
  for (int t = 9; t < 12; ++t, ++a_rows) {
    ASSERT_TRUE(pool.try_ensure_token(*a, t));
    write_row(config, *a, 1, t);
  }
  pool.check_invariants();

  // a retires; b resumes and replays its rows past the old blocker.
  a.reset();
  pool.check_invariants();
  ASSERT_TRUE(pool.can_resume(*b));
  pool.resume(*b);
  pool.check_invariants();
  EXPECT_FALSE(b->parked());
  EXPECT_EQ(pool.resumes(), 1u);
  for (int t = 0; t <= b_rows; ++t) {
    ASSERT_TRUE(pool.try_ensure_token(*b, t));
    write_row(config, *b, 2, t);
  }
  ++b_rows;
  pool.check_invariants();
  expect_rows(config, *b, 2, b_rows);
  EXPECT_EQ(b->cross_k(1, b->src_len() - 1)[0], 20.0f);

  b.reset();
  pool.check_invariants();
  EXPECT_EQ(pool.blocks_in_use(), 0u);
  EXPECT_EQ(pool.stats().current_device_bytes, 0u);
}

TEST(Preemption, SharedPrefixVictimKeepsCrossBlocksResident) {
  const auto config = tiny();
  KvCachePool pool(config, small_pool());
  Rng rng(35);
  const auto prompt = rng.token_ids(8, 50);

  auto a = pool.admit(1, prompt, 6);
  init_cross(config, *a, 7.0f);
  auto b = pool.admit(2, prompt, 6);
  EXPECT_FALSE(b->needs_cross_init());
  EXPECT_EQ(pool.prefix_hits(), 1u);
  pool.check_invariants();

  const size_t cross_blocks =
      static_cast<size_t>(config.num_layers) * 2;  // ceil(8/4) per layer

  // Preempt b, then a: the share must survive both because the parked
  // handles keep their references.
  pool.preempt(*b);
  pool.check_invariants();
  pool.preempt(*a);
  pool.check_invariants();
  EXPECT_EQ(pool.parked_sequences(), 2);
  EXPECT_EQ(pool.blocks_in_use(), cross_blocks);  // only the shared cross
  EXPECT_EQ(a->cross_k(0, 0)[0], 7.0f);
  EXPECT_EQ(b->cross_k(1, 7)[0], 7.0f);

  // Both resume without re-encoding (the share is still ready).
  pool.resume(*a);
  pool.resume(*b);
  pool.check_invariants();
  EXPECT_FALSE(a->needs_cross_init());
  EXPECT_FALSE(b->needs_cross_init());
  EXPECT_EQ(b->cross_k(0, 3)[0], 7.0f);

  a.reset();
  b.reset();
  pool.check_invariants();
  EXPECT_EQ(pool.blocks_in_use(), 0u);
  EXPECT_EQ(pool.stats().current_device_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Bit-identity: replayed steps reproduce the exact logits
// ---------------------------------------------------------------------------

TEST(Preemption, ResumeReplayLogitsMatchUncontendedRunBitwise) {
  const auto config = tiny();
  model::Seq2SeqDecoder decoder(config, 29);
  Rng rng(37);
  const int s_src = 6;
  const int max_new = 10;
  Tensor memory = Tensor::owned(Shape{s_src, config.hidden});
  rng.fill_normal(memory.data<float>(), static_cast<size_t>(memory.numel()),
                  0.0f, 1.0f);

  KvCachePool pool(config, small_pool());
  auto kv = pool.admit(1, rng.token_ids(s_src, 50), max_new);
  decoder.init_cross_attention(memory, *kv);
  kv->mark_cross_ready();

  // Uncontended pass: record every step's logits and greedy tokens.
  const int vocab = config.vocab;
  std::vector<std::vector<float>> reference;
  std::vector<int> tokens;
  std::vector<float> logits(static_cast<size_t>(vocab));
  int last = 1;
  const int steps = 6;
  for (int t = 0; t < steps; ++t) {
    ASSERT_TRUE(pool.try_ensure_token(*kv, t));
    decoder.step({{last, t, kv.get()}}, logits.data());
    reference.push_back(logits);
    last = static_cast<int>(
        std::max_element(logits.begin(), logits.end()) - logits.begin());
    tokens.push_back(last);
  }

  // Preempt, resume, replay: every replayed step must reproduce the
  // recorded logits bit for bit (cross K/V never left the pool; self rows
  // are a deterministic function of the replayed tokens).
  pool.preempt(*kv);
  pool.check_invariants();
  pool.resume(*kv);
  pool.check_invariants();
  last = 1;
  for (int t = 0; t < steps; ++t) {
    ASSERT_TRUE(pool.try_ensure_token(*kv, t));
    decoder.step({{last, t, kv.get()}}, logits.data());
    for (int i = 0; i < vocab; ++i) {
      ASSERT_EQ(logits[static_cast<size_t>(i)],
                reference[static_cast<size_t>(t)][static_cast<size_t>(i)])
          << "replayed step " << t << " logit " << i;
    }
    last = static_cast<int>(
        std::max_element(logits.begin(), logits.end()) - logits.begin());
    ASSERT_EQ(last, tokens[static_cast<size_t>(t)]);
  }
  kv.reset();
  pool.check_invariants();
}

// ---------------------------------------------------------------------------
// Server-level: preemption is invisible in results and streams
// ---------------------------------------------------------------------------

struct StreamLog {
  std::vector<int> tokens;  // streamed content tokens (EOS excluded)
  std::vector<int> steps;   // streamed step indices
  int last_count = 0;
};

std::map<int64_t, std::vector<int>> run_reference(
    const model::ModelConfig& config,
    const std::vector<serving::GenerationRequest>& requests) {
  GenServerOptions options;
  options.pool = small_pool();  // unbounded: never preempts
  options.scheduler.max_active = 8;
  GenerationServer server(make_bundle("model", 1, config, 29), options);
  for (const auto& r : requests) server.submit(r);
  std::map<int64_t, std::vector<int>> out;
  for (const auto& resp : server.run_to_completion()) {
    out[resp.request_id] = resp.tokens;
  }
  TT_CHECK_EQ(server.scheduler().total_preempted(), 0u);
  return out;
}

TEST(Preemption, ServerPreemptsAndMatchesUncontendedRunExactly) {
  const auto config = tiny();
  Rng rng(41);
  std::vector<serving::GenerationRequest> requests;
  for (int i = 0; i < 4; ++i) {
    requests.push_back(make_request(rng, i, 5 + i, 10));
  }
  const auto reference = run_reference(config, requests);

  GenServerOptions options;
  options.pool = small_pool();
  options.pool.max_bytes = 3 * 8 * pool_block_bytes();  // 24 blocks, tight
  options.scheduler.max_active = 8;
  GenerationServer server(make_bundle("model", 1, config, 29), options);

  std::map<int64_t, StreamLog> streams;
  for (const auto& r : requests) {
    server.submit(r, [&, eos = r.eos_id](int64_t id, int token, int step,
                                         bool last) {
      auto& s = streams[id];
      if (token != eos) s.tokens.push_back(token);
      s.steps.push_back(step);
      if (last) ++s.last_count;
    });
  }
  // check_invariants() after every event: one observer call per iteration
  // covers every admit / grow / preempt / resume / retire in it.
  int preempted = 0;
  server.set_step_observer([&](const StepStats& s) {
    preempted += s.preempted;
    server.pool().check_invariants();
    EXPECT_LE(server.pool().blocks_in_use(), server.pool().max_blocks());
  });
  const auto responses = server.run_to_completion();

  ASSERT_EQ(responses.size(), requests.size());
  EXPECT_GT(preempted, 0) << "pool was not tight enough to force preemption";
  EXPECT_EQ(static_cast<size_t>(preempted),
            server.scheduler().total_preempted());
  EXPECT_EQ(server.scheduler().total_resumed(),
            server.scheduler().total_preempted());
  for (const auto& resp : responses) {
    EXPECT_EQ(resp.tokens, reference.at(resp.request_id))
        << "request " << resp.request_id;
    // Streaming continuity: no duplicates, no gaps, one is_last.
    const auto& s = streams[resp.request_id];
    EXPECT_EQ(s.tokens, resp.tokens);
    EXPECT_EQ(s.last_count, 1);
    for (size_t k = 0; k < s.steps.size(); ++k) {
      EXPECT_EQ(s.steps[k], static_cast<int>(k))
          << "request " << resp.request_id;
    }
  }
  EXPECT_TRUE(server.idle());
  EXPECT_EQ(server.pool().active_sequences(), 0);
  EXPECT_EQ(server.pool().stats().current_device_bytes, 0u);
}

TEST(Preemption, CascadingPreemptionStillServesEveryoneIdentically) {
  // A pool so tight that growing one sequence preempts several victims in
  // a cascade (and may evict parked cross shares entirely).
  const auto config = tiny();
  Rng rng(43);
  std::vector<serving::GenerationRequest> requests;
  for (int i = 0; i < 6; ++i) {
    requests.push_back(make_request(rng, i, 4 + (i % 3), 12));
  }
  const auto reference = run_reference(config, requests);

  GenServerOptions options;
  options.pool = small_pool();
  options.pool.max_bytes = 2 * 8 * pool_block_bytes();  // 16 blocks, brutal
  options.scheduler.max_active = 6;
  GenerationServer server(make_bundle("model", 1, config, 29), options);
  for (const auto& r : requests) server.submit(r);

  int max_preempted_in_one_step = 0;
  server.set_step_observer([&](const StepStats& s) {
    max_preempted_in_one_step = std::max(max_preempted_in_one_step,
                                         s.preempted);
    server.pool().check_invariants();
  });
  const auto responses = server.run_to_completion();
  ASSERT_EQ(responses.size(), requests.size());
  EXPECT_GE(server.scheduler().total_preempted(), 2u);
  for (const auto& resp : responses) {
    EXPECT_EQ(resp.tokens, reference.at(resp.request_id))
        << "request " << resp.request_id;
  }
  EXPECT_EQ(server.pool().stats().current_device_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Oversubscribed burst: summed worst case far past capacity, served exactly
// ---------------------------------------------------------------------------

// 48 requests whose output budget (64 tokens, their worst case) far
// exceeds what they generate: each request's
// EOS is a token its own uncontended greedy trajectory emits near a drawn
// position in 8..24, so "stops early" is identical in every run,
// preempted or not. The pool holds 32 blocks: one request's worst case
// (~18-20 blocks) fits, two never do.
struct OversubscribedBurst {
  model::ModelConfig config = model::ModelConfig::tiny(2, 64, 4, 128, 500);
  std::vector<serving::GenerationRequest> requests;
  // Unbounded pool: never preempts.
  std::map<int64_t, std::vector<int>> reference;
  size_t max_bytes = 0;
};

GenServerOptions burst_options(size_t max_bytes) {
  GenServerOptions o;
  o.pool.block_tokens = 8;
  o.pool.blocks_per_slab = 8;
  o.pool.max_bytes = max_bytes;
  o.scheduler.max_active = 8;
  return o;
}

std::map<int64_t, std::vector<int>> run_unbounded(
    const model::ModelConfig& config,
    const std::vector<serving::GenerationRequest>& requests) {
  GenerationServer server(make_bundle("model", 1, config, 29),
                          burst_options(0));
  for (const auto& r : requests) server.submit(r);
  std::map<int64_t, std::vector<int>> out;
  for (auto& resp : server.run_to_completion()) {
    out[resp.request_id] = std::move(resp.tokens);
  }
  TT_CHECK_EQ(server.scheduler().total_preempted(), 0u);
  return out;
}

const OversubscribedBurst& oversubscribed_burst() {
  static const OversubscribedBurst burst = [] {
    OversubscribedBurst b;
    Rng rng(0xFA57);
    for (int i = 0; i < 48; ++i) {
      serving::GenerationRequest r;
      r.id = i;
      r.src_tokens =
          rng.token_ids(static_cast<int>(rng.uniform_int(6, 16)), 500);
      r.max_new_tokens = 64;
      r.eos_id = 2;  // never fires in the random-weight model
      b.requests.push_back(std::move(r));
    }
    bench::assign_natural_eos(b.requests,
                              run_unbounded(b.config, b.requests), rng, 8,
                              24);
    b.reference = run_unbounded(b.config, b.requests);
    b.max_bytes =
        32 * KvCachePool(b.config, burst_options(0).pool).block_bytes();
    return b;
  }();
  return burst;
}

TEST(Preemption, OversubscribedBurstPreemptsAndMatchesUnboundedRun) {
  // Admission charges only today's blocks, so the step batch packs a pool
  // whose worst cases oversubscribe it; the run pays with preemptions
  // whose replays change no token.
  const auto& burst = oversubscribed_burst();
  KvCachePool probe(burst.config, burst_options(0).pool);
  size_t step_batch_worst = 0;  // worst case of a full eight-deep batch
  for (int i = 0; i < 8; ++i) {
    const auto& r = burst.requests[static_cast<size_t>(i)];
    step_batch_worst += probe.blocks_for(static_cast<int>(r.src_tokens.size()),
                                         r.max_new_tokens);
  }
  const size_t pool_blocks = burst.max_bytes / probe.block_bytes();
  EXPECT_GE(static_cast<double>(step_batch_worst),
            1.5 * static_cast<double>(pool_blocks))
      << "the workload no longer oversubscribes the pool";

  GenerationServer server(make_bundle("model", 1, burst.config, 29),
                          burst_options(burst.max_bytes));
  for (const auto& r : burst.requests) server.submit(r);
  const auto responses = server.run_to_completion();
  EXPECT_EQ(responses.size(), burst.requests.size());
  for (const auto& resp : responses) {
    EXPECT_EQ(resp.tokens, burst.reference.at(resp.request_id))
        << "request " << resp.request_id;
  }
  EXPECT_GT(server.scheduler().total_preempted(), 0u)
      << "the contention was not real";
  EXPECT_EQ(server.pool().stats().current_device_bytes, 0u);
}

TEST(Preemption, TracedPreemptingRunChangesNothingAndAttributesItsSteps) {
  // Tracing is a pure observer even while sequences are preempted and
  // replayed: same tokens, same schedule. The offline phase attribution
  // must explain >= 95% of the summed step wall-time; that is a ratio of
  // one clock against itself, so it holds on any machine. With
  // TURBO_TRACE_OUT set the spans are written there for
  // tools/trace_report.
  const auto& burst = oversubscribed_burst();
  const auto run = [&](bool traced) {
    auto options = burst_options(burst.max_bytes);
    options.trace.enabled = traced;
    auto server = std::make_unique<GenerationServer>(
        make_bundle("model", 1, burst.config, 29), options);
    for (const auto& r : burst.requests) server->submit(r);
    for (const auto& resp : server->run_to_completion()) {
      EXPECT_EQ(resp.tokens, burst.reference.at(resp.request_id))
          << "request " << resp.request_id << " traced " << traced;
    }
    return server;
  };
  const auto untraced = run(false);
  const auto traced = run(true);
  EXPECT_GT(traced->scheduler().total_preempted(), 0u);
  EXPECT_EQ(traced->scheduler().total_preempted(),
            untraced->scheduler().total_preempted());
  EXPECT_EQ(traced->iterations(), untraced->iterations());

  const std::vector<obs::TraceSpan> spans = traced->trace_spans();
  EXPECT_EQ(traced->trace_ring()->dropped(), 0u);
  const obs::PhaseAttribution attr = obs::attribute_phases(spans);
  EXPECT_EQ(attr.iterations, static_cast<size_t>(traced->iterations()));
  EXPECT_GE(attr.coverage, 0.95);
  if (const char* out = std::getenv("TURBO_TRACE_OUT")) {
    obs::write_trace_file(out, spans);
  }
}

// ---------------------------------------------------------------------------
// Victim policies
// ---------------------------------------------------------------------------

// Drives a scheduler directly (no decoder): admit three sequences, fill
// the pool, and check who gets parked when the requester grows.
class VictimPolicyTest : public ::testing::Test {
 protected:
  void run(GenSchedulerOptions scheduler_opts,
           const std::vector<int>& priorities, int64_t expected_victim) {
    const auto config = tiny();
    auto pool_opts = small_pool();
    pool_opts.max_bytes = 2 * 8 * pool_block_bytes();  // 16 blocks
    KvCachePool pool(config, pool_opts);
    auto costs = serving::CostTable::warmup(
        [](int len, int batch) { return 0.1 + 0.01 * len * batch; }, 64, 8, 8);
    scheduler_opts.max_active = 3;
    GenerationScheduler scheduler(&pool, &costs, scheduler_opts);

    // Three admits at 4 blocks each (12, plus admission growth headroom
    // fills out the 16-block pool). Only the FIRST sequence decodes:
    // its third block-boundary crossing exhausts the pool with the oldest
    // sequence as the requester, so victim eligibility (sequences the
    // requester outranks) covers both of the others.
    Rng rng(45);
    for (size_t i = 0; i < priorities.size(); ++i) {
      auto r = make_request(rng, static_cast<int64_t>(i), 4, i == 0 ? 16 : 12);
      r.priority = priorities[i];
      scheduler.enqueue(std::move(r));
    }
    const auto admitted = scheduler.admit(0.0);
    ASSERT_EQ(admitted.size(), priorities.size());
    for (ActiveSequence* seq : admitted) {
      if (seq->kv->needs_cross_init()) seq->kv->mark_cross_ready();
    }
    // Advance only sequence 0 until its growth preempts someone.
    while (scheduler.total_preempted() == 0) {
      const auto plan = scheduler.prepare_step();
      ASSERT_FALSE(plan.stepping.empty());
      for (ActiveSequence* seq : plan.stepping) {
        if (seq->request.id != 0) continue;
        ++seq->step;
        seq->tokens.push_back(3);  // park something replayable
        ASSERT_LT(seq->step, 15) << "pool never filled";
      }
      pool.check_invariants();
    }
    ASSERT_EQ(scheduler.requeued(), 1u);
    // The victim is whoever vanished from the active set.
    std::vector<int64_t> active_ids;
    for (const auto& seq : scheduler.active_set()) {
      active_ids.push_back(seq->request.id);
    }
    EXPECT_EQ(active_ids.size(), priorities.size() - 1);
    EXPECT_TRUE(std::find(active_ids.begin(), active_ids.end(),
                          expected_victim) == active_ids.end())
        << "expected victim " << expected_victim << " still active";
    // Drain: release everything so the pool destructor is happy.
    while (!scheduler.idle()) {
      scheduler.admit(0.0);
      for (const auto& seq : scheduler.active_set()) seq->finished = true;
      scheduler.retire_finished();
    }
  }
};

TEST_F(VictimPolicyTest, MostRecentlyAdmittedLosesByDefault) {
  run({}, {0, 0, 0}, /*expected_victim=*/2);
}

TEST_F(VictimPolicyTest, LowestPriorityLosesFirst) {
  GenSchedulerOptions opts;
  opts.victim_policy = GenSchedulerOptions::VictimPolicy::kLowestPriority;
  // Admission order would blame id 2; priority order blames id 1.
  run(opts, {5, 1, 3}, /*expected_victim=*/1);
}

TEST_F(VictimPolicyTest, LowestPriorityOnEqualPrioritiesMatchesDefault) {
  GenSchedulerOptions opts;
  opts.victim_policy = GenSchedulerOptions::VictimPolicy::kLowestPriority;
  // All one class: admission order breaks the tie, so the victim is the
  // default policy's (newest admission).
  run(opts, {0, 0, 0}, /*expected_victim=*/2);
}

}  // namespace
}  // namespace turbo::genserve
