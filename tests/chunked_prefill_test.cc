// Token-quantum scheduling unit tests: chunked prefill packed into the
// fused step (GenSchedulerOptions::step_token_quantum).
//
// These tests drive GenerationScheduler directly with a synthetic step
// driver (no decoder): prepare_step() hands back a StepPlan, the driver
// advances each scheduled sequence by its step_tokens rows and samples a
// token whenever the chunk reaches the frontier — exactly the contract
// GenerationServer honors. The server-level half (StepStats / metrics /
// bit-identity) lives at the bottom and in genserve_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "genserve/generation_server.h"
#include "genserve/kv_cache_pool.h"
#include "model/config.h"
#include "serving/cost_table.h"

namespace turbo::genserve {
namespace {

model::ModelConfig tiny() { return model::ModelConfig::tiny(2, 32, 2, 64, 50); }

model::ModelConfig tiny_causal() {
  return model::ModelConfig::tiny_causal(2, 32, 2, 64, 50);
}

KvPoolOptions small_pool() {
  KvPoolOptions o;
  o.block_tokens = 4;
  o.blocks_per_slab = 8;
  return o;
}

serving::GenerationRequest make_request(int64_t id, std::vector<int> src,
                                        int max_new) {
  serving::GenerationRequest r;
  r.id = id;
  r.src_tokens = std::move(src);
  r.max_new_tokens = max_new;
  r.bos_id = 1;
  r.eos_id = 2;
  return r;
}

serving::CostTable flat_costs() {
  return serving::CostTable::warmup(
      [](int len, int batch) { return 0.01 + 0.0001 * len * batch; }, 128, 16,
      8);
}

// Rows of `seq` whose fed token is already known (mirrors the scheduler's
// private known_rows): the quantum allocator may run up to this many rows
// in one step, and exactly the last of them samples a fresh token.
int known_rows(const ActiveSequence& seq, bool causal) {
  const size_t total = causal ? seq.request.src_tokens.size() + seq.tokens.size()
                              : 1 + seq.tokens.size();
  return static_cast<int>(total) - seq.step;
}

// Synthetic fused step: what GenerationServer does with a StepPlan, minus
// the decoder. Encode jobs materialize their share; stepping sequences
// advance step_tokens rows; a chunk reaching the frontier samples one
// token (a fixed non-EOS id — the scheduler never looks at token values).
void drive(const GenerationScheduler::StepPlan& plan, bool causal,
           int* charged_out = nullptr) {
  int charged = 0;
  for (ActiveSequence* seq : plan.encode) {
    ASSERT_FALSE(causal) << "causal sequences never owe an encode job";
    ASSERT_TRUE(seq->kv->needs_cross_init());
    // An encode job never also runs decoder rows in the same iteration.
    ASSERT_TRUE(std::find(plan.stepping.begin(), plan.stepping.end(), seq) ==
                plan.stepping.end());
    seq->kv->mark_cross_ready();
    charged += seq->kv->src_len();
  }
  for (ActiveSequence* seq : plan.stepping) {
    ASSERT_TRUE(seq->kv && !seq->kv->parked());
    ASSERT_TRUE(seq->kv->cross_ready());
    const int known = known_rows(*seq, causal);
    ASSERT_GE(seq->step_tokens, 1);
    ASSERT_LE(seq->step_tokens, known)
        << "scheduled past the last known fed token";
    seq->step += seq->step_tokens;
    charged += seq->step_tokens;
    if (seq->step_tokens == known) {  // frontier reached: one fresh sample
      seq->tokens.push_back(3);
      seq->last_token = 3;
      if (static_cast<int>(seq->tokens.size()) >= seq->request.max_new_tokens) {
        seq->finished = true;
        seq->hit_max_len = true;
      }
    }
  }
  if (charged_out != nullptr) *charged_out = charged;
}

// ---------------------------------------------------------------------------
// Quantum conservation
// ---------------------------------------------------------------------------

TEST(ChunkedPrefill, QuantumChargeIsConservedEveryStep) {
  // Every step's quantum_charged must equal the rows + encode tokens the
  // plan actually carries, and never exceed the budget (no seq2seq encode
  // here, so overflow is impossible).
  const auto config = tiny_causal();
  KvCachePool pool(config, small_pool());
  const auto costs = flat_costs();
  GenSchedulerOptions opts;
  opts.causal_lm = true;
  opts.max_active = 4;
  opts.step_token_quantum = 6;
  GenerationScheduler scheduler(&pool, &costs, opts);

  Rng rng(101);
  scheduler.enqueue(make_request(1, rng.token_ids(12, 50), 3));
  scheduler.enqueue(make_request(2, rng.token_ids(12, 50), 3));
  scheduler.admit(0.0);

  int chunked_steps = 0;
  int steps = 0;
  while (!scheduler.idle()) {
    ASSERT_LT(++steps, 200) << "scheduler stopped making progress";
    scheduler.admit(0.0);
    const auto plan = scheduler.prepare_step();
    ASSERT_FALSE(plan.empty());
    EXPECT_FALSE(plan.quantum_overflow);
    EXPECT_LE(plan.quantum_charged, opts.step_token_quantum);
    for (const ActiveSequence* seq : plan.stepping) {
      if (seq->step_tokens > 1) ++chunked_steps;
    }
    int charged = 0;
    drive(plan, /*causal=*/true, &charged);
    EXPECT_EQ(charged, plan.quantum_charged);
    scheduler.retire_finished();
    pool.check_invariants();
  }
  // 12-token prompts under a 6-token quantum: prefill must have chunked.
  EXPECT_GT(chunked_steps, 0);
  EXPECT_EQ(scheduler.total_admitted(), 2u);
  EXPECT_EQ(scheduler.total_retired(), 2u);
}

TEST(ChunkedPrefill, QuantumBelowOneIsRejected) {
  // The token quantum is the only step loop: a quantum of 1 feeds one row
  // per step, and anything smaller could never schedule a row.
  KvCachePool pool(tiny(), small_pool());
  const auto costs = flat_costs();
  for (const int quantum : {0, -1}) {
    GenSchedulerOptions opts;
    opts.step_token_quantum = quantum;
    EXPECT_THROW(GenerationScheduler(&pool, &costs, opts), CheckError)
        << "quantum " << quantum;
  }
  EXPECT_EQ(GenSchedulerOptions{}.step_token_quantum, 64);
}

TEST(ChunkedPrefill, QuantumSmallerThanOneChunkStillProgresses) {
  // quantum=2 < block_tokens=4: chunks clamp to the budget, the prompt
  // still prefills to completion, and no step ever exceeds the quantum.
  const auto config = tiny_causal();
  KvCachePool pool(config, small_pool());
  const auto costs = flat_costs();
  GenSchedulerOptions opts;
  opts.causal_lm = true;
  opts.step_token_quantum = 2;
  GenerationScheduler scheduler(&pool, &costs, opts);

  const int P = 13, M = 2;
  Rng rng(7);
  scheduler.enqueue(make_request(1, rng.token_ids(P, 50), M));
  scheduler.admit(0.0);

  int steps = 0;
  while (!scheduler.idle()) {
    ASSERT_LT(++steps, 200);
    scheduler.admit(0.0);
    const auto plan = scheduler.prepare_step();
    ASSERT_FALSE(plan.empty());
    EXPECT_LE(plan.quantum_charged, 2);
    drive(plan, /*causal=*/true);
    scheduler.retire_finished();
  }
  // Total rows run is P + M - 1; at most 2 per step.
  EXPECT_GE(steps, (P + M - 1 + 1) / 2);
  pool.check_invariants();
}

// ---------------------------------------------------------------------------
// Fairness: long prompts vs decode-ready sequences
// ---------------------------------------------------------------------------

TEST(ChunkedPrefill, LongPromptFillsLeftoverQuantumWithoutCrowdingDecodes) {
  // One 32-token prompt next to three decode-ready sequences under an
  // 8-token quantum: pass 0 gives every sequence its row, the long prompt
  // soaks up the remaining 5 rows per step in block-sized extension
  // rounds, and the decoders never miss an iteration.
  const auto config = tiny_causal();
  auto pool_opts = small_pool();
  pool_opts.blocks_per_slab = 16;
  KvCachePool pool(config, pool_opts);
  const auto costs = flat_costs();
  GenSchedulerOptions opts;
  opts.causal_lm = true;
  opts.max_active = 4;
  opts.step_token_quantum = 8;
  GenerationScheduler scheduler(&pool, &costs, opts);

  Rng rng(23);
  scheduler.enqueue(make_request(0, rng.token_ids(32, 50), 2));
  for (int i = 1; i < 4; ++i) {
    scheduler.enqueue(make_request(i, rng.token_ids(1, 50), 12));
  }
  scheduler.admit(0.0);
  ASSERT_EQ(scheduler.active(), 4u);

  bool long_prefilling = true;
  int steps = 0;
  while (!scheduler.idle()) {
    ASSERT_LT(++steps, 200);
    scheduler.admit(0.0);
    const auto plan = scheduler.prepare_step();
    ASSERT_FALSE(plan.empty());
    // active <= quantum: every active sequence steps every iteration.
    EXPECT_EQ(plan.stepping.size(), scheduler.active());
    for (const ActiveSequence* seq : plan.stepping) {
      if (seq->request.id != 0) continue;
      if (known_rows(*seq, true) > seq->step_tokens) {
        // Mid-prefill: pass-0 row + one block-sized extension round + the
        // budget remainder = 1 + 4 = 5 rows (3 decode rows take the rest).
        EXPECT_EQ(seq->step_tokens, 5);
      } else {
        long_prefilling = false;
      }
    }
    drive(plan, /*causal=*/true);
    scheduler.retire_finished();
  }
  EXPECT_FALSE(long_prefilling) << "the long prompt never reached decode";
  pool.check_invariants();
}

TEST(ChunkedPrefill, DecodeStarvationBoundedByRotation) {
  // More decode-ready sequences than the quantum: the least-recently-
  // stepped rotation guarantees every sequence runs at least once every
  // ceil(active / quantum) steps.
  const auto config = tiny_causal();
  KvCachePool pool(config, small_pool());
  const auto costs = flat_costs();
  GenSchedulerOptions opts;
  opts.causal_lm = true;
  opts.max_active = 4;
  opts.step_token_quantum = 2;
  GenerationScheduler scheduler(&pool, &costs, opts);

  Rng rng(5);
  for (int i = 0; i < 4; ++i) {
    scheduler.enqueue(make_request(i, rng.token_ids(1, 50), 6));
  }
  scheduler.admit(0.0);
  ASSERT_EQ(scheduler.active(), 4u);
  const int bound = 2;  // ceil(4 active / quantum 2)

  std::map<int64_t, int> last_stepped;
  int steps = 0;
  while (scheduler.active() == 4u) {
    ++steps;
    const auto plan = scheduler.prepare_step();
    EXPECT_EQ(plan.stepping.size(), 2u);
    EXPECT_LE(plan.quantum_charged, 2);
    for (const ActiveSequence* seq : plan.stepping) {
      auto it = last_stepped.find(seq->request.id);
      if (it != last_stepped.end()) {
        EXPECT_LE(steps - it->second, bound)
            << "sequence " << seq->request.id << " starved";
      }
      last_stepped[seq->request.id] = steps;
    }
    drive(plan, /*causal=*/true);
    scheduler.retire_finished();
    ASSERT_LT(steps, 100);
  }
  EXPECT_EQ(last_stepped.size(), 4u);
  // Drain the stragglers.
  while (!scheduler.idle()) {
    const auto plan = scheduler.prepare_step();
    ASSERT_FALSE(plan.empty());
    drive(plan, /*causal=*/true);
    scheduler.retire_finished();
  }
}

// ---------------------------------------------------------------------------
// Seq2seq encode jobs: indivisible, deferred, overflow only when empty
// ---------------------------------------------------------------------------

TEST(ChunkedPrefill, EncodeJobsDeferAndOverflowOnlyWhenStepWouldBeEmpty) {
  const auto config = tiny();
  KvCachePool pool(config, small_pool());
  const auto costs = flat_costs();
  GenSchedulerOptions opts;
  opts.max_active = 3;
  opts.step_token_quantum = 4;
  GenerationScheduler scheduler(&pool, &costs, opts);

  Rng rng(31);
  const auto shared_src = rng.token_ids(3, 50);
  scheduler.enqueue(make_request(1, shared_src, 4));          // A: src 3
  scheduler.enqueue(make_request(2, rng.token_ids(6, 50), 4));  // B: src 6
  scheduler.enqueue(make_request(3, shared_src, 4));          // C follows A
  scheduler.admit(0.0);
  ASSERT_EQ(scheduler.active(), 3u);
  const auto& active = scheduler.active_set();
  ASSERT_TRUE(active[0]->kv->needs_cross_init());   // A: creator
  ASSERT_TRUE(active[1]->kv->needs_cross_init());   // B: creator
  ASSERT_FALSE(active[2]->kv->needs_cross_init());  // C: follower of A
  ASSERT_FALSE(active[2]->kv->cross_ready());       // ...but A never encoded

  // Step 1: A's encode fits (3 <= 4); B's (6) does not and the step is not
  // empty, so it defers; C cannot run before A's encode lands.
  auto plan = scheduler.prepare_step();
  ASSERT_EQ(plan.encode.size(), 1u);
  EXPECT_EQ(plan.encode[0]->request.id, 1);
  EXPECT_TRUE(plan.stepping.empty());
  EXPECT_FALSE(plan.quantum_overflow);
  EXPECT_EQ(plan.quantum_charged, 3);
  drive(plan, /*causal=*/false);
  EXPECT_TRUE(active[2]->kv->cross_ready());  // A's encode readied the share

  // Step 2: B rotates to the front (never stepped), the plan is empty when
  // its turn comes, so the 6-token encode overruns the 4-token budget —
  // flagged, and nothing else runs this step.
  plan = scheduler.prepare_step();
  ASSERT_EQ(plan.encode.size(), 1u);
  EXPECT_EQ(plan.encode[0]->request.id, 2);
  EXPECT_TRUE(plan.stepping.empty());
  EXPECT_TRUE(plan.quantum_overflow);
  EXPECT_EQ(plan.quantum_charged, 6);
  drive(plan, /*causal=*/false);

  // Step 3: everyone decode-ready; three 1-row decodes fit the quantum.
  plan = scheduler.prepare_step();
  EXPECT_TRUE(plan.encode.empty());
  EXPECT_EQ(plan.stepping.size(), 3u);
  EXPECT_FALSE(plan.quantum_overflow);
  EXPECT_EQ(plan.quantum_charged, 3);
  drive(plan, /*causal=*/false);

  while (!scheduler.idle()) {
    scheduler.admit(0.0);
    const auto p = scheduler.prepare_step();
    ASSERT_FALSE(p.empty());
    drive(p, /*causal=*/false);
    scheduler.retire_finished();
  }
  pool.check_invariants();
}

TEST(ChunkedPrefill, CostGateStopsChunkExtensions) {
  // A binding max_step_cost_ms must cap chunk growth (extensions stop at
  // the predicted-latency ceiling) without ever blocking pass-0 progress.
  const auto config = tiny_causal();
  KvCachePool pool(config, small_pool());
  // 0.1 ms per row: a 0.35 ms budget prices at most 3 rows per step.
  const auto costs = serving::CostTable::warmup(
      [](int, int batch) { return 0.1 * batch; }, 128, 16, 8);
  GenSchedulerOptions opts;
  opts.causal_lm = true;
  opts.step_token_quantum = 8;
  opts.max_step_cost_ms = 0.35;
  GenerationScheduler scheduler(&pool, &costs, opts);

  Rng rng(11);
  scheduler.enqueue(make_request(1, rng.token_ids(12, 50), 2));
  scheduler.admit(0.0);

  int steps = 0;
  while (!scheduler.idle()) {
    ASSERT_LT(++steps, 100);
    const auto plan = scheduler.prepare_step();
    ASSERT_FALSE(plan.empty());
    EXPECT_LE(plan.quantum_charged, 3) << "cost gate ignored";
    drive(plan, /*causal=*/true);
    scheduler.retire_finished();
  }
  EXPECT_GE(steps, 5);  // 13 rows at <= 3 per step
}

// ---------------------------------------------------------------------------
// StepStats / metrics: prefill tokens are counted as tokens (satellite 4)
// ---------------------------------------------------------------------------

TEST(ChunkedPrefill, ServerCountsPrefillTokensAndChunks) {
  // Causal server, quantum on: StepStats::prefilled sums to exactly the
  // prompt rows short of the frontier (P - 1), mirrored into the
  // gen.*.prefill_tokens counter; chunked steps are visible in
  // prefill_chunks, and the charge never exceeds the quantum.
  const int P = 10, M = 3;
  GenServerOptions options;
  options.pool = small_pool();
  options.pool.enable_radix_tree = false;
  options.scheduler.step_token_quantum = 6;
  GenerationServer server(make_bundle("model", 1, tiny_causal(), 29), options);

  Rng rng(77);
  server.submit(make_request(1, rng.token_ids(P, 50), M));
  int prefilled = 0, chunks = 0, max_charged = 0;
  bool overflow = false;
  server.set_step_observer([&](const StepStats& s) {
    prefilled += s.prefilled;
    chunks += s.prefill_chunks;
    max_charged = std::max(max_charged, s.quantum_charged);
    overflow = overflow || s.quantum_overflow;
    EXPECT_GE(s.step_rows, s.active);
  });
  ASSERT_EQ(server.run_to_completion().size(), 1u);

  EXPECT_EQ(prefilled, P - 1);
  EXPECT_GT(chunks, 0);
  EXPECT_LE(max_charged, 6);
  EXPECT_FALSE(overflow);  // causal: no indivisible encode jobs
  EXPECT_EQ(server.metrics()->counter_value(server.metric_prefix() +
                                            "prefill_tokens"),
            static_cast<uint64_t>(P - 1));
  EXPECT_EQ(server.metrics()->counter_value(server.metric_prefix() +
                                            "prefill_chunks"),
            static_cast<uint64_t>(chunks));
}

TEST(ChunkedPrefill, Seq2SeqPrefillTokensMatchAcrossQuantumModes) {
  // The prefilled stat counts encoder source tokens, so the totals are
  // comparable between a packed run (two deferred encode jobs in one
  // server, quantum 4) and each request served alone one row per step
  // (quantum 1): both report src_len per request.
  const int kSrc[] = {6, 3};
  Rng rng(41);
  std::vector<serving::GenerationRequest> requests;
  for (int i = 0; i < 2; ++i) {
    requests.push_back(make_request(i, rng.token_ids(kSrc[i], 50), 3));
  }
  auto run = [&](const std::vector<serving::GenerationRequest>& batch,
                 int quantum) {
    GenServerOptions options;
    options.pool = small_pool();
    options.scheduler.step_token_quantum = quantum;
    GenerationServer server(make_bundle("model", 1, tiny(), 29), options);
    for (const auto& r : batch) server.submit(r);
    int prefilled = 0;
    bool overflow = false;
    server.set_step_observer([&](const StepStats& s) {
      prefilled += s.prefilled;
      overflow = overflow || s.quantum_overflow;
    });
    EXPECT_EQ(server.run_to_completion().size(), batch.size());
    EXPECT_EQ(server.metrics()->counter_value(server.metric_prefix() +
                                              "prefill_tokens"),
              static_cast<uint64_t>(prefilled));
    return std::make_pair(prefilled, overflow);
  };

  int solo_prefilled = 0;
  for (const auto& r : requests) solo_prefilled += run({r}, 1).first;
  const auto packed = run(requests, 4);
  EXPECT_EQ(solo_prefilled, kSrc[0] + kSrc[1]);
  EXPECT_EQ(packed.first, kSrc[0] + kSrc[1]);
  // src 6 > quantum 4: the indivisible encode must have overflowed once.
  EXPECT_TRUE(packed.second);
}

}  // namespace
}  // namespace turbo::genserve
