// Multi-model generation serving: registry-routed engines over per-model
// KV pools charging one shared slab budget, which must use memory better
// than a static per-model split under skewed load.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/check.h"
#include "common/rng.h"
#include "genserve/generation_server.h"
#include "genserve/model_bundle.h"
#include "genserve/multi_model_server.h"
#include "memory/slab_budget.h"
#include "obs/passes.h"

namespace turbo::genserve {
namespace {

model::ModelConfig tiny() { return model::ModelConfig::tiny(2, 32, 2, 64, 50); }

GenServerOptions small_engine() {
  GenServerOptions o;
  o.pool.block_tokens = 4;
  o.pool.blocks_per_slab = 4;
  o.scheduler.max_active = 4;
  return o;
}

serving::GenerationRequest make_request(Rng& rng, int64_t id, int src_len,
                                        int max_new,
                                        const std::string& model = "",
                                        int version = 0) {
  serving::GenerationRequest r;
  r.id = id;
  r.src_tokens = rng.token_ids(src_len, 50);
  r.max_new_tokens = max_new;
  r.bos_id = 1;
  r.eos_id = 2;
  r.model = model;
  r.model_version = version;
  return r;
}

// Uncontended single-model baseline over the same bundle: unbounded pool,
// never a preemption.
std::map<int64_t, std::vector<int>> dedicated_reference(
    const std::shared_ptr<ModelBundle>& bundle,
    const std::vector<serving::GenerationRequest>& requests) {
  GenerationServer server(bundle, small_engine());
  for (const auto& r : requests) server.submit(r);
  std::map<int64_t, std::vector<int>> tokens;
  for (auto& resp : server.run_to_completion()) {
    tokens[resp.request_id] = std::move(resp.tokens);
  }
  return tokens;
}

// ---------------------------------------------------------------- routing --

TEST(MultiModelServer, RoutesDefaultLatestAndPinnedVersions) {
  MultiModelGenerationServer server;
  auto a1 = make_bundle("a", 1, tiny(), /*seed=*/11);
  auto a2 = make_bundle("a", 2, tiny(), /*seed=*/22);
  auto b1 = make_bundle("b", 1, tiny(), /*seed=*/33);
  server.register_bundle(a1, 0, small_engine());
  server.register_bundle(a2, 0, small_engine());
  server.register_bundle(b1, 0, small_engine());
  EXPECT_EQ(server.default_model(), "a");
  EXPECT_EQ(server.registry().size(), 3u);

  Rng rng(5);
  const auto src = rng.token_ids(7, 50);
  const auto request_for = [&](int64_t id, const std::string& model,
                               int version) {
    serving::GenerationRequest r;
    r.id = id;
    r.src_tokens = src;
    r.max_new_tokens = 6;
    r.model = model;
    r.model_version = version;
    return r;
  };
  server.submit(request_for(0, "", 0));    // default model, latest -> a:v2
  server.submit(request_for(1, "a", 1));   // pinned          -> a:v1
  server.submit(request_for(2, "a", 0));   // latest          -> a:v2
  server.submit(request_for(3, "b", 0));   // other name      -> b:v1
  std::map<int64_t, std::vector<int>> tokens;
  for (auto& resp : server.run_to_completion()) {
    tokens[resp.request_id] = std::move(resp.tokens);
  }
  ASSERT_EQ(tokens.size(), 4u);

  const auto ref_a1 = dedicated_reference(a1, {request_for(1, "", 0)});
  const auto ref_a2 = dedicated_reference(a2, {request_for(0, "", 0)});
  const auto ref_b1 = dedicated_reference(b1, {request_for(3, "", 0)});
  EXPECT_EQ(tokens.at(0), ref_a2.at(0));
  EXPECT_EQ(tokens.at(2), ref_a2.at(0));
  EXPECT_EQ(tokens.at(1), ref_a1.at(1));
  EXPECT_EQ(tokens.at(3), ref_b1.at(3));
  // Different seeds really are different models, or the checks above
  // proved nothing.
  EXPECT_NE(tokens.at(0), tokens.at(1));
}

TEST(MultiModelServer, UnknownRoutesAndDuplicateIdsThrow) {
  MultiModelGenerationServer server;
  server.register_bundle(make_bundle("a", 1, tiny(), 1), 0, small_engine());
  Rng rng(6);
  EXPECT_THROW(server.submit(make_request(rng, 0, 5, 4, "nope")), CheckError);
  EXPECT_THROW(server.submit(make_request(rng, 0, 5, 4, "a", 7)), CheckError);
  server.submit(make_request(rng, 1, 5, 4));
  EXPECT_THROW(server.submit(make_request(rng, 1, 5, 4)), CheckError);
  // The failed submits left no trace: exactly one response comes out.
  EXPECT_EQ(server.run_to_completion().size(), 1u);
}

TEST(MultiModelServer, RejectedRequestLeavesTheRouterUntouched) {
  // A request the replica rejects (here: an empty source) must not move
  // the router: no routed count, no backlog charge, no round-robin step.
  // The next placement must match a server that never saw the request.
  Rng rng(0x5E7);
  const auto first = make_request(rng, 0, 5, 4, "m");
  auto bad = make_request(rng, 1, 5, 4, "m");
  bad.src_tokens.clear();
  const auto next = make_request(rng, 2, 5, 4, "m");

  const auto serve = [&](bool submit_bad) {
    MultiModelOptions options;
    options.engine = small_engine();
    options.router.policy = serving::DispatchPolicy::kRoundRobin;
    options.router.use_observed_cost = false;
    auto server = std::make_unique<MultiModelGenerationServer>(options);
    server->register_bundle(make_bundle("m", 1, tiny(), 3), 0,
                            /*overrides=*/{}, /*replicas=*/2);
    server->submit(first);
    if (submit_bad) {
      EXPECT_THROW(server->submit(bad), CheckError);
      EXPECT_EQ(server->metrics()->counter_value("router.routed_total"), 1u);
    }
    server->submit(next);
    return server;
  };
  const auto clean = serve(false);
  const auto rejected = serve(true);

  const auto& reg = *rejected->metrics();
  const auto& ref = *clean->metrics();
  EXPECT_EQ(reg.counter_value("router.routed_total"), 2u);
  // Round-robin put the second accepted request on replica 1.
  EXPECT_EQ(reg.counter_value("router.m:v1.routed"), 1u);
  EXPECT_EQ(reg.counter_value("router.m:v1#1.routed"), 1u);
  for (const std::string label : {"m:v1", "m:v1#1"}) {
    const std::string p = "router." + label + ".";
    EXPECT_EQ(reg.counter_value(p + "routed"), ref.counter_value(p + "routed"))
        << label;
    EXPECT_EQ(reg.gauge_value(p + "backlog"), ref.gauge_value(p + "backlog"))
        << label;
  }
  EXPECT_EQ(rejected->run_to_completion().size(), 2u);
}

TEST(MultiModelServer, HotRegistrationMovesTheLatestRoute) {
  MultiModelGenerationServer server;
  auto v1 = make_bundle("m", 1, tiny(), /*seed=*/101);
  server.register_bundle(v1, 0, small_engine());
  Rng rng(7);
  const auto req_v1 = make_request(rng, 0, 9, 8, "m");
  server.submit(req_v1);
  server.step();  // v1's sequence is mid-flight

  auto v2 = make_bundle("m", 2, tiny(), /*seed=*/202);
  server.register_bundle(v2, 0, small_engine());
  serving::GenerationRequest req_v2 = req_v1;
  req_v2.id = 1;
  server.submit(req_v2);  // latest is now v2; the in-flight one stays on v1

  std::map<int64_t, std::vector<int>> tokens;
  for (auto& resp : server.run_to_completion()) {
    tokens[resp.request_id] = std::move(resp.tokens);
  }
  serving::GenerationRequest probe = req_v1;
  EXPECT_EQ(tokens.at(0), dedicated_reference(v1, {probe}).at(0));
  EXPECT_EQ(tokens.at(1), dedicated_reference(v2, {probe}).at(0));
}

// ----------------------------------------------- shared budget + isolation --

TEST(MultiModelServer, CrossModelIsolationBitIdenticalUnderBudgetContention) {
  auto bundle_a = make_bundle("a", 1, tiny(), /*seed=*/71);
  auto bundle_b = make_bundle("b", 1, tiny(), /*seed=*/72);

  Rng rng(0xB07);
  std::vector<serving::GenerationRequest> reqs_a, reqs_b;
  for (int i = 0; i < 6; ++i) {
    reqs_a.push_back(make_request(rng, i, 6 + i, 12, "a"));
    reqs_b.push_back(make_request(rng, 100 + i, 5 + i, 12, "b"));
  }
  const auto ref_a = dedicated_reference(bundle_a, reqs_a);
  const auto ref_b = dedicated_reference(bundle_b, reqs_b);

  // Budget of 6 slabs (24 blocks) across both models: twelve sequences
  // whose joint demand grows far past it, so cross-model contention and
  // preemption are guaranteed.
  MultiModelOptions options;
  options.engine = small_engine();
  const size_t slab = 4ull * 2 * 4 * 32 * sizeof(float);
  options.total_kv_bytes = 6 * slab;
  MultiModelGenerationServer server(options);
  server.register_bundle(bundle_a, 3 * slab);
  server.register_bundle(bundle_b, 3 * slab);

  size_t budget_over_cap = 0;
  server.set_step_observer([&](const std::string&, int, const StepStats&) {
    if (server.budget().used_bytes() > server.budget().total_bytes()) {
      ++budget_over_cap;
    }
  });
  for (const auto& r : reqs_a) server.submit(r);
  for (const auto& r : reqs_b) server.submit(r);

  std::map<int64_t, std::vector<int>> tokens;
  for (auto& resp : server.run_to_completion()) {
    tokens[resp.request_id] = std::move(resp.tokens);
  }
  ASSERT_EQ(tokens.size(), reqs_a.size() + reqs_b.size());
  // Outputs under the shared budget — preemptions, replays, reclaims and
  // all — are bit-identical to each model's dedicated uncontended run.
  for (const auto& [id, toks] : ref_a) EXPECT_EQ(tokens.at(id), toks);
  for (const auto& [id, toks] : ref_b) EXPECT_EQ(tokens.at(id), toks);

  size_t preemptions = 0;
  for (const auto& s : server.stats()) preemptions += s.pool.preemptions;
  EXPECT_GT(preemptions, 0u) << "budget never actually contended";
  EXPECT_EQ(budget_over_cap, 0u);
  EXPECT_EQ(server.budget().used_bytes(), 0u);  // drained pools release all
  EXPECT_LE(server.budget().snapshot().peak_used_bytes,
            options.total_kv_bytes);
}

TEST(MultiModelServer, QuantumEnginesBitIdenticalUnderBudgetContention) {
  // Token-quantum engines (chunked prefill + deferred encode jobs) behind
  // the shared budget: cross-model reclaim may shed sequences mid-prefill,
  // and sequences whose deferred encode has not run yet are unpreemptible
  // — the reclaim path must tolerate partial sheds. Outputs still match
  // each model's dedicated uncontended run (default quantum) bit-exactly.
  auto bundle_a = make_bundle("a", 1, tiny(), /*seed=*/91);
  auto bundle_b = make_bundle("b", 1, tiny(), /*seed=*/92);

  Rng rng(0xC47);
  std::vector<serving::GenerationRequest> reqs_a, reqs_b;
  for (int i = 0; i < 6; ++i) {
    reqs_a.push_back(make_request(rng, i, 6 + i, 12, "a"));
    reqs_b.push_back(make_request(rng, 100 + i, 5 + i, 12, "b"));
  }
  const auto ref_a = dedicated_reference(bundle_a, reqs_a);
  const auto ref_b = dedicated_reference(bundle_b, reqs_b);

  MultiModelOptions options;
  options.engine = small_engine();
  options.engine.scheduler.step_token_quantum = 6;
  const size_t slab = 4ull * 2 * 4 * 32 * sizeof(float);
  options.total_kv_bytes = 6 * slab;
  MultiModelGenerationServer server(options);
  server.register_bundle(bundle_a, 3 * slab);
  server.register_bundle(bundle_b, 3 * slab);

  int max_charged = 0;
  server.set_step_observer(
      [&](const std::string&, int, const StepStats& s) {
        if (!s.quantum_overflow) {
          max_charged = std::max(max_charged, s.quantum_charged);
        }
      });
  for (const auto& r : reqs_a) server.submit(r);
  for (const auto& r : reqs_b) server.submit(r);

  std::map<int64_t, std::vector<int>> tokens;
  for (auto& resp : server.run_to_completion()) {
    tokens[resp.request_id] = std::move(resp.tokens);
  }
  ASSERT_EQ(tokens.size(), reqs_a.size() + reqs_b.size());
  for (const auto& [id, toks] : ref_a) EXPECT_EQ(tokens.at(id), toks);
  for (const auto& [id, toks] : ref_b) EXPECT_EQ(tokens.at(id), toks);

  size_t preemptions = 0;
  for (const auto& s : server.stats()) preemptions += s.pool.preemptions;
  EXPECT_GT(preemptions, 0u) << "budget never actually contended";
  // Per-engine quantum held on every non-overflow step.
  EXPECT_LE(max_charged, 6);
  EXPECT_GT(max_charged, 0);
  EXPECT_EQ(server.budget().used_bytes(), 0u);
}

TEST(MultiModelServer, IdleHeadroomIsBorrowedAndReclaimedByItsOwner) {
  auto bundle_a = make_bundle("a", 1, tiny(), /*seed=*/81);
  auto bundle_b = make_bundle("b", 1, tiny(), /*seed=*/82);

  MultiModelOptions options;
  options.engine = small_engine();
  options.engine.scheduler.max_active = 6;
  const size_t slab = 4ull * 2 * 4 * 32 * sizeof(float);
  options.total_kv_bytes = 8 * slab;
  MultiModelGenerationServer server(options);
  server.register_bundle(bundle_a, 4 * slab);
  server.register_bundle(bundle_b, 4 * slab);

  // Phase 1: only model a has traffic; with b idle it borrows past its
  // 4-slab guarantee.
  Rng rng(0xB0B);
  std::vector<serving::GenerationRequest> reqs_a;
  for (int i = 0; i < 10; ++i) {
    reqs_a.push_back(make_request(rng, i, 8 + (i % 4), 16, "a"));
  }
  for (const auto& r : reqs_a) server.submit(r);
  size_t a_peak = 0;
  for (int i = 0; i < 64 && !server.idle(); ++i) {
    server.step();
    a_peak = std::max(a_peak, server.stats()[0].budget_used_bytes);
    if (a_peak > 4 * slab && server.budget().available_bytes() < slab) break;
  }
  EXPECT_GT(a_peak, 4 * slab) << "model a never borrowed b's headroom";

  // Phase 2: the owner shows up. b's admissions find the budget borrowed
  // away; the server reclaims slabs from a through the preemption path and
  // every request of both models still completes, bit-identically.
  std::vector<serving::GenerationRequest> reqs_b;
  for (int i = 0; i < 4; ++i) {
    reqs_b.push_back(make_request(rng, 100 + i, 6 + i, 12, "b"));
  }
  for (const auto& r : reqs_b) server.submit(r);
  std::map<int64_t, std::vector<int>> tokens;
  for (auto& resp : server.run_to_completion()) {
    tokens[resp.request_id] = std::move(resp.tokens);
  }
  ASSERT_EQ(tokens.size(), reqs_a.size() + reqs_b.size());
  EXPECT_GT(server.total_reclaims(), 0u)
      << "b regained its guarantee without a reclaim";

  const auto ref_a = dedicated_reference(bundle_a, reqs_a);
  const auto ref_b = dedicated_reference(bundle_b, reqs_b);
  for (const auto& [id, toks] : ref_a) EXPECT_EQ(tokens.at(id), toks);
  for (const auto& [id, toks] : ref_b) EXPECT_EQ(tokens.at(id), toks);
  EXPECT_EQ(server.budget().used_bytes(), 0u);
}

TEST(MultiModelServer, StarvedModelPublishesEveryCallAndKeysItsSpans) {
  // As in IdleHeadroomIsBorrowedAndReclaimedByItsOwner: model a borrows b's
  // headroom, then b's requests wait on the budget, so b's engine runs
  // step() calls that step no rows while reclaims shed a's sequences
  // between calls. Every admission, preemption and resume of those calls
  // and sheds must still reach the engines' counters, and each engine
  // call with work to do must be a step of its own in the phase
  // attribution (a starved call folded into the next one would read as one
  // step spanning both); calls to an idle engine record nothing.
  auto bundle_a = make_bundle("a", 1, tiny(), /*seed=*/81);
  auto bundle_b = make_bundle("b", 1, tiny(), /*seed=*/82);

  MultiModelOptions options;
  options.engine = small_engine();
  options.engine.scheduler.max_active = 6;
  options.engine.trace.enabled = true;
  const size_t slab = 4ull * 2 * 4 * 32 * sizeof(float);
  options.total_kv_bytes = 8 * slab;
  MultiModelGenerationServer server(options);
  server.register_bundle(bundle_a, 4 * slab);
  server.register_bundle(bundle_b, 4 * slab);

  const GenerationServer& engine_a = server.replica_set("a", 1)->replica(0);
  const GenerationServer& engine_b = server.replica_set("b", 1)->replica(0);
  // Engine calls made while the engine had work (queued, parked or
  // active): every server step calls each engine once.
  int64_t busy_a = 0;
  int64_t busy_b = 0;
  const auto step = [&] {
    busy_a += engine_a.idle() ? 0 : 1;
    busy_b += engine_b.idle() ? 0 : 1;
    server.step();
  };

  Rng rng(0xB0B);
  for (int i = 0; i < 10; ++i) {
    server.submit(make_request(rng, i, 8 + (i % 4), 16, "a"));
  }
  while (server.budget().available_bytes() >= slab && !server.idle()) step();
  EXPECT_EQ(busy_b, 0) << "b must have sat idle through a's ramp-up";
  for (int i = 0; i < 4; ++i) {
    server.submit(make_request(rng, 100 + i, 6 + i, 12, "b"));
  }
  while (!server.idle()) step();
  ASSERT_EQ(server.take_completed().size(), 14u);
  EXPECT_GT(server.total_reclaims(), 0u) << "b was never starved";

  const auto& reg = *server.metrics();
  for (const char* name : {"a", "b"}) {
    const GenerationServer& engine = server.replica_set(name, 1)->replica(0);
    const std::string p = engine.metric_prefix();
    const GenerationScheduler& sched = engine.scheduler();
    EXPECT_EQ(reg.counter_value(p + "admitted"), sched.total_admitted())
        << name;
    EXPECT_EQ(reg.counter_value(p + "preemptions"), sched.total_preempted())
        << name;
    EXPECT_EQ(reg.counter_value(p + "resumes"), sched.total_resumed())
        << name;
    EXPECT_EQ(reg.counter_value(p + "steps"),
              static_cast<uint64_t>(engine.iterations()))
        << name;
  }
  EXPECT_GT(engine_a.scheduler().total_preempted(), 0u);
  // Steps count only calls that ran rows; b had busy calls that ran none.
  EXPECT_LT(engine_b.iterations(), busy_b);

  // Each busy engine call is one attributed step: no attributed step
  // spans two calls, and idle calls add none.
  ASSERT_EQ(server.trace_ring()->dropped(), 0u);
  const obs::PhaseAttribution attr =
      obs::attribute_phases(server.trace_spans());
  EXPECT_EQ(attr.iterations, static_cast<size_t>(busy_a + busy_b));
}

TEST(MultiModelServer, IdleEngineRecordsNoSpans) {
  // Model b is registered but never submitted to, so the server's step
  // loop calls its engine every iteration with nothing to do. Those calls
  // must return at once: no span on the shared ring, no attributed step.
  MultiModelOptions options;
  options.engine = small_engine();
  options.engine.trace.enabled = true;
  MultiModelGenerationServer server(options);
  server.register_bundle(make_bundle("a", 1, tiny(), /*seed=*/91));
  server.register_bundle(make_bundle("b", 1, tiny(), /*seed=*/92));

  Rng rng(0x1D1E);
  for (int i = 0; i < 3; ++i) {
    server.submit(make_request(rng, i, 5 + i, 8, "a"));
  }
  int64_t calls = 0;
  while (!server.idle()) {
    server.step();
    ++calls;
  }
  ASSERT_EQ(server.take_completed().size(), 3u);
  ASSERT_GT(calls, 1);

  const auto* idle_set = server.replica_set("b", 1);
  EXPECT_EQ(idle_set->replica(0).iterations(), 0);
  size_t b_spans = 0;
  for (const auto& span : server.trace_spans()) {
    if (std::string(span.model) == idle_set->replica_label(0)) ++b_spans;
  }
  EXPECT_EQ(b_spans, 0u) << "idle engine recorded spans over " << calls
                         << " calls";
}

TEST(MultiModelServer, ReclaimShedsPendingEncodeJobsInsteadOfLivelocking) {
  // Two seq2seq models on a two-wide-slab budget, the wide model stepping
  // first: its two admits take the whole budget, and their encode jobs (23
  // and 47 source tokens) cannot share one 64-token quantum, so one is
  // always pending when the starved model's reclaim sheds. If a pending
  // encode were unpreemptible, every shed would park the sequence that had
  // just encoded (freeing no slab) and the run would never finish; it must
  // instead drain in bounded steps, bit-identical to dedicated engines.
  GenServerOptions engine;
  engine.pool.block_tokens = 8;
  engine.pool.blocks_per_slab = 16;
  engine.scheduler.max_active = 4;
  engine.scheduler.step_token_quantum = 64;
  auto base = make_bundle("base", 1, model::ModelConfig::tiny(2, 64, 4, 128,
                                                              1000),
                          /*seed=*/2021);
  auto wide = make_bundle("wide", 1, model::ModelConfig::tiny(2, 128, 8, 256,
                                                              1000),
                          /*seed=*/2022);
  Rng rng(7);
  std::vector<serving::GenerationRequest> requests;
  int64_t id = 0;
  for (const int src_len : {5, 23, 11, 47, 8, 31}) {
    serving::GenerationRequest r;
    r.id = id;
    r.src_tokens = rng.token_ids(src_len, 1000);
    r.max_new_tokens = 6 + src_len / 4;
    r.model = id % 2 == 0 ? "base" : "wide";
    ++id;
    requests.push_back(std::move(r));
  }
  std::map<int64_t, std::vector<int>> reference;
  for (const auto& bundle : {base, wide}) {
    GenerationServer dedicated(bundle, engine);
    for (auto r : requests) {
      if (r.model != bundle->name) continue;
      r.model.clear();
      dedicated.submit(std::move(r));
    }
    for (auto& resp : dedicated.run_to_completion()) {
      reference[resp.request_id] = std::move(resp.tokens);
    }
  }

  MultiModelOptions options;
  options.engine = engine;
  options.total_kv_bytes = 256 * 1024;
  MultiModelGenerationServer server(options);
  server.register_bundle(base, options.total_kv_bytes / 2);
  server.register_bundle(wide, options.total_kv_bytes / 2);
  server.step();  // idle: only rotates the step order, so wide goes first
  for (const auto& r : requests) server.submit(r);
  int steps = 0;
  while (!server.idle() && steps < 500) {
    server.step();
    ++steps;
  }
  ASSERT_TRUE(server.idle()) << "no progress after " << steps << " steps";
  std::map<int64_t, std::vector<int>> tokens;
  for (auto& resp : server.take_completed()) {
    tokens[resp.request_id] = std::move(resp.tokens);
  }
  EXPECT_EQ(tokens, reference);
  EXPECT_GT(server.total_reclaims(), 0u) << "the budget never contended";
  EXPECT_EQ(server.budget().used_bytes(), 0u);
}

TEST(MultiModelServer, SharedBudgetOutusesStaticHalvesUnderSkewedLoad) {
  // Two models with different block geometry on one budget B, under
  // skewed load: 32 "heavy" requests with generous output budgets against
  // a 6-request "light" trickle; each request's EOS is a token its own
  // dedicated greedy run emits near a drawn position, so it stops early.
  // Static halves (max_bytes = B/2 per server, one step each per round)
  // strand the light model's idle half; the shared budget lends it to the
  // heavy model and takes it back through the reclaim path. Both schemes
  // must match the dedicated servers bit for bit.
  const auto heavy_config = model::ModelConfig::tiny(2, 64, 4, 128, 500);
  auto heavy = make_bundle("heavy", 1, heavy_config, /*seed=*/31);
  auto light = make_bundle("light", 1,
                           model::ModelConfig::tiny(2, 32, 2, 64, 500),
                           /*seed=*/32);
  GenServerOptions engine;
  engine.pool.block_tokens = 8;
  engine.pool.blocks_per_slab = 8;
  engine.scheduler.max_active = 8;
  const auto dedicated = [&](const std::shared_ptr<ModelBundle>& bundle,
                             const std::vector<serving::GenerationRequest>&
                                 reqs) {
    GenerationServer server(bundle, engine);
    for (const auto& r : reqs) server.submit(r);
    std::map<int64_t, std::vector<int>> tokens;
    for (auto& resp : server.run_to_completion()) {
      tokens[resp.request_id] = std::move(resp.tokens);
    }
    return tokens;
  };

  Rng rng(0x3350);
  bench::TenantSpec heavy_tenant;
  heavy_tenant.model = "heavy";
  heavy_tenant.requests = 32;
  heavy_tenant.src_lo = 6;
  heavy_tenant.src_hi = 16;
  heavy_tenant.max_new_tokens = 48;
  bench::TenantSpec light_tenant;
  light_tenant.model = "light";
  light_tenant.requests = 6;
  light_tenant.id_base = 1000;
  auto heavy_reqs =
      bench::trace_requests(bench::make_tenant_trace(heavy_tenant, rng));
  auto light_reqs =
      bench::trace_requests(bench::make_tenant_trace(light_tenant, rng));
  bench::assign_natural_eos(heavy_reqs, dedicated(heavy, heavy_reqs), rng, 8,
                            24);
  bench::assign_natural_eos(light_reqs, dedicated(light, light_reqs), rng, 4,
                            10);
  auto reference = dedicated(heavy, heavy_reqs);
  reference.merge(dedicated(light, light_reqs));

  // B = 8 heavy-model slabs: a static half is 4 (one worst-case heavy
  // request alone wants ~2), far more than the light trickle ever fills.
  const size_t total = 8 * (8 * 8 * heavy_config.kv_bytes_per_token() /
                            heavy_config.num_layers);

  const auto expect_reference =
      [&](const std::vector<serving::GenerationResponse>& responses,
          const char* scheme) {
        EXPECT_EQ(responses.size(), reference.size()) << scheme;
        for (const auto& resp : responses) {
          EXPECT_EQ(resp.tokens, reference.at(resp.request_id))
              << scheme << " request " << resp.request_id;
        }
      };

  // Mean over rounds of aggregate used bytes / B.
  double static_util = 0.0;
  {
    GenServerOptions half = engine;
    half.pool.max_bytes = total / 2;
    GenerationServer heavy_server(heavy, half);
    GenerationServer light_server(light, half);
    for (const auto& r : heavy_reqs) heavy_server.submit(r);
    for (const auto& r : light_reqs) light_server.submit(r);
    size_t used_sum = 0;
    size_t rounds = 0;
    while (!heavy_server.idle() || !light_server.idle()) {
      heavy_server.step();
      light_server.step();
      used_sum += heavy_server.pool().stats().current_device_bytes +
                  light_server.pool().stats().current_device_bytes;
      ++rounds;
    }
    auto responses = heavy_server.take_completed();
    for (auto& r : light_server.take_completed()) {
      responses.push_back(std::move(r));
    }
    expect_reference(responses, "static halves");
    static_util = static_cast<double>(used_sum) /
                  (static_cast<double>(rounds) * static_cast<double>(total));
  }

  double shared_util = 0.0;
  {
    MultiModelOptions options;
    options.engine = engine;
    options.total_kv_bytes = total;
    MultiModelGenerationServer server(options);
    server.register_bundle(heavy, total / 2);
    server.register_bundle(light, total / 2);
    for (const auto& r : heavy_reqs) server.submit(r);
    for (const auto& r : light_reqs) server.submit(r);
    size_t used_sum = 0;
    size_t rounds = 0;
    while (!server.idle()) {
      server.step();
      used_sum += server.budget().used_bytes();
      ++rounds;
    }
    expect_reference(server.take_completed(), "shared budget");
    size_t preemptions = 0;
    for (const auto& s : server.stats()) preemptions += s.pool.preemptions;
    EXPECT_GT(preemptions, 0u) << "the skew never contended";
    EXPECT_LE(server.budget().snapshot().peak_used_bytes, total);
    EXPECT_EQ(server.budget().used_bytes(), 0u);
    shared_util = static_cast<double>(used_sum) /
                  (static_cast<double>(rounds) * static_cast<double>(total));
  }
  // Structural: borrowed slabs turn the light model's stranded half into
  // working memory. Read 1.90x (93.3% vs 49.2%) when this was recorded.
  EXPECT_GT(shared_util, 1.2 * static_util)
      << "shared " << shared_util << " vs static " << static_util;
}

TEST(MultiModelServer, ReplicatedModelBitIdenticalWithPerReplicaStats) {
  // replicas=2 behind the router: same bundle, same budget discipline —
  // outputs match the dedicated single-engine run bit-exactly, and stats()
  // reports one row per replica with the guarantee split between them.
  auto bundle = make_bundle("m", 1, tiny(), /*seed=*/41);
  Rng rng(0x2E9);
  std::vector<serving::GenerationRequest> requests;
  for (int i = 0; i < 10; ++i) {
    auto r = make_request(rng, i, 5 + i % 4, 12, "m");
    r.priority = i % 3 == 0 ? 2 : (i % 3 == 1 ? 0 : -1);
    requests.push_back(std::move(r));
  }
  const auto ref = dedicated_reference(bundle, requests);

  MultiModelOptions options;
  options.engine = small_engine();
  const size_t slab = 4ull * 2 * 4 * 32 * sizeof(float);
  options.total_kv_bytes = 4 * slab;
  options.router.use_observed_cost = false;
  MultiModelGenerationServer server(options);
  server.register_bundle(bundle, 4 * slab, /*overrides=*/{}, /*replicas=*/2);
  ASSERT_NE(server.replica_set("m", 1), nullptr);
  EXPECT_EQ(server.replica_set("m", 1)->size(), 2u);

  for (const auto& r : requests) server.submit(r);
  std::map<int64_t, std::vector<int>> tokens;
  for (auto& resp : server.run_to_completion()) {
    tokens[resp.request_id] = std::move(resp.tokens);
  }
  ASSERT_EQ(tokens.size(), requests.size());
  for (const auto& [id, toks] : ref) EXPECT_EQ(tokens.at(id), toks);

  const auto stats = server.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].label, "m:v1");
  EXPECT_EQ(stats[0].replica, 0);
  EXPECT_EQ(stats[1].label, "m:v1#1");
  EXPECT_EQ(stats[1].replica, 1);
  EXPECT_EQ(stats[0].budget_guarantee_bytes, 2 * slab);
  EXPECT_EQ(stats[1].budget_guarantee_bytes, 2 * slab);
  EXPECT_EQ(stats[0].served + stats[1].served, requests.size());
  // Both replicas actually took traffic (the router spread the load).
  EXPECT_GT(stats[0].served, 0u);
  EXPECT_GT(stats[1].served, 0u);
  EXPECT_EQ(server.budget().used_bytes(), 0u);
}

TEST(MultiModelServer, PerModelStatsBreakdown) {
  MultiModelGenerationServer server;
  server.register_bundle(make_bundle("a", 1, tiny(), 1), 0, small_engine());
  server.register_bundle(make_bundle("b", 1, tiny(), 2), 0, small_engine());
  Rng rng(9);
  server.submit(make_request(rng, 0, 6, 4, "a"));
  server.submit(make_request(rng, 1, 6, 4, "a"));
  server.submit(make_request(rng, 2, 6, 4, "b"));
  // The first iteration only runs the prompts' encode jobs; read the
  // breakdown after the first one that runs decoder rows.
  std::vector<ModelServingStats> stats;
  do {
    ASSERT_GT(server.step(), 0);
    stats = server.stats();
    ASSERT_EQ(stats.size(), 2u);
  } while (stats[0].last_step.step_rows == 0);
  EXPECT_EQ(stats[0].name, "a");
  EXPECT_EQ(stats[0].active, 2u);
  EXPECT_EQ(stats[0].last_step.active, 2);
  EXPECT_GT(stats[0].pool.bytes_in_use, 0u);
  EXPECT_EQ(stats[1].name, "b");
  EXPECT_EQ(stats[1].active, 1u);
  server.run_to_completion();
  const auto drained = server.stats();
  EXPECT_EQ(drained[0].served, 2u);
  EXPECT_EQ(drained[1].served, 1u);
  EXPECT_EQ(drained[0].pool.bytes_in_use, 0u);
}

// ----------------------------------------------------- decoder-only route --

TEST(MultiModelServer, DecoderOnlyBundleServesAlongsideSeq2Seq) {
  // A GPT-style bundle and a seq2seq bundle behind one router: requests
  // route by name, the causal engine runs prefill through the step loop
  // (with radix prefix sharing on repeats), and each model's outputs match
  // a dedicated single-model server over the same bundle bit-exactly.
  const auto causal_config = model::ModelConfig::tiny_causal(2, 32, 2, 64, 50);
  auto seq2seq = make_bundle("a", 1, tiny(), /*seed=*/11);
  auto gpt = make_decoder_only_bundle("g", 1, causal_config, /*seed=*/13);
  EXPECT_FALSE(seq2seq->decoder_only());
  EXPECT_TRUE(gpt->decoder_only());

  MultiModelGenerationServer server;
  server.register_bundle(seq2seq, 0, small_engine());
  server.register_bundle(gpt, 0, small_engine());

  Rng rng(17);
  const auto shared_prompt = rng.token_ids(9, 50);
  std::vector<serving::GenerationRequest> gpt_requests;
  for (int i = 0; i < 4; ++i) {
    auto r = make_request(rng, i, 6, 5, "g");
    if (i >= 2) r.src_tokens = shared_prompt;  // repeats hit the radix tier
    gpt_requests.push_back(std::move(r));
  }
  std::vector<serving::GenerationRequest> seq_requests;
  for (int i = 0; i < 2; ++i) {
    seq_requests.push_back(make_request(rng, 10 + i, 6, 5, "a"));
  }

  const auto gpt_ref = dedicated_reference(gpt, gpt_requests);
  const auto seq_ref = dedicated_reference(seq2seq, seq_requests);

  for (const auto& r : gpt_requests) server.submit(r);
  for (const auto& r : seq_requests) server.submit(r);
  std::map<int64_t, std::vector<int>> tokens;
  for (auto& resp : server.run_to_completion()) {
    tokens[resp.request_id] = std::move(resp.tokens);
  }
  ASSERT_EQ(tokens.size(), gpt_requests.size() + seq_requests.size());
  for (const auto& [id, expect] : gpt_ref) {
    EXPECT_EQ(tokens.at(id), expect) << "gpt request " << id;
  }
  for (const auto& [id, expect] : seq_ref) {
    EXPECT_EQ(tokens.at(id), expect) << "seq2seq request " << id;
  }

  const auto stats = server.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "a");
  EXPECT_EQ(stats[0].served, seq_requests.size());
  EXPECT_EQ(stats[1].name, "g");
  EXPECT_EQ(stats[1].served, gpt_requests.size());
}

TEST(MultiModelServer, MixedBlockGeometriesShareOneSlabBudget) {
  // Two decoder-only bundles with different block_tokens (1 KiB and
  // 1.5 KiB blocks, so differently sized slabs) contend for one shared
  // byte budget: every borrow and reclaim moves a whole slab of the
  // donor's geometry. Outputs must stay bit-identical to dedicated
  // uncontended servers, the budget must actually contend, and it must
  // never be over-committed.
  const auto cfg = model::ModelConfig::tiny_causal(2, 32, 2, 64, 50);
  auto g1 = make_decoder_only_bundle("g1", 1, cfg, /*seed=*/13);
  auto g2 = make_decoder_only_bundle("g2", 1, cfg, /*seed=*/17);
  const auto engine = [](int block_tokens) {
    GenServerOptions o = small_engine();
    o.pool.block_tokens = block_tokens;
    return o;
  };

  Rng rng(0xF4A6);
  std::vector<serving::GenerationRequest> reqs1, reqs2;
  for (int i = 0; i < 6; ++i) {
    reqs1.push_back(make_request(rng, i, 6 + i, 12, "g1"));
    reqs2.push_back(make_request(rng, 100 + i, 5 + i, 12, "g2"));
  }

  const auto dedicated = [&](const std::shared_ptr<ModelBundle>& bundle,
                             const std::vector<serving::GenerationRequest>&
                                 reqs,
                             int block_tokens) {
    GenerationServer server(bundle, engine(block_tokens));
    for (const auto& r : reqs) server.submit(r);
    std::map<int64_t, std::vector<int>> tokens;
    for (auto& resp : server.run_to_completion()) {
      tokens[resp.request_id] = std::move(resp.tokens);
    }
    return tokens;
  };
  const auto ref1 = dedicated(g1, reqs1, 4);
  const auto ref2 = dedicated(g2, reqs2, 6);

  MultiModelOptions options;
  options.engine = engine(4);
  // Tight enough that twelve sequences contend and preempt across the
  // guarantee floors, but each guarantee still covers one worst-case
  // sequence (~12 KiB) so every engine always makes progress.
  options.total_kv_bytes = 24 * 1024;
  MultiModelGenerationServer server(options);
  server.register_bundle(g1, 12 * 1024, engine(4));
  server.register_bundle(g2, 12 * 1024, engine(6));
  for (const auto& r : reqs1) server.submit(r);
  for (const auto& r : reqs2) server.submit(r);
  std::map<int64_t, std::vector<int>> tokens;
  for (auto& resp : server.run_to_completion()) {
    tokens[resp.request_id] = std::move(resp.tokens);
  }

  ASSERT_EQ(tokens.size(), reqs1.size() + reqs2.size());
  for (const auto& [id, toks] : ref1) EXPECT_EQ(tokens.at(id), toks);
  for (const auto& [id, toks] : ref2) EXPECT_EQ(tokens.at(id), toks);
  size_t preemptions = 0;
  for (const auto& s : server.stats()) preemptions += s.pool.preemptions;
  EXPECT_GT(preemptions, 0u) << "the budget never contended";
  // Radix-cached prefixes stay charged after drain, so the budget is not
  // empty here; it was just never over-committed.
  EXPECT_LE(server.budget().snapshot().peak_used_bytes,
            options.total_kv_bytes);
}

// ------------------------------------------------------------ async shell --

TEST(AsyncMultiModelServer, RoutesStreamsAndHotRegisters) {
  AsyncMultiModelGenerationServer server;
  auto a1 = make_bundle("a", 1, tiny(), /*seed=*/51);
  auto b1 = make_bundle("b", 1, tiny(), /*seed=*/52);
  server.register_bundle(a1, 0, small_engine()).get();
  server.register_bundle(b1, 0, small_engine()).get();

  Rng rng(10);
  std::mutex stream_mutex;
  std::map<int64_t, std::vector<int>> streamed;
  std::vector<std::future<serving::GenerationResponse>> futures;
  std::vector<serving::GenerationRequest> requests;
  for (int i = 0; i < 8; ++i) {
    requests.push_back(
        make_request(rng, i, 5 + i % 3, 6, i % 2 == 0 ? "a" : "b"));
  }
  for (const auto& r : requests) {
    futures.push_back(server.submit(
        r, [&](int64_t id, int token, int step, bool last) {
          std::lock_guard<std::mutex> lock(stream_mutex);
          auto& toks = streamed[id];
          EXPECT_EQ(static_cast<int>(toks.size()), step);
          toks.push_back(token);
          (void)last;
        }));
  }
  std::map<int64_t, std::vector<int>> tokens;
  for (auto& f : futures) {
    auto resp = f.get();
    tokens[resp.request_id] = std::move(resp.tokens);
  }
  // Hot-register a:v2 while the server is live; subsequent latest-routed
  // traffic lands on it.
  auto a2 = make_bundle("a", 2, tiny(), /*seed=*/53);
  server.register_bundle(a2, 0, small_engine()).get();
  auto late = make_request(rng, 100, 6, 5, "a");
  const auto resp_late = server.submit(late).get();
  EXPECT_EQ(resp_late.tokens, dedicated_reference(a2, {late}).at(100));

  // Unknown routes reject their future, not the process.
  auto bad = server.submit(make_request(rng, 101, 5, 4, "nope"));
  EXPECT_THROW(bad.get(), CheckError);

  server.shutdown();
  EXPECT_EQ(server.served(), requests.size() + 1);
  const auto stats = server.model_stats();
  ASSERT_EQ(stats.size(), 3u);
  size_t served = 0;
  for (const auto& s : stats) served += s.served;
  EXPECT_EQ(served, requests.size() + 1);

  // Streamed tokens match the final responses (a trailing EOS token is
  // streamed but excluded from the response).
  for (const auto& [id, toks] : tokens) {
    const auto& st = streamed.at(id);
    ASSERT_GE(st.size(), toks.size());
    EXPECT_TRUE(std::equal(toks.begin(), toks.end(), st.begin()));
  }
  for (const auto& r : requests) {
    auto bundle = r.model == "a" ? a1 : b1;
    EXPECT_EQ(tokens.at(r.id), dedicated_reference(bundle, {r}).at(r.id));
  }
}

TEST(AsyncMultiModelServer, UnregisterDrainsThenUnpins) {
  AsyncMultiModelGenerationServer server;
  auto bundle = make_bundle("m", 1, tiny(), /*seed=*/61);
  std::weak_ptr<ModelBundle> weak = bundle;
  server.register_bundle(bundle, 0, small_engine()).get();

  Rng rng(11);
  const auto request = make_request(rng, 0, 8, 10, "m");
  // Gate the unregistration on the first streamed token, so the sequence
  // is demonstrably mid-decode (admitted, not merely queued) when the
  // route disappears — that is the pin this test is about.
  std::promise<void> first_token;
  auto started = first_token.get_future();
  bool signalled = false;
  auto fut = server.submit(
      request, [&](int64_t, int, int, bool) {
        if (!signalled) {
          signalled = true;
          first_token.set_value();
        }
      });
  started.wait();
  EXPECT_TRUE(server.unregister_bundle("m", 1).get());
  EXPECT_FALSE(server.unregister_bundle("m", 1).get());
  // New traffic cannot route to the unregistered model...
  auto rejected = server.submit(make_request(rng, 1, 5, 4, "m"));
  EXPECT_THROW(rejected.get(), CheckError);
  // ...but the in-flight sequence finishes on the pinned bundle,
  // bit-identical to a dedicated run over the same weights.
  const auto resp = fut.get();
  EXPECT_GE(resp.steps, 1);
  EXPECT_EQ(resp.tokens, dedicated_reference(bundle, {request}).at(0));
  server.shutdown();
  bundle.reset();
  EXPECT_TRUE(weak.expired()) << "drained engine failed to unpin its bundle";
}

// ---------------------------------------------------------- observability --

TEST(MultiModelServer, SharedTraceRingAndRegistryAcrossEngines) {
  MultiModelOptions options;
  options.engine = small_engine();
  options.engine.trace.enabled = true;
  MultiModelGenerationServer server(options);
  server.register_bundle(make_bundle("a", 1, tiny(), /*seed=*/11), 0,
                         options.engine);
  server.register_bundle(make_bundle("b", 1, tiny(), /*seed=*/22), 0,
                         options.engine);
  ASSERT_NE(server.trace_ring(), nullptr);

  Rng rng(9);
  const int per_model = 3;
  for (int i = 0; i < per_model; ++i) {
    server.submit(make_request(rng, i, 5, 4, "a"));
    server.submit(make_request(rng, 100 + i, 5, 4, "b"));
  }
  const auto responses = server.run_to_completion();
  EXPECT_EQ(responses.size(), 2u * per_model);

  // Both engines share one ring, so the drained timeline interleaves the
  // two models' phase spans on one clock.
  bool saw_a = false, saw_b = false;
  for (const auto& s : server.trace_spans()) {
    if (std::string_view(s.model) == "a:v1") saw_a = true;
    if (std::string_view(s.model) == "b:v1") saw_b = true;
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);

  // One registry too: per-engine counters plus server-level totals, and
  // stats() is a view over it rather than a separately-maintained count.
  const auto& reg = *server.metrics();
  EXPECT_EQ(server.served_total(), 2u * per_model);
  EXPECT_EQ(reg.counter_value("gen.server.requests_completed"),
            2u * per_model);
  EXPECT_EQ(reg.counter_value("gen.a:v1.requests_completed"),
            static_cast<uint64_t>(per_model));
  EXPECT_EQ(reg.counter_value("gen.b:v1.requests_completed"),
            static_cast<uint64_t>(per_model));
  size_t served_from_stats = 0;
  for (const auto& s : server.stats()) served_from_stats += s.served;
  EXPECT_EQ(served_from_stats, 2u * per_model);
}

}  // namespace
}  // namespace turbo::genserve
