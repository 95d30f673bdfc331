// Sharded replica serving: ReplicaSet identity/guarantee wiring, Router
// placement policies (round-robin, least-loaded, SLO-aware with the
// routing-denial fallback) and their observability, and the headline
// property — routed N-replica serving is bit-identical to an uncontended
// single-engine reference, preemption, hot registration and all, because
// placement only decides WHERE a sequence runs, never WHAT it decodes.
// SLO-aware placement must also beat round-robin on deterministic
// (virtual-step) goodput.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/check.h"
#include "common/rng.h"
#include "genserve/generation_server.h"
#include "genserve/model_bundle.h"
#include "genserve/multi_model_server.h"
#include "memory/slab_budget.h"
#include "obs/trace.h"
#include "router/replica_set.h"
#include "router/router.h"
#include "serving/routing_policy.h"

namespace turbo::router {
namespace {

model::ModelConfig tiny() { return model::ModelConfig::tiny(2, 32, 2, 64, 50); }

genserve::GenServerOptions small_engine() {
  genserve::GenServerOptions o;
  o.pool.block_tokens = 4;
  o.pool.blocks_per_slab = 4;
  o.scheduler.max_active = 4;
  return o;
}

serving::GenerationRequest make_request(Rng& rng, int64_t id, int src_len,
                                        int max_new, int priority = 0) {
  serving::GenerationRequest r;
  r.id = id;
  r.src_tokens = rng.token_ids(src_len, 50);
  r.max_new_tokens = max_new;
  r.bos_id = 1;
  r.eos_id = 2;
  r.priority = priority;
  return r;
}

// Uncontended single-engine run over the same bundle: the bit-identity
// oracle every routed configuration must reproduce.
std::map<int64_t, std::vector<int>> dedicated_reference(
    const std::shared_ptr<genserve::ModelBundle>& bundle,
    const std::vector<serving::GenerationRequest>& requests) {
  genserve::GenerationServer server(bundle, small_engine());
  for (const auto& r : requests) server.submit(r);
  std::map<int64_t, std::vector<int>> tokens;
  for (auto& resp : server.run_to_completion()) {
    tokens[resp.request_id] = std::move(resp.tokens);
  }
  return tokens;
}

// ------------------------------------------------------------- ReplicaSet --

TEST(ReplicaSetTest, LabelsGuaranteeSplitAndSharedAttachments) {
  memory::SlabBudget budget(1 << 20);
  auto opts = small_engine();
  opts.pool.slab_budget = &budget;
  opts.trace.enabled = true;
  ReplicaSet set(genserve::make_bundle("m", 1, tiny(), 5), opts,
                 /*guarantee_bytes=*/10 * 1024, /*replicas=*/3);

  ASSERT_EQ(set.size(), 3u);
  // Replica 0 keeps the plain bundle label (single-replica sets are
  // bit-identical to the pre-replica engine, metric names included).
  EXPECT_EQ(set.replica_label(0), "m:v1");
  EXPECT_EQ(set.replica_label(1), "m:v1#1");
  EXPECT_EQ(set.replica_label(2), "m:v1#2");
  EXPECT_EQ(set.replica(0).metric_prefix(), "gen.m:v1.");
  EXPECT_EQ(set.replica(1).metric_prefix(), "gen.m:v1#1.");

  // Even guarantee split, remainder to replica 0.
  EXPECT_EQ(set.replica_guarantee_bytes(0), 10 * 1024 / 3 + 10 * 1024 % 3);
  EXPECT_EQ(set.replica_guarantee_bytes(1), 10 * 1024 / 3);
  EXPECT_EQ(set.replica_guarantee_bytes(2), 10 * 1024 / 3);

  // One registry and one trace ring across the set.
  EXPECT_EQ(set.replica(0).metrics(), set.replica(1).metrics());
  EXPECT_EQ(set.replica(0).metrics(), set.replica(2).metrics());
  ASSERT_NE(set.replica(0).trace_ring(), nullptr);
  EXPECT_EQ(set.replica(0).trace_ring(), set.replica(2).trace_ring());
}

TEST(ReplicaSetTest, StepOrderRotatesThenLeadsWithStarvedUnits) {
  // Rotation start 7 % 5 = 2; blocked units {0, 3, 4} move ahead of the
  // rest, and the under-guarantee one among them (4) leads. Both moves
  // keep the rotation's relative order.
  const std::vector<size_t> blocked = {0, 3, 4};
  const auto order = starved_first_order(
      5, 7,
      [&](size_t i) {
        return std::find(blocked.begin(), blocked.end(), i) != blocked.end();
      },
      [](size_t i) { return i == 4; });
  EXPECT_EQ(order, (std::vector<size_t>{4, 3, 0, 2, 1}));
  EXPECT_EQ(starved_first_order(
                5, 7, [](size_t) { return false; },
                [](size_t) { return false; }),
            (std::vector<size_t>{2, 3, 4, 0, 1}));
  EXPECT_EQ(starved_first_order(
                1, 3, [](size_t) { return true; }, [](size_t) { return true; }),
            (std::vector<size_t>{0}));
}

TEST(ReplicaSetTest, RegisterBundleNeedsAtLeastOneReplica) {
  genserve::MultiModelGenerationServer server;
  EXPECT_THROW(server.register_bundle(genserve::make_bundle("m", 1, tiny(), 5),
                                      0, std::nullopt, /*replicas=*/0),
               CheckError);
  EXPECT_FALSE(server.serving("m", 1));
  EXPECT_TRUE(server.registry().versions("m").empty());
}

// ----------------------------------------------------------------- Router --

TEST(RouterTest, RoundRobinCyclesAndCounts) {
  ReplicaSet set(genserve::make_bundle("m", 1, tiny(), 5), small_engine(), 0,
                 /*replicas=*/3);
  RouterOptions ro;
  ro.policy = serving::DispatchPolicy::kRoundRobin;
  Router router(set, ro);

  Rng rng(1);
  for (int i = 0; i < 6; ++i) {
    const auto d = router.place(make_request(rng, i, 5, 4), 0.0);
    EXPECT_EQ(d.replica, static_cast<size_t>(i % 3));
  }
  const auto& reg = *set.replica(0).metrics();
  EXPECT_EQ(reg.counter_value("router.routed_total"), 6u);
  EXPECT_EQ(reg.counter_value("router.m:v1.routed"), 2u);
  EXPECT_EQ(reg.counter_value("router.m:v1#1.routed"), 2u);
  EXPECT_EQ(reg.counter_value("router.m:v1#2.routed"), 2u);
  EXPECT_EQ(reg.counter_value("router.denial_fallbacks"), 0u);
}

TEST(RouterTest, LeastLoadedFollowsChargedBacklog) {
  ReplicaSet set(genserve::make_bundle("m", 1, tiny(), 5), small_engine(), 0,
                 /*replicas=*/3);
  RouterOptions ro;
  ro.policy = serving::DispatchPolicy::kLeastLoaded;
  ro.use_observed_cost = false;  // placement = pure function of the trace
  Router router(set, ro);

  Rng rng(2);
  // Charged work is src + max_new rows; ties resolve to the lowest index.
  const int sizes[][2] = {{10, 20}, {5, 5}, {5, 5}, {2, 3}, {2, 3}};
  const size_t expected[] = {0, 1, 2, 1, 2};
  for (size_t i = 0; i < 5; ++i) {
    const auto d = router.place(
        make_request(rng, static_cast<int64_t>(i), sizes[i][0], sizes[i][1]),
        0.0);
    EXPECT_EQ(d.replica, expected[i]) << "placement " << i;
  }
  EXPECT_GT(router.backlog(0, 0.0), router.backlog(2, 0.0));
}

TEST(RouterTest, SloAwarePlacementFallbackAndSpans) {
  auto opts = small_engine();
  opts.trace.enabled = true;
  ReplicaSet set(genserve::make_bundle("m", 1, tiny(), 5), opts, 0,
                 /*replicas=*/3);
  RouterOptions ro;
  ro.use_observed_cost = false;
  Router router(set, ro);

  Rng rng(3);
  // Tight request on an idle set: least-backlog replica 0, no fallback.
  const auto t1 = make_request(rng, 0, 4, 20, /*priority=*/2);
  const auto d1 = router.place(t1, 0.0);
  EXPECT_EQ(d1.replica, 0u);
  EXPECT_EQ(d1.slo, serving::SloClass::kTight);
  EXPECT_FALSE(d1.fallback);

  // Standard: least predicted backlog (replica 0 carries t1's 24 rows).
  const auto s1 = make_request(rng, 1, 4, 4, /*priority=*/0);
  const auto d2 = router.place(s1, 0.0);
  EXPECT_EQ(d2.replica, 1u);
  EXPECT_EQ(d2.slo, serving::SloClass::kStandard);

  // Out-of-band load on replica 2 the backlog model never saw: the next
  // tight request ranks replica 2 least-loaded, sees its waiting queue,
  // and takes the denial fallback to replica 1 (queue empty, KV headroom).
  set.replica(2).submit(make_request(rng, 100, 4, 4));
  const auto t2 = make_request(rng, 2, 4, 4, /*priority=*/2);
  const auto d3 = router.place(t2, 0.0);
  EXPECT_EQ(d3.replica, 1u);
  EXPECT_TRUE(d3.fallback);

  // Batch consolidates onto the deepest predicted backlog (replica 0),
  // keeping the lighter lanes clear for the tight classes.
  const auto b1 = make_request(rng, 3, 4, 4, /*priority=*/-1);
  const auto d4 = router.place(b1, 0.0);
  EXPECT_EQ(d4.replica, 0u);
  EXPECT_EQ(d4.slo, serving::SloClass::kBatch);

  const auto& reg = *set.replica(0).metrics();
  EXPECT_EQ(reg.counter_value("router.routed_total"), 4u);
  EXPECT_EQ(reg.counter_value("router.routed_tight"), 2u);
  EXPECT_EQ(reg.counter_value("router.routed_standard"), 1u);
  EXPECT_EQ(reg.counter_value("router.routed_batch"), 1u);
  EXPECT_EQ(reg.counter_value("router.denial_fallbacks"), 1u);
  EXPECT_GT(reg.gauge_value("router.m:v1.backlog"), 0.0);

  // Every placement is one kRoute span; the fallback one is marked.
  std::vector<obs::TraceSpan> routes;
  for (const auto& s : set.replica(0).trace_ring()->snapshot()) {
    if (s.kind == obs::SpanKind::kRoute) routes.push_back(s);
  }
  ASSERT_EQ(routes.size(), 4u);
  const auto& fb = routes[2];
  EXPECT_EQ(fb.seq, t2.id);
  EXPECT_EQ(fb.batch, 1);  // chosen replica index
  EXPECT_EQ(fb.tokens, static_cast<int>(serving::SloClass::kTight));
  EXPECT_EQ(fb.bytes, 1u);  // denial fallback taken
  EXPECT_STREQ(fb.model, "m:v1");
  EXPECT_STREQ(fb.peer, "m:v1#1");
  EXPECT_EQ(routes[0].bytes, 0u);
  EXPECT_STREQ(routes[3].peer, "m:v1");
}

// ---------------------------------------------------------------- goodput --

// SLO goodput: tokens of requests that finished inside their deadline.
// One model on three replicas under a shared budget, fed a bursty trace
// of three tenants: a tight-SLO trickle (priority 2), a standard stream
// and a deep-prompt batch backfill (priority -1). Deadlines are virtual
// steps scaled from each request's own uncontended token count, and the
// router reads no clock (use_observed_cost = false), so which requests
// attain is a pure function of the placements.
TEST(RouterTest, SloAwareBeatsRoundRobinOnSloGoodput) {
  const auto config = model::ModelConfig::tiny(2, 64, 4, 128, 500);
  auto bundle = genserve::make_bundle("chat", 1, config, 77);
  genserve::GenServerOptions engine;
  engine.pool.block_tokens = 8;
  engine.pool.blocks_per_slab = 8;
  engine.scheduler.max_active = 6;

  Rng rng(0x5107);
  bench::TenantSpec tight;
  tight.requests = 24;
  tight.src_lo = 4;
  tight.src_hi = 8;
  tight.priority = 2;
  tight.burst = 3;
  tight.period = 5;
  bench::TenantSpec standard;
  standard.requests = 36;
  standard.id_base = 1000;
  standard.src_lo = 6;
  standard.src_hi = 14;
  standard.max_new_tokens = 32;
  standard.burst = 6;
  standard.period = 7;
  bench::TenantSpec batch;
  batch.requests = 16;
  batch.id_base = 2000;
  batch.src_lo = 10;
  batch.src_hi = 20;
  batch.max_new_tokens = 48;
  batch.priority = -1;
  batch.burst = 8;
  batch.period = 20;
  auto trace = bench::make_multi_tenant_trace({tight, standard, batch}, rng);
  const auto reference = [&] {
    genserve::GenerationServer server(bundle, engine);
    for (const auto& a : trace) server.submit(a.request);
    std::map<int64_t, std::vector<int>> tokens;
    for (auto& resp : server.run_to_completion()) {
      tokens[resp.request_id] = std::move(resp.tokens);
    }
    return tokens;
  };
  {
    // Natural EOS: each request stops near a drawn position in 6..20.
    auto reqs = bench::trace_requests(trace);
    bench::assign_natural_eos(reqs, reference(), rng, 6, 20);
    for (size_t i = 0; i < trace.size(); ++i) trace[i].request = reqs[i];
  }
  const auto ref = reference();

  // Budget: ~half the worst case, so the replicas contend.
  const size_t total =
      8 * (8 * 8 * config.kv_bytes_per_token() / config.num_layers);
  struct Goodput {
    size_t attained = 0;        // tokens of requests inside their deadline
    size_t attained_tight = 0;  // the tight class's share of those
  };
  const auto run = [&](serving::DispatchPolicy policy, int replicas) {
    genserve::MultiModelOptions options;
    options.engine = engine;
    options.engine.trace.enabled = true;
    options.total_kv_bytes = total;
    options.router.policy = policy;
    options.router.use_observed_cost = false;
    genserve::MultiModelGenerationServer server(options);
    server.register_bundle(bundle, total, std::nullopt, replicas);

    std::map<int64_t, int64_t> finish_step;
    std::map<int64_t, std::vector<int>> tokens;
    size_t next = 0;
    int64_t steps = 0;
    while (next < trace.size() || !server.idle()) {
      while (next < trace.size() && trace[next].arrival_step <= steps) {
        server.submit(trace[next++].request);
      }
      server.step();
      ++steps;
      for (auto& resp : server.take_completed()) {
        finish_step[resp.request_id] = steps;
        tokens[resp.request_id] = std::move(resp.tokens);
      }
    }
    EXPECT_EQ(tokens, ref) << "placement changed a token (replicas "
                           << replicas << ")";
    size_t route_spans = 0;
    for (const auto& span : server.trace_spans()) {
      if (span.kind == obs::SpanKind::kRoute) ++route_spans;
    }
    EXPECT_EQ(route_spans, trace.size()) << "one kRoute span per submit";

    // Deadline: arrival + stretch x tokens + slack, in driver steps, per
    // class (tight, standard, batch).
    constexpr int64_t kStretch[] = {2, 4, 10};
    constexpr int64_t kSlack[] = {6, 24, 120};
    Goodput g;
    for (const auto& a : trace) {
      const auto klass = serving::slo_class_of(a.request.priority);
      const auto c = static_cast<size_t>(klass);
      const size_t toks = ref.at(a.request.id).size();
      const int64_t deadline =
          a.arrival_step + kStretch[c] * static_cast<int64_t>(toks) +
          kSlack[c];
      if (finish_step.at(a.request.id) <= deadline) {
        g.attained += toks;
        if (klass == serving::SloClass::kTight) g.attained_tight += toks;
      }
    }
    return g;
  };
  const Goodput rr = run(serving::DispatchPolicy::kRoundRobin, 3);
  const Goodput slo = run(serving::DispatchPolicy::kSloAware, 3);
  run(serving::DispatchPolicy::kSloAware, 1);  // the single-engine path
  // Read 683 vs 558 attained tokens, 56 vs 41 tight, when recorded.
  EXPECT_GT(slo.attained, rr.attained);
  EXPECT_GE(slo.attained_tight, rr.attained_tight);
}

// --------------------------------------------------------------- property --

// Routed replica serving never changes a token: whatever the policy, the
// replica count, the budget contention (preempt/resume replay) or the
// registration churn, every response matches the uncontended
// single-engine reference bit for bit.
TEST(RouterPropertyTest, RoutedServingBitIdenticalUnderChurnAndPreemption) {
  const size_t slab = 4ull * 2 * 4 * 32 * sizeof(float);
  for (const uint64_t seed : {0xA11CEull, 0xB0Bull}) {
    Rng rng(seed);
    // Same weight seed for both versions: hot-registering v2 mid-run moves
    // the latest route without changing what any request decodes, so one
    // reference covers every routed response.
    auto v1 = genserve::make_bundle("m", 1, tiny(), 7);
    auto v2 = genserve::make_bundle("m", 2, tiny(), 7);

    std::vector<serving::GenerationRequest> requests;
    for (int i = 0; i < 24; ++i) {
      const int priorities[] = {-1, 0, 0, 2};
      requests.push_back(make_request(
          rng, i, static_cast<int>(rng.uniform_int(3, 8)),
          static_cast<int>(rng.uniform_int(4, 10)),
          priorities[rng.uniform_int(0, 3)]));
    }
    const auto ref = dedicated_reference(v1, requests);

    // 3 replicas under a budget far below joint worst-case demand:
    // placement spreads load, the shared budget forces preempt/replay.
    // Each replica's floor (3 slabs) covers one worst-case request (2
    // slabs) — the no-starvation contract register_bundle documents.
    genserve::MultiModelOptions options;
    options.engine = small_engine();
    options.total_kv_bytes = 9 * slab;
    options.router.use_observed_cost = false;
    genserve::MultiModelGenerationServer server(options);
    server.register_bundle(v1, 9 * slab, std::nullopt, /*replicas=*/3);

    for (int i = 0; i < 12; ++i) server.submit(requests[static_cast<size_t>(i)]);
    for (int i = 0; i < 8; ++i) server.step();

    // Hot registration under load: the latest route moves to v2 (its own
    // 3-replica set, guarantee 0 = pure borrower) for the second wave.
    server.register_bundle(v2, 0, std::nullopt, /*replicas=*/3);
    for (int i = 12; i < 24; ++i) {
      server.submit(requests[static_cast<size_t>(i)]);
    }
    for (int i = 0; i < 4; ++i) server.step();
    // Hot removal under load: v2 drains its in-flight sequences to
    // completion off-route.
    EXPECT_TRUE(server.unregister_bundle("m", 2));

    std::map<int64_t, std::vector<int>> tokens;
    for (auto& resp : server.run_to_completion()) {
      tokens[resp.request_id] = std::move(resp.tokens);
    }
    ASSERT_EQ(tokens.size(), requests.size());
    for (const auto& [id, expect] : ref) {
      EXPECT_EQ(tokens.at(id), expect) << "request " << id << " seed " << seed;
    }

    // The run actually contended: preemption counters survive engine
    // teardown in the shared registry.
    uint64_t preemptions = 0;
    const auto& reg = *server.metrics();
    for (const std::string label :
         {"m:v1", "m:v1#1", "m:v1#2", "m:v2", "m:v2#1", "m:v2#2"}) {
      preemptions += reg.counter_value("gen." + label + ".preemptions");
    }
    EXPECT_GT(preemptions, 0u) << "budget never actually contended";
    EXPECT_EQ(reg.counter_value("router.routed_total"), requests.size());
    EXPECT_EQ(server.budget().used_bytes(), 0u);
  }
}

}  // namespace
}  // namespace turbo::router
