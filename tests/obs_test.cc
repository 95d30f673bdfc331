// Observability subsystem tests: the lock-free trace ring (wraparound,
// overwrite-oldest under concurrent producers, drain-while-writing
// consistency), log-bucketed histogram quantiles against exact sample
// quantiles, the metrics registry and its exports, the offline
// attribution passes over synthetic span streams, trace serialization
// round-trips, and the registry-backed counter views on the generation
// servers (including the counters-survive-teardown contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "genserve/generation_server.h"
#include "genserve/model_bundle.h"
#include "genserve/multi_model_server.h"
#include "obs/metrics.h"
#include "obs/passes.h"
#include "obs/trace.h"
#include "obs/trace_io.h"

namespace turbo::obs {
namespace {

// --------------------------------------------------------------------------
// TraceRing

TraceSpan make_span(SpanKind kind, int64_t iteration, uint64_t start,
                    uint64_t end, int64_t seq = -1) {
  TraceSpan s;
  s.kind = kind;
  s.iteration = iteration;
  s.start_ticks = start;
  s.end_ticks = end;
  s.seq = seq;
  copy_name(s.model, "m:v1");
  return s;
}

TEST(TraceRingTest, RecordsAndSnapshotsInOrder) {
  TraceRing ring(16);
  for (int i = 0; i < 5; ++i) {
    ring.record(make_span(SpanKind::kDecodeStep, i, 100 * i, 100 * i + 7));
  }
  const auto spans = ring.snapshot();
  ASSERT_EQ(spans.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(spans[i].kind, SpanKind::kDecodeStep);
    EXPECT_EQ(spans[i].iteration, i);
    EXPECT_EQ(spans[i].start_ticks, 100u * i);
    EXPECT_EQ(spans[i].end_ticks, 100u * i + 7);
    EXPECT_STREQ(spans[i].model, "m:v1");
  }
  EXPECT_EQ(ring.total_recorded(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(1).capacity(), 2u);
  EXPECT_EQ(TraceRing(2).capacity(), 2u);
  EXPECT_EQ(TraceRing(5).capacity(), 8u);
  EXPECT_EQ(TraceRing(8).capacity(), 8u);
  EXPECT_EQ(TraceRing(1000).capacity(), 1024u);
}

TEST(TraceRingTest, WraparoundKeepsNewestSpans) {
  TraceRing ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  const int total = 20;
  for (int i = 0; i < total; ++i) {
    ring.record(make_span(SpanKind::kAdmit, i, i, i + 1));
  }
  const auto spans = ring.snapshot();
  // The ring holds exactly the last capacity() spans, oldest ticket first.
  ASSERT_EQ(spans.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(spans[i].iteration, total - 8 + i);
  }
  EXPECT_EQ(ring.total_recorded(), static_cast<uint64_t>(total));
  EXPECT_EQ(ring.dropped(), 0u);  // single writer never laps mid-write
}

TEST(TraceRingTest, OverwriteOldestUnderConcurrentProducers) {
  TraceRing ring(256);
  const int threads = 4;
  const int per_thread = 20000;
  std::vector<std::thread> producers;
  for (int t = 0; t < threads; ++t) {
    producers.emplace_back([&ring, t] {
      for (int i = 0; i < per_thread; ++i) {
        TraceSpan s = make_span(SpanKind::kDecodeStep, i,
                                /*start=*/i, /*end=*/i + 3, /*seq=*/t);
        s.tokens = i;
        // Self-consistency checksum: a torn span cannot satisfy it.
        s.bytes = static_cast<uint64_t>(t) * 1000003u +
                  static_cast<uint64_t>(i);
        ring.record(s);
      }
    });
  }
  for (auto& th : producers) th.join();

  EXPECT_EQ(ring.total_recorded(),
            static_cast<uint64_t>(threads) * per_thread);
  const auto spans = ring.snapshot();
  EXPECT_LE(spans.size(), ring.capacity());
  EXPECT_GT(spans.size(), 0u);
  // Overwrite-oldest means drops only happen on the rare mid-write lap.
  EXPECT_LT(ring.dropped(), static_cast<uint64_t>(threads) * per_thread / 10);

  std::vector<int> last_token(threads, -1);
  for (const TraceSpan& s : spans) {
    ASSERT_GE(s.seq, 0);
    ASSERT_LT(s.seq, threads);
    // Published spans are never torn: every field agrees with the writer
    // that produced it.
    EXPECT_EQ(s.kind, SpanKind::kDecodeStep);
    EXPECT_EQ(s.end_ticks, s.start_ticks + 3);
    EXPECT_EQ(s.bytes, static_cast<uint64_t>(s.seq) * 1000003u +
                           static_cast<uint64_t>(s.tokens));
    // Oldest-ticket-first drain preserves each producer's record order.
    EXPECT_GT(s.tokens, last_token[s.seq]);
    last_token[s.seq] = s.tokens;
  }
}

TEST(TraceRingTest, DrainWhileWritingNeverReturnsTornSpans) {
  TraceRing ring(64);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      TraceSpan s;
      s.kind = SpanKind::kStream;
      s.seq = static_cast<int64_t>(i % 7);
      s.iteration = static_cast<int64_t>(i);
      s.tokens = static_cast<int32_t>(i % 1024);
      s.start_ticks = i;
      s.end_ticks = i + 5;
      s.bytes = i * 2 + 1;
      copy_name(s.model, "writer:v1");
      ring.record(s);
      ++i;
    }
  });

  // Don't start draining before the writer thread has published anything,
  // or all 200 rounds can finish against an empty ring.
  while (ring.total_recorded() == 0) std::this_thread::yield();

  size_t drained = 0;
  for (int round = 0; round < 200; ++round) {
    const auto spans = ring.snapshot();
    drained += spans.size();
    for (const TraceSpan& s : spans) {
      // Every invariant ties multiple words of the payload together; a
      // torn copy (old words mixed with new) would violate one of them.
      ASSERT_EQ(s.kind, SpanKind::kStream);
      ASSERT_EQ(s.end_ticks, s.start_ticks + 5);
      ASSERT_EQ(s.bytes, s.start_ticks * 2 + 1);
      ASSERT_EQ(s.seq, static_cast<int64_t>(s.start_ticks % 7));
      ASSERT_EQ(s.iteration, static_cast<int64_t>(s.start_ticks));
      ASSERT_STREQ(s.model, "writer:v1");
    }
  }
  stop.store(true);
  writer.join();
  EXPECT_GT(drained, 0u);
  EXPECT_GT(ring.total_recorded(), 0u);
}

// --------------------------------------------------------------------------
// Histogram

TEST(HistogramTest, EmptyAndSingleValue) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);

  h.record(42.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 42.0);
  EXPECT_EQ(h.max(), 42.0);
  // Quantiles clamp to the observed range, so a single sample is exact.
  EXPECT_EQ(h.quantile(0.0), 42.0);
  EXPECT_EQ(h.quantile(0.5), 42.0);
  EXPECT_EQ(h.quantile(0.999), 42.0);
}

TEST(HistogramTest, NegativeValuesClampToZero) {
  Histogram h;
  h.record(-3.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(HistogramTest, QuantileInterpolationTracksExactQuantiles) {
  // Deterministic long-tailed sample set, the shape step latencies take.
  Rng rng(0x0B55);
  std::vector<double> values;
  Histogram h;
  for (int i = 0; i < 5000; ++i) {
    const double u = rng.uniform();
    const double v = 0.1 * std::exp(6.0 * u);  // ~0.1 .. ~40
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());

  EXPECT_EQ(h.count(), values.size());
  double sum = 0;
  for (double v : values) sum += v;
  EXPECT_NEAR(h.sum(), sum, 1e-6 * sum);
  EXPECT_EQ(h.min(), values.front());
  EXPECT_EQ(h.max(), values.back());

  // Bucket bounds grow by 1.25x, so interpolation error is bounded by one
  // bucket width: 25% relative. Use 30% slack for rank-rounding at the
  // extremes.
  for (const double q : {0.50, 0.90, 0.99, 0.999}) {
    const double exact =
        values[static_cast<size_t>(q * (values.size() - 1))];
    const double est = h.quantile(q);
    EXPECT_NEAR(est, exact, 0.30 * exact)
        << "q=" << q << " exact=" << exact << " est=" << est;
    EXPECT_GE(est, h.min());
    EXPECT_LE(est, h.max());
  }
}

TEST(HistogramTest, OverflowBucketStaysClampedToObservedMax) {
  Histogram::Options opt;
  opt.first_bound = 1.0;
  opt.growth = 2.0;
  opt.buckets = 4;  // finite bounds 1, 2, 4, 8; everything above overflows
  Histogram h(opt);
  h.record(0.5);
  h.record(1e9);
  h.record(2e9);
  EXPECT_EQ(h.max(), 2e9);
  EXPECT_LE(h.quantile(0.999), 2e9);
  EXPECT_GE(h.quantile(0.999), 8.0);  // beyond every finite bound
}

TEST(HistogramTest, SummarizeMatchesAccessors) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  const HistogramSnapshot s = summarize(h);
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 100.0);
  EXPECT_NEAR(s.mean, 50.5, 1e-9);
  EXPECT_EQ(s.p50, h.quantile(0.50));
  EXPECT_EQ(s.p99, h.quantile(0.99));
}

// --------------------------------------------------------------------------
// Registry

TEST(RegistryTest, CreateOrGetReturnsSameMetric) {
  Registry reg;
  Counter& a = reg.counter("requests");
  Counter& b = reg.counter("requests");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(reg.counter_value("requests"), 3u);
  EXPECT_EQ(reg.counter_value("missing"), 0u);

  reg.gauge("pressure").set(0.75);
  EXPECT_DOUBLE_EQ(reg.gauge_value("pressure"), 0.75);
  EXPECT_DOUBLE_EQ(reg.gauge_value("missing"), 0.0);
}

TEST(RegistryTest, CrossTypeNameThrows) {
  Registry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), CheckError);
  EXPECT_THROW(reg.histogram("x"), CheckError);
  reg.histogram("h");
  EXPECT_THROW(reg.counter("h"), CheckError);
}

TEST(RegistryTest, JsonAndPrometheusExports) {
  Registry reg;
  reg.counter("gen.m:v1.steps").add(7);
  reg.gauge("gen.m:v1.active_sequences").set(3);
  Histogram& h = reg.histogram("gen.m:v1.step_ms");
  h.record(1.0);
  h.record(2.0);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gen.m:v1.steps\":7"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);

  const std::string prom = reg.to_prometheus();
  // Prometheus names are sanitized: '.' is not a legal name character.
  EXPECT_NE(prom.find("gen_m:v1_steps 7"), std::string::npos);
  EXPECT_EQ(prom.find("gen.m"), std::string::npos);
  EXPECT_NE(prom.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(prom.find("gen_m:v1_step_ms_count 2"), std::string::npos);
}

// --------------------------------------------------------------------------
// Passes over synthetic spans

// Two steps tiled by phase spans: iteration 0 is [0, 1ms) with decode
// dominating; iteration 1 is [1ms, 3ms) with prefill dominating the tail.
std::vector<TraceSpan> synthetic_steps() {
  auto ms = [](double v) { return static_cast<uint64_t>(v * 1e6); };
  std::vector<TraceSpan> spans;
  // Step 0: admit 0.1ms, schedule 0.1ms, decode 0.7ms, stream 0.1ms.
  spans.push_back(make_span(SpanKind::kAdmit, 0, ms(0.0), ms(0.1)));
  spans.push_back(make_span(SpanKind::kSchedule, 0, ms(0.1), ms(0.2)));
  spans.push_back(make_span(SpanKind::kDecodeStep, 0, ms(0.2), ms(0.9)));
  spans.push_back(make_span(SpanKind::kStream, 0, ms(0.9), ms(1.0)));
  // Step 1 (the tail step): prefill 1.5ms, decode 0.4ms, stream 0.1ms.
  spans.push_back(make_span(SpanKind::kEncodePrefill, 1, ms(1.0), ms(2.5)));
  spans.push_back(make_span(SpanKind::kDecodeStep, 1, ms(2.5), ms(2.9)));
  spans.push_back(make_span(SpanKind::kStream, 1, ms(2.9), ms(3.0)));
  return spans;
}

TEST(PassesTest, AttributePhasesCoverageAndShares) {
  const auto spans = synthetic_steps();
  const PhaseAttribution attr = attribute_phases(spans);
  EXPECT_EQ(attr.iterations, 2u);
  EXPECT_NEAR(attr.step_wall_ms, 3.0, 1e-9);
  EXPECT_NEAR(attr.covered_ms, 3.0, 1e-9);
  EXPECT_NEAR(attr.coverage, 1.0, 1e-9);
  EXPECT_EQ(attr.dominant_tail_phase, SpanKind::kEncodePrefill);

  double share_sum = 0;
  for (const PhaseStat& p : attr.phases) share_sum += p.fraction;
  EXPECT_NEAR(share_sum, attr.coverage, 1e-9);

  // Phases sort by total time: decode (1.1ms) over prefill (1.5ms)? No —
  // prefill is the largest single total.
  ASSERT_FALSE(attr.phases.empty());
  EXPECT_EQ(attr.phases.front().kind, SpanKind::kEncodePrefill);
  EXPECT_NEAR(attr.phases.front().total_ms, 1.5, 1e-9);
}

TEST(PassesTest, CoverageDetectsUntiledGaps) {
  auto ms = [](double v) { return static_cast<uint64_t>(v * 1e6); };
  std::vector<TraceSpan> spans;
  // One step whose phases cover only half its wall: [0,0.5) of [0,1.0).
  spans.push_back(make_span(SpanKind::kDecodeStep, 0, ms(0.0), ms(0.5)));
  spans.push_back(make_span(SpanKind::kStream, 0, ms(1.0), ms(1.0)));
  const PhaseAttribution attr = attribute_phases(spans);
  EXPECT_NEAR(attr.coverage, 0.5, 1e-9);
}

TEST(PassesTest, PerSequenceSpansStayOutOfThePhaseTable) {
  auto spans = synthetic_steps();
  // A sequence queue-wait far longer than any step: must not leak into the
  // phase table (it belongs to the queueing pass), and must not move
  // coverage.
  auto ms = [](double v) { return static_cast<uint64_t>(v * 1e6); };
  spans.push_back(
      make_span(SpanKind::kAdmit, 0, ms(0.0), ms(500.0), /*seq=*/7));
  spans.push_back(make_span(SpanKind::kStream, 1, ms(500.0), ms(500.0),
                            /*seq=*/7));

  const PhaseAttribution attr = attribute_phases(spans);
  EXPECT_NEAR(attr.coverage, 1.0, 1e-9);
  for (const PhaseStat& p : attr.phases) {
    if (p.kind != SpanKind::kAdmit) continue;
    EXPECT_EQ(p.count, 1u);             // the engine phase span only
    EXPECT_NEAR(p.total_ms, 0.1, 1e-9); // not 500ms of queue wait
  }
  double share_sum = 0;
  for (const PhaseStat& p : attr.phases) share_sum += p.fraction;
  EXPECT_NEAR(share_sum, attr.coverage, 1e-9);
}

TEST(PassesTest, PerSequenceEncodeJobsCountAsStepWork) {
  // A deferred encode job is recorded per sequence (seq = the sequence it
  // encodes) but runs inside the step: the phase table and coverage must
  // count it like any engine-level phase.
  auto ms = [](double v) { return static_cast<uint64_t>(v * 1e6); };
  std::vector<TraceSpan> spans;
  // Step 0: admit 0.1ms, schedule 0.1ms, two encode jobs 0.3ms each,
  // decode 0.3ms, stream 0.1ms — one millisecond of wall, fully tiled.
  spans.push_back(make_span(SpanKind::kAdmit, 0, ms(0.0), ms(0.1)));
  spans.push_back(make_span(SpanKind::kSchedule, 0, ms(0.1), ms(0.2)));
  spans.push_back(
      make_span(SpanKind::kEncodePrefill, 0, ms(0.2), ms(0.5), /*seq=*/3));
  spans.push_back(
      make_span(SpanKind::kEncodePrefill, 0, ms(0.5), ms(0.8), /*seq=*/4));
  spans.push_back(make_span(SpanKind::kDecodeStep, 0, ms(0.8), ms(0.9)));
  spans.push_back(make_span(SpanKind::kStream, 0, ms(0.9), ms(1.0)));

  const PhaseAttribution attr = attribute_phases(spans);
  EXPECT_EQ(attr.iterations, 1u);
  EXPECT_NEAR(attr.coverage, 1.0, 1e-9);
  ASSERT_FALSE(attr.phases.empty());
  EXPECT_EQ(attr.phases.front().kind, SpanKind::kEncodePrefill);
  EXPECT_EQ(attr.phases.front().count, 2u);
  EXPECT_NEAR(attr.phases.front().total_ms, 0.6, 1e-9);
}

TEST(PassesTest, QueueingBreakdownDecomposesTtft) {
  auto ms = [](double v) { return static_cast<uint64_t>(v * 1e6); };
  std::vector<TraceSpan> spans;
  // Seq 1: arrives at 0, admitted at 10ms, first token at 12ms.
  spans.push_back(make_span(SpanKind::kAdmit, 0, ms(0), ms(10), /*seq=*/1));
  spans.push_back(make_span(SpanKind::kStream, 0, ms(12), ms(12), /*seq=*/1));
  // Seq 2: arrives at 0, admitted at 20ms, first token at 26ms.
  spans.push_back(make_span(SpanKind::kAdmit, 0, ms(0), ms(20), /*seq=*/2));
  spans.push_back(make_span(SpanKind::kStream, 0, ms(26), ms(26), /*seq=*/2));
  // Seq 3 has no first token yet: excluded.
  spans.push_back(make_span(SpanKind::kAdmit, 0, ms(0), ms(30), /*seq=*/3));

  const QueueingBreakdown q = queueing_breakdown(spans);
  EXPECT_EQ(q.sequences, 2u);
  EXPECT_NEAR(q.queue_p50_ms, 15.0, 1e-9);       // median of {10, 20}
  EXPECT_NEAR(q.admit_to_first_p50_ms, 4.0, 1e-9);  // median of {2, 6}
  EXPECT_NEAR(q.first_token_p50_ms, 19.0, 1e-9);    // median of {12, 26}
  EXPECT_NEAR(q.first_token_p99_ms, 26.0, 0.5);
}

TraceSpan event_span(SpanKind kind, int64_t iteration, int64_t seq,
                     int32_t tokens = 0) {
  TraceSpan s = make_span(kind, iteration, 0, 0, seq);
  s.tokens = tokens;
  return s;
}

TEST(PassesTest, DetectCascadesGroupsByIterationGap) {
  std::vector<TraceSpan> spans;
  // Cascade A: iterations 5-7, victims 10, 11, 10 again.
  spans.push_back(event_span(SpanKind::kPreempt, 5, 10));
  spans.push_back(event_span(SpanKind::kPreempt, 6, 11));
  spans.push_back(event_span(SpanKind::kPreempt, 7, 10));
  // Far-away cascade B: iteration 20, one victim, one eviction.
  spans.push_back(event_span(SpanKind::kPreempt, 20, 12));
  spans.push_back(event_span(SpanKind::kEvict, 20, 12));
  // Resumes: victim 10 was preempted twice, replaying 8 tokens in total
  // over 2 resumes; victim 11 replayed 5; victim 12 replayed 30.
  {
    TraceSpan r = make_span(SpanKind::kResume, 8, 0, 1'000'000, 10);
    r.tokens = 3;
    spans.push_back(r);
    r = make_span(SpanKind::kResume, 9, 0, 2'000'000, 10);
    r.tokens = 5;
    spans.push_back(r);
    r = make_span(SpanKind::kResume, 9, 0, 500'000, 11);
    r.tokens = 5;
    spans.push_back(r);
    r = make_span(SpanKind::kResume, 22, 0, 4'000'000, 12);
    r.tokens = 30;
    spans.push_back(r);
  }

  const auto cascades = detect_cascades(spans, /*max_gap=*/1);
  ASSERT_EQ(cascades.size(), 2u);
  // Sorted by replay cost: cascade B (30 tokens) first.
  EXPECT_EQ(cascades[0].first_iteration, 20);
  EXPECT_EQ(cascades[0].last_iteration, 20);
  EXPECT_EQ(cascades[0].preemptions, 1u);
  EXPECT_EQ(cascades[0].evictions, 1u);
  EXPECT_EQ(cascades[0].replayed_tokens, 30);

  const PreemptionCascade& a = cascades[1];
  EXPECT_EQ(a.first_iteration, 5);
  EXPECT_EQ(a.last_iteration, 7);
  EXPECT_EQ(a.preemptions, 3u);
  ASSERT_EQ(a.victims.size(), 3u);
  EXPECT_EQ(a.victims[0], 10);
  EXPECT_EQ(a.victims[1], 11);
  EXPECT_EQ(a.victims[2], 10);
  // Victim 10 appears twice; its 8 replayed tokens average to 4 per
  // appearance, so the cascade bills 4 + 5 + 4 = 13, not 8 + 5 + 8.
  EXPECT_EQ(a.replayed_tokens, 13);
}

TEST(PassesTest, ReclaimTimelineOrdersEvents) {
  std::vector<TraceSpan> spans;
  TraceSpan r1 = make_span(SpanKind::kReclaim, 4, 2'000'000, 2'000'000);
  copy_name(r1.model, "starved:v1");
  copy_name(r1.peer, "donor:v1");
  r1.bytes = 4096;
  TraceSpan r2 = make_span(SpanKind::kReclaim, 2, 1'000'000, 1'000'000);
  copy_name(r2.model, "hungry:v2");
  copy_name(r2.peer, "donor:v1");
  r2.bytes = 1024;
  spans.push_back(r1);  // recorded out of order on purpose
  spans.push_back(r2);

  const auto events = reclaim_timeline(spans);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].starved, "hungry:v2");
  EXPECT_EQ(events[0].donor, "donor:v1");
  EXPECT_EQ(events[0].bytes, 1024u);
  EXPECT_EQ(events[0].iteration, 2);
  EXPECT_NEAR(events[0].at_ms, 0.0, 1e-9);  // relative to first span
  EXPECT_EQ(events[1].starved, "starved:v1");
  EXPECT_NEAR(events[1].at_ms, 1.0, 1e-9);
}

TEST(PassesTest, RenderSummaryMentionsEverySection) {
  auto spans = synthetic_steps();
  spans.push_back(make_span(SpanKind::kAdmit, 0, 0, 1000, /*seq=*/1));
  spans.push_back(make_span(SpanKind::kStream, 0, 2000, 2000, /*seq=*/1));
  spans.push_back(event_span(SpanKind::kPreempt, 1, 1, 4));
  const std::string summary = render_trace_summary(spans);
  EXPECT_NE(summary.find("trace summary:"), std::string::npos);
  EXPECT_NE(summary.find("phase coverage"), std::string::npos);
  EXPECT_NE(summary.find("queueing (1 seqs)"), std::string::npos);
  EXPECT_NE(summary.find("preemption cascades: 1"), std::string::npos);
}

// --------------------------------------------------------------------------
// Trace IO

TEST(TraceIoTest, RoundTripPreservesEveryField) {
  std::vector<TraceSpan> spans;
  TraceSpan s = make_span(SpanKind::kReclaim, 42, 123456789, 987654321, 7);
  s.model_version = 3;
  s.batch = 12;
  s.tokens = -5;
  s.bytes = 1ull << 40;
  copy_name(s.peer, "donor:v9");
  spans.push_back(s);
  spans.push_back(make_span(SpanKind::kDecodeStep, 0, 1, 2));
  TraceSpan anon = make_span(SpanKind::kEvict, 1, 3, 3, 9);
  copy_name(anon.model, "");  // serializes as "-"
  spans.push_back(anon);

  std::stringstream ss;
  write_trace(ss, spans);
  const auto back = read_trace(ss);
  ASSERT_EQ(back.size(), spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(back[i].kind, spans[i].kind);
    EXPECT_EQ(back[i].model_version, spans[i].model_version);
    EXPECT_EQ(back[i].seq, spans[i].seq);
    EXPECT_EQ(back[i].iteration, spans[i].iteration);
    EXPECT_EQ(back[i].batch, spans[i].batch);
    EXPECT_EQ(back[i].tokens, spans[i].tokens);
    EXPECT_EQ(back[i].bytes, spans[i].bytes);
    EXPECT_EQ(back[i].start_ticks, spans[i].start_ticks);
    EXPECT_EQ(back[i].end_ticks, spans[i].end_ticks);
    EXPECT_STREQ(back[i].model, spans[i].model);
    EXPECT_STREQ(back[i].peer, spans[i].peer);
  }
}

TEST(TraceIoTest, RejectsMissingHeaderAndMalformedLines) {
  {
    std::stringstream ss("not a trace\n");
    EXPECT_THROW(read_trace(ss), CheckError);
  }
  {
    std::stringstream ss("# turbo-trace v1\ndecode m:v1 oops\n");
    EXPECT_THROW(read_trace(ss), CheckError);
  }
  {
    std::stringstream ss(
        "# turbo-trace v1\nwarp m:v1 1 -1 0 0 0 0 1 2 -\n");
    EXPECT_THROW(read_trace(ss), CheckError);  // unknown span kind
  }
}

TEST(TraceIoTest, SpanKindNamesRoundTrip) {
  for (int k = 0; k < kSpanKinds; ++k) {
    const SpanKind kind = static_cast<SpanKind>(k);
    SpanKind back;
    ASSERT_TRUE(span_kind_from_name(span_kind_name(kind), &back));
    EXPECT_EQ(back, kind);
  }
  SpanKind unused;
  EXPECT_FALSE(span_kind_from_name("warp", &unused));
}

TEST(TraceIoTest, ChromeTraceJsonEmitsExpectedEventTypes) {
  auto spans = synthetic_steps();
  spans.push_back(make_span(SpanKind::kResume, 1, 0, 1'000'000, /*seq=*/3));
  spans.push_back(event_span(SpanKind::kPreempt, 1, 3, 2));
  const std::string json = chrome_trace_json(spans);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // track names
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // phase spans
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);  // seq span open
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);  // seq span close
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_NE(json.find("\"name\":\"m:v1\""), std::string::npos);
  // Balanced braces: a cheap structural sanity check on the emitter.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

// --------------------------------------------------------------------------
// Registry-backed server counters (the dedup satellite)

std::shared_ptr<genserve::ModelBundle> tiny_bundle() {
  return genserve::make_bundle("tiny", 1,
                               model::ModelConfig::tiny(2, 32, 2, 64, 50), 1);
}

std::vector<serving::GenerationRequest> tiny_requests(int n) {
  Rng rng(0xC0FFEE);
  std::vector<serving::GenerationRequest> reqs;
  for (int i = 0; i < n; ++i) {
    serving::GenerationRequest r;
    r.id = i;
    r.src_tokens = rng.token_ids(6, 50);
    r.max_new_tokens = 5;
    r.bos_id = 1;
    r.eos_id = 2;
    reqs.push_back(std::move(r));
  }
  return reqs;
}

TEST(ObsIntegrationTest, TracingOffByDefaultButMetricsAlwaysOn) {
  genserve::GenServerOptions options;
  genserve::GenerationServer server(tiny_bundle(), options);
  EXPECT_EQ(server.trace_ring(), nullptr);
  for (auto& r : tiny_requests(3)) server.submit(r);
  const auto responses = server.run_to_completion();
  EXPECT_TRUE(server.trace_spans().empty());

  // Metrics publish regardless of tracing.
  const auto& reg = *server.metrics();
  const std::string p = server.metric_prefix();
  EXPECT_EQ(reg.counter_value(p + "requests_submitted"), 3u);
  EXPECT_EQ(reg.counter_value(p + "requests_completed"), responses.size());
  EXPECT_EQ(reg.counter_value(p + "steps"),
            static_cast<uint64_t>(server.iterations()));
  size_t tokens = 0;
  for (const auto& r : responses) tokens += r.tokens.size();
  EXPECT_EQ(reg.counter_value(p + "tokens_streamed"), tokens);
}

TEST(ObsIntegrationTest, KvPressureGaugesTrackThePool) {
  // The router's KV-pressure signals, published as gauges at the end of
  // every fused step: free blocks behind the admission gate and the bytes
  // charged against it. Bounded pool so "free" is a finite number.
  genserve::GenServerOptions options;
  options.pool.block_tokens = 4;
  options.pool.blocks_per_slab = 4;
  options.pool.max_bytes = 8ull * 4 * 4 * 2 * 32 * sizeof(float);
  genserve::GenerationServer server(tiny_bundle(), options);
  const auto& reg = *server.metrics();
  const std::string p = server.metric_prefix();

  for (auto& r : tiny_requests(4)) server.submit(r);
  bool saw_charge = false;
  while (!server.idle()) {
    server.step();
    const auto snap = server.pool_snapshot();
    EXPECT_EQ(reg.gauge_value(p + "kv_free_blocks"),
              static_cast<double>(snap.free_blocks));
    EXPECT_EQ(reg.gauge_value(p + "kv_charged_bytes"),
              static_cast<double>(snap.charged_bytes));
    saw_charge = saw_charge || snap.charged_bytes > 0;
  }
  EXPECT_TRUE(saw_charge) << "pool never charged — the gauges went untested";
  // Drained: everything released, full headroom back.
  EXPECT_EQ(reg.gauge_value(p + "kv_charged_bytes"), 0.0);
  EXPECT_EQ(reg.gauge_value(p + "kv_free_blocks"),
            static_cast<double>(server.pool_snapshot().free_blocks));
}

TEST(ObsIntegrationTest, TracedRunAttributesItsSteps) {
  genserve::GenServerOptions options;
  options.trace.enabled = true;
  genserve::GenerationServer server(tiny_bundle(), options);
  ASSERT_NE(server.trace_ring(), nullptr);
  size_t decoding_steps = 0;
  server.set_step_observer([&](const genserve::StepStats& s) {
    if (s.step_rows > 0) ++decoding_steps;
  });
  for (auto& r : tiny_requests(4)) server.submit(r);
  const auto responses = server.run_to_completion();
  ASSERT_EQ(responses.size(), 4u);

  const auto spans = server.trace_spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(server.trace_ring()->dropped(), 0u);

  size_t decode_spans = 0;
  size_t first_tokens = 0;
  for (const auto& s : spans) {
    if (s.kind == SpanKind::kDecodeStep && s.seq < 0) ++decode_spans;
    if (s.kind == SpanKind::kStream && s.seq >= 0) ++first_tokens;
  }
  // One decode span per step that ran decoder rows; a step that only ran
  // encode jobs has none.
  EXPECT_EQ(decode_spans, decoding_steps);
  EXPECT_EQ(first_tokens, 4u);  // one first-token event per sequence

  const PhaseAttribution attr = attribute_phases(spans);
  EXPECT_EQ(attr.iterations, static_cast<size_t>(server.iterations()));
  // Coverage is a ratio of the same clock on the same steps, so it is
  // machine-independent: the phases tile the step by construction.
  EXPECT_GE(attr.coverage, 0.9);
  const QueueingBreakdown q = queueing_breakdown(spans);
  EXPECT_EQ(q.sequences, 4u);
}

TEST(ObsIntegrationTest, SharedRegistrySurvivesServerTeardown) {
  // The counters-reset-on-teardown fix: hand one registry to successive
  // async shell incarnations and the lifetime totals accumulate across
  // them instead of restarting from zero.
  auto registry = std::make_shared<Registry>();
  const auto requests = tiny_requests(3);
  genserve::MultiModelOptions options;
  options.engine.metrics = registry;
  const std::string prefix = "gen.tiny:v1.";  // the bundle's label
  size_t first_served = 0;
  {
    genserve::AsyncMultiModelGenerationServer async(options);
    async.register_bundle(tiny_bundle()).get();
    std::vector<std::future<serving::GenerationResponse>> futures;
    for (auto r : requests) futures.push_back(async.submit(std::move(r)));
    for (auto& f : futures) f.get();
    first_served = async.served();
    EXPECT_EQ(first_served, requests.size());
  }
  // The shell is gone; the registry still holds the totals.
  EXPECT_EQ(registry->counter_value(prefix + "requests_completed"),
            first_served);

  {
    genserve::AsyncMultiModelGenerationServer async(options);
    async.register_bundle(tiny_bundle()).get();
    // A fresh shell over the same registry resumes the count.
    EXPECT_EQ(async.served(), first_served);
    auto reqs = tiny_requests(2);
    std::vector<std::future<serving::GenerationResponse>> futures;
    for (auto& r : reqs) {
      r.id += 100;
      futures.push_back(async.submit(std::move(r)));
    }
    for (auto& f : futures) f.get();
    EXPECT_EQ(async.served(), first_served + 2);
  }
  EXPECT_EQ(registry->counter_value(prefix + "requests_completed"),
            first_served + 2);
}

}  // namespace
}  // namespace turbo::obs
