// classify_varlen: the paper's §6.3 serving scenario (Fig. 16). A reduced
// BERT-layout SequenceClassifier behind serving::Server with the DP batch
// scheduler (max batch 20), lengths U(5, 500). Closed loop in queue-
// snapshot rounds: every client has one request in the queue, one
// Server::serve call serves the snapshot, and each client submits its
// next request as soon as serve() returns. The DP consults the analytic
// cost table (perfmodel), never a measurement, so the batching of every
// round is a pure function of the seed. Nothing in genserve runs.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "gpusim/device_spec.h"
#include "harness.h"
#include "model/classifier.h"
#include "perfmodel/runtime_profile.h"
#include "serving/scheduler.h"
#include "serving/server.h"

namespace perfbench {

namespace {

using turbo::serving::Request;

// 50 clients x 20 rounds: 1000 requests per episode, so an episode's own
// p99 has 10 samples beyond it and a run reports the median over its
// episodes, like every other percentile.
constexpr int kClients = 50;
constexpr int kRounds = 20;
constexpr int kMinLen = 5;
constexpr int kMaxLen = 500;
constexpr int kMaxBatch = 20;
constexpr int kVocab = 1000;
constexpr int kClasses = 4;
constexpr int64_t kIdStride = 1000;
constexpr uint64_t kWarmupSeed = 0x5eed;

turbo::model::ModelConfig classify_config() {
  // BERT layout (intermediate = 4 * hidden), reduced to one layer and one
  // head of 32 so that an episode of 1000 requests takes about 6 s of wall
  // time on one kernel thread.
  return turbo::model::ModelConfig::tiny(/*layers=*/1, /*hidden=*/32,
                                         /*heads=*/1, /*inter=*/128, kVocab);
}

turbo::serving::CostTable cost_table() {
  return turbo::bench::serving_cost_table(
      classify_config().perf_desc(), turbo::perfmodel::RuntimeProfile::turbo(),
      turbo::gpusim::DeviceSpec::rtx2060(),
      turbo::bench::kTurboServingOverheadMs, kMaxLen, kMaxBatch);
}

std::unique_ptr<turbo::model::SequenceClassifier> make_classifier() {
  return std::make_unique<turbo::model::SequenceClassifier>(
      classify_config(), kClasses, /*seed=*/3001);
}

turbo::Tensor ids_of(const Request& r) {
  turbo::Tensor ids =
      turbo::Tensor::zeros(turbo::Shape{1, r.length}, turbo::DType::kI32);
  std::copy(r.tokens.begin(), r.tokens.end(), ids.data<int32_t>());
  return ids;
}

float max_abs_diff(const float* a, const float* b, int64_t n) {
  float worst = 0.0f;
  for (int64_t i = 0; i < n; ++i) worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

// rounds[k][c]: client c's request in round k. Each round's lengths are a
// stratified draw from U(kMinLen, kMaxLen).
std::vector<std::vector<Request>> make_rounds(uint64_t seed,
                                             int count = kRounds) {
  turbo::Rng rng(seed);
  std::vector<std::vector<Request>> rounds(static_cast<size_t>(count));
  for (int k = 0; k < count; ++k) {
    const std::vector<int> lengths = stratified(rng, kMinLen, kMaxLen, kClients);
    for (int c = 0; c < kClients; ++c) {
      Request r;
      r.id = c * kIdStride + k;
      r.length = lengths[static_cast<size_t>(c)];
      r.tokens = rng.token_ids(r.length, kVocab);
      rounds[static_cast<size_t>(k)].push_back(std::move(r));
    }
  }
  return rounds;
}

bool sampled(const Request& r) {
  const int64_t client = r.id / kIdStride, round = r.id % kIdStride;
  return client % 10 == 0 && (round == 0 || round == kRounds - 1);
}

// Set-up: model weights, cost table, server, and one warm-up round that
// spans the length range (the same for every seed).
std::unique_ptr<turbo::serving::Server> set_up() {
  auto server = std::make_unique<turbo::serving::Server>(
      make_classifier(),
      std::make_unique<turbo::serving::DpBatchScheduler>(kMaxBatch),
      cost_table());
  static const std::vector<Request> warmup = make_rounds(kWarmupSeed, 1)[0];
  server->serve(warmup);
  return server;
}

Episode run_episode(const std::vector<std::vector<Request>>& rounds,
                    double calibration_ms, RefClock& clock, bool traced,
                    Report* checks) {
  Episode ep;
  ep.traced = traced;

  clock.calibrate();
  const double setup0 = clock.now();
  const auto owned = set_up();
  auto& server = *owned;
  clock.calibrate();
  ep.setup_s = (clock.now() - setup0) * 1e-3;

  // The DP is re-run on each snapshot outside the timed serve() call: its
  // batch count is part of the fingerprint, its time a per-layer metric.
  const turbo::serving::DpBatchScheduler dp(kMaxBatch);
  const turbo::serving::CostTable costs = cost_table();
  std::vector<double> schedule_us, model_ms, planning_us, batch_sizes,
      padded_rows;
  int64_t batches = 0, padded_tokens = 0, prompt_tokens = 0;
  uint64_t hash = kFnvBasis;
  std::vector<std::pair<Request, std::vector<float>>> samples;

  const ServeTimer serve_timer(clock);
  for (const auto& snapshot : rounds) {
    // A round is long enough to visit every CPU several times, so it is
    // timed against bursts that visit every CPU too.
    clock.calibrate(calibration_ms);
    const double t0 = clock.now();
    const auto results = server.serve(snapshot);
    const double round_ms = clock.now() - t0;

    const double s0 = clock.now();
    const auto plan = dp.schedule(snapshot, costs);
    const double sched_us = (clock.now() - s0) * 1e3;
    batches += static_cast<int64_t>(plan.size());
    for (const auto& b : plan) {
      padded_tokens += static_cast<int64_t>(b.size()) * b.padded_length;
      batch_sizes.push_back(b.size());
      padded_rows.push_back(static_cast<double>(b.size()) * b.padded_length);
    }
    if (traced) {
      schedule_us.push_back(sched_us);
      model_ms.push_back(round_ms - sched_us * 1e-3);
      planning_us.push_back(server.classifier().encoder().last_planning_us());
    }

    ep.requests += static_cast<int64_t>(snapshot.size());
    ep.failed += static_cast<int64_t>(snapshot.size()) -
                 static_cast<int64_t>(results.size());
    for (size_t i = 0; i < snapshot.size() && i < results.size(); ++i) {
      const Request& r = snapshot[i];
      const auto& res = results[i];
      prompt_tokens += r.length;
      // One output per request, delivered when the round's serve()
      // returns: the first output, the gap a client waits between its
      // consecutive outputs (zero think time) and the response latency are
      // all the round's serve time.
      ep.ttft_ms.push_back(round_ms);
      ep.itl_ms.push_back(round_ms);
      ep.latency_ms.push_back(round_ms);
      hash = fnv_fold(hash, res.request_id);
      hash = fnv_fold(hash, res.label);
      for (float v : res.logits) {
        uint32_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        hash = fnv_fold(hash, bits);
      }
      if (checks != nullptr && sampled(r)) samples.push_back({r, res.logits});
    }
  }
  serve_timer.stop(&ep);
  ep.tokens = prompt_tokens;

  // Served logits vs the request classified alone, and the fused encoder
  // vs its unfused reference, on the same request.
  auto& clf = server.classifier();
  for (const auto& [r, logits] : samples) {
    ++checks->checks;
    const turbo::Tensor ids = ids_of(r);
    const turbo::Tensor alone = clf.classify(ids);
    const turbo::Tensor fused = clf.encoder().forward(ids);
    const turbo::Tensor reference = clf.encoder().forward_reference(ids);
    const float logit_diff =
        logits.size() == static_cast<size_t>(kClasses)
            ? max_abs_diff(logits.data(), alone.data<float>(), kClasses)
            : 1e9f;
    const float encoder_diff = max_abs_diff(
        fused.data<float>(), reference.data<float>(), fused.numel());
    if (!(logit_diff < 1e-3f && encoder_diff < 5e-3f)) {
      ++checks->check_failures;
      checks->errors.push_back("request " + std::to_string(r.id) +
                               ": logits off by " + std::to_string(logit_diff) +
                               ", encoder off reference by " +
                               std::to_string(encoder_diff));
    }
  }
  ep.fingerprint = {
      {"rounds", static_cast<int64_t>(rounds.size())},
      {"requests", ep.requests},
      {"dp_batches", batches},
      {"padded_tokens", padded_tokens},
      {"output_hash", static_cast<int64_t>(hash >> 1)},
  };
  if (traced) {
    ep.layer_samples["serving.schedule_us"] = std::move(schedule_us);
    ep.layer_samples["model.round_ms_minus_schedule"] = std::move(model_ms);
    ep.layer_samples["memory.planning_us"] = std::move(planning_us);
    ep.layer_samples["serving.batch_size"] = std::move(batch_sizes);
    ep.layer_samples["serving.padded_rows"] = std::move(padded_rows);
    ep.layer_values["serving.batches_per_round"] =
        static_cast<double>(batches) / static_cast<double>(rounds.size());
    ep.layer_values["serving.pad_frac"] =
        1.0 - static_cast<double>(prompt_tokens) /
                  static_cast<double>(std::max<int64_t>(padded_tokens, 1));
    ep.layer_values["memory.alloc_peak_mb"] =
        static_cast<double>(server.classifier()
                                .encoder()
                                .allocator()
                                .stats()
                                .peak_device_bytes) /
        (1024.0 * 1024.0);
  }
  return ep;
}

}  // namespace

void run_classify_varlen(const Options& options, Report* report) {
  const auto rounds = make_rounds(options.seed);
  const double calibration_ms = rotation_cycle_ms(options);
  // At least three untraced episodes, so a slowdown that hits one
  // episode's slowest round does not move the run's p99.
  run_episodes(
      options, report, /*min_untraced=*/3, [](RefClock&) { set_up(); },
      [&](RefClock& clock, bool traced, bool first) {
        return run_episode(rounds, calibration_ms, clock, traced,
                           first ? report : nullptr);
      });
  if (options.trace) {
    std::vector<double> sizes, rows;
    for (const auto& e : report->episodes) {
      if (!e.traced) continue;
      const auto& s = e.layer_samples.at("serving.batch_size");
      const auto& p = e.layer_samples.at("serving.padded_rows");
      sizes.insert(sizes.end(), s.begin(), s.end());
      rows.insert(rows.end(), p.begin(), p.end());
    }
    // Decode-shaped: the classifier head runs one row per request of a
    // batch; encode-shaped: a whole padded batch.
    const auto config = classify_config();
    probe_kernels(static_cast<int>(median_of(sizes)),
                  static_cast<int>(median_of(rows)), config.hidden,
                  config.intermediate, report);
  }
}

}  // namespace perfbench
