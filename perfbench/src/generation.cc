// Generation workloads: chat_prefix and tenant_mix, served closed-loop
// through MultiModelGenerationServer::submit/step/take_completed.
//
// Closed loop: every client has exactly one request in flight and submits
// its next one in the same iteration its previous one completes (zero
// think time). With one serving thread and no decision fed by a clock
// (router observed cost off, no step-cost cap, no recompute-cost victim
// policy, no cost-table feedback), the whole schedule — batch composition
// per iteration, admissions, preemptions, reclaims, radix adoptions — is a
// pure function of (seed, code). Only the machine's speed varies.
#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "genserve/generation_server.h"
#include "genserve/model_bundle.h"
#include "genserve/multi_model_server.h"
#include "harness.h"
#include "obs/trace.h"
#include "serving/request.h"

namespace perfbench {

namespace {

using turbo::genserve::GenServerOptions;
using turbo::genserve::ModelBundle;
using turbo::genserve::MultiModelGenerationServer;
using turbo::serving::GenerationRequest;
using turbo::serving::GenerationResponse;

constexpr int64_t kIdStride = 1000;  // request id = client * stride + turn
constexpr int64_t kWarmupId = 999'000'000;
constexpr size_t kTraceCapacity = size_t{1} << 20;  // spans; never wraps

// Next request of `client`: its first when `prev` is null, else the one
// after `prev` completed; nullopt once the client's script is done.
using NextFn = std::function<std::optional<GenerationRequest>(
    int client, const GenerationResponse* prev)>;

struct Deployment {
  struct Model {
    std::shared_ptr<ModelBundle> bundle;
    size_t guarantee_bytes = 0;
    int replicas = 1;
  };
  std::vector<Model> models;
  turbo::genserve::MultiModelOptions options;
  std::vector<GenerationRequest> warmup;  // served during setup
};

struct GenWorkload {
  int clients = 0;
  // Server iteration at which each client sends its first request (all at
  // 0 when empty). Counted in iterations, so the schedule stays a pure
  // function of the seed.
  std::vector<int64_t> start_step;
  bool causal = false;
  // Builds the models (timed as set-up: weights are initialized here).
  std::function<Deployment()> deploy;
  // A fresh script (per-episode client state).
  std::function<NextFn()> script;
  // Requests whose outputs are re-checked alone on a fresh engine.
  std::function<bool(int64_t id)> sampled;
  // Rows of one prefill-shaped GEMM and the [hidden, intermediate] dims of
  // the first model, for the kernel probes.
  int encode_rows = 0;
  int hidden = 0, intermediate = 0;
};

struct EpisodeOutputs {
  std::map<int64_t, GenerationRequest> requests;  // sampled ids only
  std::map<int64_t, std::vector<int>> tokens;     // sampled ids only
  std::map<std::string, std::shared_ptr<ModelBundle>> bundles;
  GenServerOptions engine;
};

int64_t sum_counter(const MultiModelGenerationServer& server,
                    const std::string& suffix) {
  int64_t total = 0;
  for (const auto& s : server.stats()) {
    total += static_cast<int64_t>(
        server.metrics()->counter_value("gen." + s.label + "." + suffix));
  }
  return total;
}

// Counters the fingerprint and the per-layer view take deltas of.
struct Counters {
  int64_t iterations = 0, admitted = 0, preemptions = 0, replayed = 0,
          prefilled = 0, radix_hit_rows = 0, reclaims = 0, reclaimed = 0,
          fallbacks = 0, routed_tight = 0;

  static Counters read(const MultiModelGenerationServer& server) {
    const auto& reg = *server.metrics();
    Counters c;
    c.iterations = server.iterations();
    c.admitted = sum_counter(server, "admitted");
    c.preemptions = sum_counter(server, "preemptions");
    c.replayed = sum_counter(server, "replayed_tokens");
    c.prefilled = sum_counter(server, "prefill_tokens");
    c.radix_hit_rows = sum_counter(server, "radix_hit_rows");
    c.reclaims = static_cast<int64_t>(server.total_reclaims());
    c.reclaimed =
        static_cast<int64_t>(reg.counter_value("gen.server.reclaimed_bytes"));
    c.fallbacks =
        static_cast<int64_t>(reg.counter_value("router.denial_fallbacks"));
    c.routed_tight =
        static_cast<int64_t>(reg.counter_value("router.routed_tight"));
    return c;
  }
};

// Phase self time per server iteration, from the engines' own spans.
// Phase spans (seq == -1) tile a step and do not nest. Seq2seq prompt
// encodes run as per-sequence kEncodePrefill spans between schedule and
// decode; causal prompts prefill inside the fused decode step, so their
// share of each kDecodeStep span is attributed to prefill by row count.
void phase_times(const std::vector<turbo::obs::TraceSpan>& spans,
                 bool causal, int64_t iterations, Episode* ep) {
  using turbo::obs::SpanKind;
  double admit = 0, schedule = 0, prefill = 0, decode = 0;
  // (model, iteration) -> causal chunk rows in that step.
  std::map<std::pair<std::string, int64_t>, int> chunk_rows;
  if (causal) {
    for (const auto& s : spans) {
      if (s.kind == SpanKind::kPrefillChunk) {
        chunk_rows[{s.model, s.iteration}] += s.tokens;
      }
    }
  }
  for (const auto& s : spans) {
    const double ms = turbo::obs::span_ms(s);
    if (s.kind == SpanKind::kEncodePrefill) {
      prefill += ms;
    } else if (s.seq != -1) {
      continue;
    } else if (s.kind == SpanKind::kAdmit) {
      admit += ms;
    } else if (s.kind == SpanKind::kSchedule) {
      schedule += ms;
    } else if (s.kind == SpanKind::kDecodeStep) {
      double share = 0.0;
      if (causal && s.batch > 0) {
        const auto it = chunk_rows.find({s.model, s.iteration});
        if (it != chunk_rows.end()) {
          share = std::min(1.0, static_cast<double>(it->second) / s.batch);
        }
      }
      prefill += ms * share;
      decode += ms * (1.0 - share);
    }
  }
  const double n = static_cast<double>(std::max<int64_t>(iterations, 1));
  ep->layer_values["phase.admit_ms"] = admit / n;
  ep->layer_values["phase.schedule_ms"] = schedule / n;
  ep->layer_values["phase.prefill_ms"] = prefill / n;
  ep->layer_values["phase.decode_ms"] = decode / n;
}

// Set-up: model weights, server, replicas, warm-up requests.
std::unique_ptr<MultiModelGenerationServer> set_up(const Deployment& d) {
  auto server = std::make_unique<MultiModelGenerationServer>(d.options);
  for (const auto& m : d.models) {
    server->register_bundle(m.bundle, m.guarantee_bytes, std::nullopt,
                            m.replicas);
  }
  for (const auto& r : d.warmup) server->submit(r);
  server->run_to_completion();
  return server;
}

Episode run_episode(const GenWorkload& w, RefClock& clock, bool traced,
                    EpisodeOutputs* outputs) {
  Episode ep;
  ep.traced = traced;

  clock.calibrate();
  const double setup0 = clock.now();
  Deployment d = w.deploy();
  d.options.engine.trace.enabled = traced;
  d.options.engine.trace.capacity = kTraceCapacity;
  auto server = set_up(d);
  clock.calibrate();
  ep.setup_s = (clock.now() - setup0) * 1e-3;

  if (outputs != nullptr) {
    for (const auto& m : d.models) outputs->bundles[m.bundle->name] = m.bundle;
    outputs->engine = d.options.engine;
    outputs->engine.trace = {};
  }

  std::map<std::string, std::shared_ptr<ModelBundle>> by_name;
  for (const auto& m : d.models) by_name[m.bundle->name] = m.bundle;

  // Per-layer probes (traced episodes only).
  std::vector<double> submit_us, step_ms, rows, active, planning_us;
  double peak_device = 0.0;
  if (traced) {
    server->set_step_observer([&](const std::string& name, int,
                                  const turbo::genserve::StepStats& s) {
      if (s.active == 0) return;
      rows.push_back(s.step_rows);
      active.push_back(s.active);
      const auto& encoder = by_name.at(name)->encoder;
      if (encoder != nullptr && s.prefilled > 0) {
        planning_us.push_back(encoder->last_planning_us());
      }
    });
  }

  const Counters before = Counters::read(*server);
  StreamTimer timer(&ep, &clock);
  NextFn next = w.script();
  int64_t completed = 0, prompt_tokens = 0;
  uint64_t hash = kFnvBasis;
  auto submit = [&](GenerationRequest r) {
    ++ep.requests;
    prompt_tokens += static_cast<int64_t>(r.src_tokens.size());
    if (outputs != nullptr && w.sampled(r.id)) outputs->requests[r.id] = r;
    timer.submitted(r.id);
    const double t0 = clock.now();
    server->submit(std::move(r), [&timer](int64_t id, int, int, bool) {
      timer.token(id);
    });
    if (traced) submit_us.push_back((clock.now() - t0) * 1e3);
  };

  const ServeTimer serve_timer(clock);
  auto start_clients = [&](int64_t step) {
    for (int c = 0; c < w.clients; ++c) {
      const int64_t at =
          w.start_step.empty() ? 0 : w.start_step[static_cast<size_t>(c)];
      if (at != step) continue;
      if (auto r = next(c, nullptr)) submit(std::move(*r));
    }
  };
  const int64_t last_start =
      w.start_step.empty()
          ? 0
          : *std::max_element(w.start_step.begin(), w.start_step.end());
  start_clients(0);
  for (int64_t step = 1; !server->idle() || step <= last_start; ++step) {
    clock.calibrate();
    const double t0 = clock.now();
    server->step();
    if (traced) {
      step_ms.push_back(clock.now() - t0);
      double device = 0.0;
      for (const auto& s : server->stats()) device += s.pool.device_bytes;
      peak_device = std::max(peak_device, device);
    }
    for (auto& resp : server->take_completed()) {
      timer.completed(resp.request_id);
      ++completed;
      ep.tokens += static_cast<int64_t>(resp.tokens.size());
      hash = fnv_fold(hash, resp.request_id);
      for (int t : resp.tokens) hash = fnv_fold(hash, t);
      if (outputs != nullptr && w.sampled(resp.request_id)) {
        outputs->tokens[resp.request_id] = resp.tokens;
      }
      const int client = static_cast<int>(resp.request_id / kIdStride);
      if (auto r = next(client, &resp)) submit(std::move(*r));
    }
    start_clients(step);
  }
  serve_timer.stop(&ep);
  ep.failed = ep.requests - completed;

  const Counters after = Counters::read(*server);
  const int64_t iterations = after.iterations - before.iterations;
  ep.fingerprint = {
      {"steps", iterations},
      {"requests", completed},
      {"tokens", ep.tokens},
      {"admits", after.admitted - before.admitted},
      {"preemptions", after.preemptions - before.preemptions},
      {"replayed_rows", after.replayed - before.replayed},
      {"radix_hit_rows", after.radix_hit_rows - before.radix_hit_rows},
      {"reclaims", after.reclaims - before.reclaims},
      {"routed_tight", after.routed_tight - before.routed_tight},
      {"denial_fallbacks", after.fallbacks - before.fallbacks},
      {"output_hash", static_cast<int64_t>(hash >> 1)},
  };

  if (traced) {
    const auto& ring = server->trace_ring();
    if (ring->dropped() != 0 || ring->total_recorded() > ring->capacity()) {
      throw std::runtime_error("trace ring wrapped: " +
                               std::to_string(ring->total_recorded()) +
                               " spans");
    }
    phase_times(server->trace_spans(), w.causal, iterations, &ep);
    ep.layer_samples["router.submit_us"] = std::move(submit_us);
    ep.layer_samples["genserve.step_ms"] = std::move(step_ms);
    ep.layer_samples["genserve.step_rows"] = rows;
    ep.layer_samples["memory.planning_us"] = std::move(planning_us);
    auto mean = [](const std::vector<double>& v) {
      double s = 0;
      for (double x : v) s += x;
      return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    };
    auto& lv = ep.layer_values;
    lv["router.denial_fallbacks"] =
        static_cast<double>(after.fallbacks - before.fallbacks);
    lv["router.routed_tight"] =
        static_cast<double>(after.routed_tight - before.routed_tight);
    lv["genserve.steps"] = static_cast<double>(iterations);
    lv["genserve.rows_per_step"] = mean(rows);
    lv["genserve.active_per_step"] = mean(active);
    lv["kv.prefill_rows"] =
        static_cast<double>(after.prefilled - before.prefilled);
    lv["kv.radix_hit_rows_frac"] =
        static_cast<double>(after.radix_hit_rows - before.radix_hit_rows) /
        static_cast<double>(std::max<int64_t>(prompt_tokens, 1));
    lv["kv.preemptions"] =
        static_cast<double>(after.preemptions - before.preemptions);
    lv["kv.replayed_rows"] =
        static_cast<double>(after.replayed - before.replayed);
    lv["kv.peak_device_mb"] = peak_device / (1024.0 * 1024.0);
    double resident = 0, live = 0, alloc_peak = 0;
    for (const auto& s : server->stats()) {
      resident += static_cast<double>(s.pool.peak_resident_bytes);
      live += static_cast<double>(s.pool.peak_live_bytes);
    }
    for (const auto& [name, bundle] : by_name) {
      if (bundle->encoder != nullptr) {
        alloc_peak += static_cast<double>(
            bundle->encoder->allocator().stats().peak_device_bytes);
      }
    }
    lv["kv.resident_over_live"] = live > 0 ? resident / live : 0.0;
    lv["budget.reclaims"] =
        static_cast<double>(after.reclaims - before.reclaims);
    lv["budget.reclaimed_mb"] =
        static_cast<double>(after.reclaimed - before.reclaimed) /
        (1024.0 * 1024.0);
    lv["memory.alloc_peak_mb"] = alloc_peak / (1024.0 * 1024.0);
  }
  return ep;
}

// Re-serves each sampled request alone on a fresh single engine and
// compares token for token (batch invariance: batch composition,
// preemption and radix adoption must never change a request's output).
void check_outputs(const EpisodeOutputs& out, Report* report) {
  for (const auto& [id, request] : out.requests) {
    ++report->checks;
    const auto got = out.tokens.find(id);
    std::vector<int> alone;
    GenerationRequest r = request;
    const std::string model = r.model.empty() ? out.bundles.begin()->first
                                              : r.model;
    r.model.clear();
    turbo::genserve::GenerationServer engine(out.bundles.at(model),
                                             out.engine);
    engine.submit(std::move(r));
    for (auto& resp : engine.run_to_completion()) alone = resp.tokens;
    if (got == out.tokens.end() || got->second != alone) {
      ++report->check_failures;
      report->errors.push_back("request " + std::to_string(id) +
                               " differs from its solo decode");
    }
  }
}

void run_workload(const GenWorkload& w, const Options& options,
                  Report* report) {
  EpisodeOutputs outputs;
  run_episodes(
      options, report, /*min_untraced=*/2,
      [&](RefClock&) { set_up(w.deploy()); },
      [&](RefClock& clock, bool traced, bool first) {
        return run_episode(w, clock, traced, first ? &outputs : nullptr);
      });
  check_outputs(outputs, report);

  if (options.trace) {
    std::vector<double> rows;
    for (const auto& e : report->episodes) {
      if (!e.traced) continue;
      const auto it = e.layer_samples.find("genserve.step_rows");
      rows.insert(rows.end(), it->second.begin(), it->second.end());
    }
    probe_kernels(static_cast<int>(median_of(rows)), w.encode_rows, w.hidden,
                  w.intermediate, report);
  }
}

// ---------------------------------------------------------------------------
// chat_prefix: multi-turn chat over a decoder-only model. Every prompt is
// a block-aligned shared system prompt, then the conversation so far, then
// fresh user tokens, so contexts grow to several hundred rows and most
// prompt rows are adopted from the radix cache.
// ---------------------------------------------------------------------------

constexpr int kChatClients = 26;  // 104 requests: a p90 per episode
constexpr int kChatTurns = 4;
constexpr int kChatSystemTokens = 256;  // a multiple of the block size
constexpr int kChatUserTokens = 24;
constexpr int kChatMaxNew = 16;
constexpr int kChatVocab = 1000;
constexpr int kChatQuantum = 64;

turbo::model::ModelConfig chat_config() {
  return turbo::model::ModelConfig::tiny_causal(/*layers=*/2, /*hidden=*/256,
                                                /*heads=*/4, /*inter=*/1024,
                                                kChatVocab);
}

GenWorkload chat_prefix_workload(uint64_t seed) {
  turbo::Rng rng(seed);
  const std::vector<int> system_prompt =
      rng.token_ids(kChatSystemTokens, kChatVocab);
  // user[c][t]: client c's message at turn t.
  auto user = std::make_shared<std::vector<std::vector<std::vector<int>>>>(
      kChatClients);
  for (auto& turns : *user) {
    for (int t = 0; t < kChatTurns; ++t) {
      turns.push_back(rng.token_ids(kChatUserTokens, kChatVocab));
    }
  }

  GenWorkload w;
  w.clients = kChatClients;
  w.causal = true;
  w.encode_rows = kChatQuantum;
  w.hidden = chat_config().hidden;
  w.intermediate = chat_config().intermediate;
  w.deploy = [system_prompt] {
    Deployment d;
    d.models.push_back({turbo::genserve::make_decoder_only_bundle(
                            "chat", 1, chat_config(), /*seed=*/1234),
                        0, 1});
    auto& e = d.options.engine;
    e.pool.block_tokens = 16;
    e.pool.blocks_per_slab = 32;
    e.scheduler.max_active = kChatClients;
    e.scheduler.step_token_quantum = kChatQuantum;
    e.observe_step_costs = false;
    d.options.router.use_observed_cost = false;
    // Warm-up: the system prompt alone, which also seeds the radix cache.
    GenerationRequest r;
    r.id = kWarmupId;
    r.src_tokens = system_prompt;
    r.max_new_tokens = 1;
    d.warmup.push_back(r);
    return d;
  };
  w.script = [system_prompt, user] {
    auto history = std::make_shared<std::vector<std::vector<int>>>(
        kChatClients, system_prompt);
    auto turn = std::make_shared<std::vector<int>>(kChatClients, 0);
    return NextFn([history, turn, user](int c, const GenerationResponse* prev)
                      -> std::optional<GenerationRequest> {
      auto& h = (*history)[static_cast<size_t>(c)];
      int& t = (*turn)[static_cast<size_t>(c)];
      if (prev != nullptr) {
        h.insert(h.end(), prev->tokens.begin(), prev->tokens.end());
        ++t;
      }
      if (t >= kChatTurns) return std::nullopt;
      const auto& msg = (*user)[static_cast<size_t>(c)][static_cast<size_t>(t)];
      h.insert(h.end(), msg.begin(), msg.end());
      GenerationRequest r;
      r.id = c * kIdStride + t;
      r.src_tokens = h;
      r.max_new_tokens = kChatMaxNew;
      return r;
    });
  };
  w.sampled = [](int64_t id) {
    const int64_t client = id / kIdStride, turn = id % kIdStride;
    return client % 8 == 0 && (turn == 1 || turn == kChatTurns - 1);
  };
  return w;
}

// ---------------------------------------------------------------------------
// tenant_mix: two seq2seq models of different geometry, two replicas each
// behind the SLO router, one bounded KV budget. Short unshared prompts,
// three priority classes, natural EOS under a generous max_new_tokens: the
// KV pool is written, preempted, replayed and reclaimed under a shared
// bound instead of read from cache.
// ---------------------------------------------------------------------------

constexpr int kTenantClients = 30;
// Two passes over kTenantStrata length strata (see tenant_mix_workload).
constexpr int kTenantStrata = 5;
constexpr int kTenantTurns = 2 * kTenantStrata;
constexpr int kTenantVocab = 1000;
constexpr int kTenantMaxNew = 48;
constexpr int kTenantQuantum = 64;
// Pressure is a fixed part of every episode. The summ clients start alone
// with an opening request of kTenantLongNew tokens; by iteration
// kTenantLateStart they hold most of the budget, far past their floor.
// Then the chat clients join, under their floor: the server reclaims from
// summ, whose victims are preempted and later replay. After that opening
// the budget is loose: under a tighter one (6-6.5 MB) preemption goes on
// all episode long, its count doubles from one seed to another, and the
// episode's length follows it.
// Floors (reclaim guarantees, split across a model's replicas): chat 3 MB,
// summ 1.5 MB.
constexpr size_t kTenantBudgetBytes = size_t{7} << 20;
constexpr size_t kTenantGuaranteeBytes[2] = {size_t{3} << 20,
                                             size_t{1536} << 10};
constexpr int kTenantLongNew = 64;
constexpr int64_t kTenantLateStart = 56;
// SLO classes under serving::slo_class_of: tight, standard, batch.
constexpr int kTenantPriorities[3] = {2, 0, -1};

turbo::model::ModelConfig tenant_config(int which) {
  return which == 0
             ? turbo::model::ModelConfig::tiny(2, 256, 4, 1024, kTenantVocab)
             : turbo::model::ModelConfig::tiny(3, 192, 4, 768, kTenantVocab);
}
const char* tenant_name(int which) { return which == 0 ? "chat" : "summ"; }

GenServerOptions tenant_engine() {
  GenServerOptions e;
  e.pool.block_tokens = 8;
  e.pool.blocks_per_slab = 8;
  e.scheduler.max_active = 16;
  e.scheduler.step_token_quantum = kTenantQuantum;
  e.scheduler.victim_policy =
      turbo::genserve::GenSchedulerOptions::VictimPolicy::kLowestPriority;
  e.observe_step_costs = false;
  return e;
}

std::shared_ptr<ModelBundle> tenant_bundle(int which) {
  return turbo::genserve::make_bundle(tenant_name(which), 1,
                                      tenant_config(which),
                                      /*seed=*/2000 + which);
}

GenWorkload tenant_mix_workload(uint64_t seed) {
  // Client c serves model c % 2 in priority class (c / 2) % 3.
  turbo::Rng rng(seed);
  // Prompt lengths and EOS positions come from kTenantStrata equal strata
  // of their ranges in a Latin square: client c's turn t draws from stratum
  // (c + t) mod kTenantStrata. Every client's chain of requests is then
  // about equally long, every turn mixes all strata, and the shape of the
  // contention is the same under every seed; the seed picks the values
  // within the strata and the tokens.
  auto latin = [&rng](int lo, int hi) {
    std::vector<int> v;
    const double width = static_cast<double>(hi - lo + 1) / kTenantStrata;
    for (int c = 0; c < kTenantClients; ++c) {
      for (int t = 0; t < kTenantTurns; ++t) {
        const int stratum = (c + t) % kTenantStrata;
        v.push_back(lo + static_cast<int>((stratum + rng.uniform()) * width));
      }
    }
    return v;
  };
  const std::vector<int> src_lens = latin(6, 24);
  const std::vector<int> eos_targets = latin(8, 24);
  auto scripts = std::make_shared<std::vector<std::vector<GenerationRequest>>>(
      kTenantClients);
  for (int c = 0; c < kTenantClients; ++c) {
    for (int t = 0; t < kTenantTurns; ++t) {
      GenerationRequest r;
      r.id = c * kIdStride + t;
      r.src_tokens = rng.token_ids(
          src_lens[static_cast<size_t>(c * kTenantTurns + t)], kTenantVocab);
      r.max_new_tokens = kTenantMaxNew;
      if (c % 2 == 1 && t == 0) {
        // A summ client's opening request: the longest prompt, run to a
        // long max_new_tokens (no EOS), the same under every seed.
        r.src_tokens = rng.token_ids(24, kTenantVocab);
        r.max_new_tokens = kTenantLongNew;
      }
      r.model = tenant_name(c % 2);
      r.priority = kTenantPriorities[(c / 2) % 3];
      (*scripts)[static_cast<size_t>(c)].push_back(std::move(r));
    }
  }
  // Natural EOS: each request stops at a token its own uncontended
  // trajectory emits near its drawn position (bench::assign_natural_eos).
  // The trajectory is decoded only up to that position, so the EOS token
  // first occurs at or before it.
  auto target_of = [&eos_targets](const GenerationRequest& r) {
    return eos_targets[static_cast<size_t>(r.id / kIdStride * kTenantTurns +
                                           r.id % kIdStride)];
  };
  for (int which = 0; which < 2; ++which) {
    turbo::genserve::GenerationServer probe(tenant_bundle(which),
                                            tenant_engine());
    std::vector<GenerationRequest*> mine;
    for (auto& s : *scripts) {
      for (auto& r : s) {
        if (r.model == tenant_name(which)) mine.push_back(&r);
      }
    }
    for (auto* r : mine) {
      GenerationRequest q = *r;
      q.model.clear();
      if (q.max_new_tokens != kTenantLongNew) {
        q.max_new_tokens = target_of(q) + 1;
      }
      probe.submit(std::move(q));
    }
    std::map<int64_t, std::vector<int>> trajectories;
    for (auto& resp : probe.run_to_completion()) {
      trajectories[resp.request_id] = std::move(resp.tokens);
    }
    for (auto* r : mine) {
      // The drawn position of request id, pinned by lo == hi.
      const int target = target_of(*r);
      std::vector<GenerationRequest> one{*r};
      if (r->max_new_tokens == kTenantLongNew) {
        // The lowest token id its trajectory never emits.
        const auto& seen = trajectories.at(r->id);
        int eos = 0;
        while (std::find(seen.begin(), seen.end(), eos) != seen.end()) ++eos;
        r->eos_id = eos;
        continue;
      }
      turbo::bench::assign_natural_eos(one, trajectories, rng, target, target);
      *r = one[0];
    }
  }

  int64_t src_total = 0, src_count = 0;
  for (const auto& s : *scripts) {
    for (const auto& r : s) {
      src_total += static_cast<int64_t>(r.src_tokens.size());
      ++src_count;
    }
  }

  GenWorkload w;
  w.clients = kTenantClients;
  // The chat clients (even c) join at kTenantLateStart.
  for (int c = 0; c < kTenantClients; ++c) {
    w.start_step.push_back(c % 2 == 0 ? kTenantLateStart : 0);
  }
  w.causal = false;
  w.encode_rows = static_cast<int>(src_total / std::max<int64_t>(src_count, 1));
  w.hidden = tenant_config(0).hidden;
  w.intermediate = tenant_config(0).intermediate;
  w.deploy = [] {
    Deployment d;
    for (int which = 0; which < 2; ++which) {
      d.models.push_back(
          {tenant_bundle(which), kTenantGuaranteeBytes[which], 2});
    }
    d.options.engine = tenant_engine();
    d.options.total_kv_bytes = kTenantBudgetBytes;
    d.options.router.use_observed_cost = false;
    for (int which = 0; which < 2; ++which) {
      GenerationRequest r;
      r.id = kWarmupId + which;
      r.src_tokens = std::vector<int>(8, 7);
      r.max_new_tokens = 4;
      r.model = tenant_name(which);
      d.warmup.push_back(r);
    }
    return d;
  };
  w.script = [scripts] {
    auto turn = std::make_shared<std::vector<int>>(kTenantClients, 0);
    return NextFn([scripts, turn](int c, const GenerationResponse* prev)
                      -> std::optional<GenerationRequest> {
      int& t = (*turn)[static_cast<size_t>(c)];
      if (prev != nullptr) ++t;
      if (t >= kTenantTurns) return std::nullopt;
      return (*scripts)[static_cast<size_t>(c)][static_cast<size_t>(t)];
    });
  };
  // Clients 7 (summ, tight), 14 (chat, standard) and 28 (chat, batch):
  // both models, all three classes, the opening and the last turn.
  w.sampled = [](int64_t id) {
    const int64_t client = id / kIdStride, turn = id % kIdStride;
    return (client == 7 || client == 14 || client == 28) &&
           (turn == 0 || turn == kTenantTurns - 1);
  };
  return w;
}

}  // namespace

void run_chat_prefix(const Options& options, Report* report) {
  run_workload(chat_prefix_workload(options.seed), options, report);
}

void run_tenant_mix(const Options& options, Report* report) {
  run_workload(tenant_mix_workload(options.seed), options, report);
}

}  // namespace perfbench
