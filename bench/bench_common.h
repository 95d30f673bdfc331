// Shared helpers for the benchmark binaries, perfbench and the tests.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "gpusim/device_spec.h"
#include "perfmodel/model_latency.h"
#include "serving/cost_table.h"
#include "serving/request.h"

namespace turbo::bench {

inline perfmodel::EncoderModelDesc bert_base() {
  perfmodel::EncoderModelDesc d;
  d.name = "Bert";
  d.dims = graph::LayerDims{768, 12, 3072};
  d.num_layers = 12;
  return d;
}

inline perfmodel::EncoderModelDesc albert() {
  perfmodel::EncoderModelDesc d;
  d.name = "Albert";
  d.dims = graph::LayerDims{4096, 64, 16384};
  d.num_layers = 12;
  return d;
}

inline perfmodel::EncoderModelDesc distilbert() {
  perfmodel::EncoderModelDesc d;
  d.name = "DistilBert";
  d.dims = graph::LayerDims{768, 12, 3072};
  d.num_layers = 6;
  return d;
}

// Per-batch service-layer overhead (request handling, message queue,
// framework dispatch), calibrated so the NoBatch critical points land near
// the paper's §6.3 numbers (PyTorch-NoBatch ~99 resp/s, Turbo-NoBatch ~237
// resp/s for lengths 2-100). Documented in EXPERIMENTS.md.
inline constexpr double kTurboServingOverheadMs = 1.3;
inline constexpr double kPyTorchServingOverheadMs = 4.8;

// Cost table for a runtime profile, latency from the performance model
// plus the serving-layer overhead.
inline serving::CostTable serving_cost_table(
    const perfmodel::EncoderModelDesc& model,
    const perfmodel::RuntimeProfile& profile,
    const gpusim::DeviceSpec& spec, double overhead_ms, int max_len,
    int max_batch) {
  return serving::CostTable::warmup(
      [&](int len, int batch) {
        return overhead_ms + perfmodel::encoder_latency_ms(model, batch, len,
                                                           profile, spec);
      },
      max_len, max_batch, /*len_step=*/8);
}

inline void print_rule(char c = '-', int n = 78) {
  for (int i = 0; i < n; ++i) std::putchar(c);
  std::putchar('\n');
}

// ---------------------------------------------------------------------------
// Synthetic generation workloads, shared by perfbench and the serving
// tests so every workload stresses the same trace shapes (and so
// determinism fixes land in one place).
// ---------------------------------------------------------------------------

// One tenant of a multi-tenant arrival trace: a request population with
// its own route, prompt-length band, output budget, SLO priority, and
// (optionally) bursty arrivals.
struct TenantSpec {
  std::string model;            // GenerationRequest::model ("" = default)
  int requests = 0;
  int64_t id_base = 0;          // ids id_base .. id_base + requests - 1
  int src_lo = 4;               // prompt length, uniform inclusive band
  int src_hi = 10;
  int max_new_tokens = 16;
  int priority = 0;             // SLO class under serving::slo_class_of
  int vocab = 500;
  // Bursty arrivals: requests land in bursts of `burst` every `period`
  // virtual steps. burst == 0 (default) puts the whole population at step
  // 0 — the all-upfront shape.
  int burst = 0;
  int period = 0;
};

// A request plus its virtual arrival instant (steps, not wall clock —
// traces replay deterministically).
struct TracedRequest {
  serving::GenerationRequest request;
  int64_t arrival_step = 0;
};

// One tenant's requests in id order. Per request the RNG draws the
// prompt length, then its tokens, so a trace is a pure function of the
// spec and the stream's state; changing that order changes every
// workload built on it.
inline std::vector<TracedRequest> make_tenant_trace(const TenantSpec& t,
                                                    Rng& rng) {
  std::vector<TracedRequest> out;
  out.reserve(static_cast<size_t>(std::max(0, t.requests)));
  for (int i = 0; i < t.requests; ++i) {
    serving::GenerationRequest r;
    r.id = t.id_base + i;
    r.src_tokens = rng.token_ids(
        static_cast<int>(rng.uniform_int(t.src_lo, t.src_hi)), t.vocab);
    r.max_new_tokens = t.max_new_tokens;
    r.eos_id = 2;
    r.model = t.model;
    r.priority = t.priority;
    TracedRequest tr;
    tr.request = std::move(r);
    if (t.burst > 0 && t.period > 0) {
      tr.arrival_step = static_cast<int64_t>(i / t.burst) * t.period;
    }
    out.push_back(std::move(tr));
  }
  return out;
}

// Interleaved multi-tenant trace, arrival order (stable on ties: tenant
// listing order, then id order — fully deterministic). Tenants draw from
// the one `rng` in listing order, so the per-tenant populations match
// generating each tenant alone with the same starting stream.
inline std::vector<TracedRequest> make_multi_tenant_trace(
    const std::vector<TenantSpec>& tenants, Rng& rng) {
  std::vector<TracedRequest> all;
  for (const TenantSpec& t : tenants) {
    auto part = make_tenant_trace(t, rng);
    all.insert(all.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TracedRequest& a, const TracedRequest& b) {
                     return a.arrival_step < b.arrival_step;
                   });
  return all;
}

// Strip arrival stamps (for workloads that submit everything upfront).
inline std::vector<serving::GenerationRequest> trace_requests(
    const std::vector<TracedRequest>& trace) {
  std::vector<serving::GenerationRequest> out;
  out.reserve(trace.size());
  for (const TracedRequest& t : trace) out.push_back(t.request);
  return out;
}

// One chat turn's requests over per-conversation fed histories (the
// multi-turn radix-cache shape): conversation c's request id is
// turn * 100 + c and its prompt is the whole history so far.
inline std::vector<serving::GenerationRequest> chat_turn_requests(
    const std::vector<std::vector<int>>& histories, int turn, int max_new) {
  std::vector<serving::GenerationRequest> out;
  out.reserve(histories.size());
  for (size_t c = 0; c < histories.size(); ++c) {
    serving::GenerationRequest req;
    req.id = static_cast<int64_t>(turn) * 100 + static_cast<int64_t>(c);
    req.src_tokens = histories[c];
    req.max_new_tokens = max_new;
    req.bos_id = 1;
    req.eos_id = 2;
    out.push_back(std::move(req));
  }
  return out;
}

// EOS-from-trajectory pre-pass: retarget each
// request's eos_id to a token its own uncontended greedy trajectory
// (`probe_tokens`, keyed by request id) actually emits near a drawn
// position, so "finishes early" is deterministic and identical across
// runs and placements.
inline void assign_natural_eos(
    std::vector<serving::GenerationRequest>& requests,
    const std::map<int64_t, std::vector<int>>& probe_tokens, Rng& rng,
    int lo, int hi) {
  for (auto& r : requests) {
    const auto& toks = probe_tokens.at(r.id);
    const int target = static_cast<int>(rng.uniform_int(lo, hi));
    std::map<int, int> first_occurrence;
    for (size_t k = 0; k < toks.size(); ++k) {
      first_occurrence.emplace(toks[k], static_cast<int>(k));
    }
    int best_tok = -1, best_dist = 1 << 30;
    for (const auto& [tok, first] : first_occurrence) {
      const int dist = std::abs(first - target);
      if (dist < best_dist) {
        best_dist = dist;
        best_tok = tok;
      }
    }
    TT_CHECK_GE(best_tok, 0);
    r.eos_id = best_tok;
  }
}

}  // namespace turbo::bench
