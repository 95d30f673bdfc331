#include "obs/passes.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <unordered_map>

namespace turbo::obs {

namespace {

// Kinds that tile a step when recorded at engine level (seq == -1).
bool is_phase_kind(SpanKind kind) {
  switch (kind) {
    case SpanKind::kAdmit:
    case SpanKind::kEncodePrefill:
    case SpanKind::kSchedule:
    case SpanKind::kDecodeStep:
    case SpanKind::kStream:
      return true;
    default:
      return false;
  }
}

// Engine-level phase spans tile one step; everything else is an event or
// a sequence-lifecycle span. Encoder passes are step work however they are
// recorded: a deferred encode job runs inside the step as one span per
// sequence it encodes.
bool is_phase_span(const TraceSpan& s) {
  return is_phase_kind(s.kind) &&
         (s.seq < 0 || s.kind == SpanKind::kEncodePrefill);
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

struct StepKey {
  std::string model;
  int32_t version;
  int64_t iteration;
  bool operator<(const StepKey& o) const {
    if (model != o.model) return model < o.model;
    if (version != o.version) return version < o.version;
    return iteration < o.iteration;
  }
};

}  // namespace

PhaseAttribution attribute_phases(const std::vector<TraceSpan>& spans) {
  PhaseAttribution out;

  struct Step {
    uint64_t start = UINT64_MAX;
    uint64_t end = 0;
    double covered_ms = 0;
    double by_kind_ms[kSpanKinds] = {};
  };
  std::map<StepKey, Step> steps;
  struct Kind {
    size_t count = 0;
    double total_ms = 0;
    std::vector<double> durations_ms;
  };
  Kind kinds[kSpanKinds];

  for (const TraceSpan& s : spans) {
    const bool phase = is_phase_span(s);
    // Sequence-level spans of phase kinds (per-seq admit = queue wait,
    // per-seq stream = first token) belong to the queueing pass; folding
    // their durations into the phase table would swamp it with wait time
    // that is not step work. Lifecycle kinds (preempt/resume/evict/
    // reclaim) are inherently sequence-level and stay.
    if (!phase && is_phase_kind(s.kind)) continue;
    Kind& k = kinds[static_cast<int>(s.kind)];
    ++k.count;
    const double ms = span_ms(s);
    k.total_ms += ms;
    k.durations_ms.push_back(ms);
    if (!phase) continue;
    Step& step = steps[StepKey{s.model, s.model_version, s.iteration}];
    step.start = std::min(step.start, s.start_ticks);
    step.end = std::max(step.end, s.end_ticks);
    step.covered_ms += ms;
    step.by_kind_ms[static_cast<int>(s.kind)] += ms;
  }

  std::vector<double> walls;
  walls.reserve(steps.size());
  for (const auto& [key, step] : steps) {
    const double wall =
        static_cast<double>(step.end - step.start) * 1e-6;
    walls.push_back(wall);
    out.step_wall_ms += wall;
    out.covered_ms += step.covered_ms;
  }
  out.iterations = steps.size();
  out.coverage = out.step_wall_ms > 0 ? out.covered_ms / out.step_wall_ms : 0;
  std::sort(walls.begin(), walls.end());
  out.iter_p50_ms = quantile_sorted(walls, 0.50);
  out.iter_p99_ms = quantile_sorted(walls, 0.99);

  // Tail attribution: the steps at or beyond the p99 wall-time are the
  // tail; their per-phase time answers "which phase dominates tail
  // latency".
  double tail_by_kind[kSpanKinds] = {};
  double tail_total = 0;
  for (const auto& [key, step] : steps) {
    const double wall = static_cast<double>(step.end - step.start) * 1e-6;
    if (wall < out.iter_p99_ms) continue;
    tail_total += step.covered_ms;
    for (int k = 0; k < kSpanKinds; ++k) tail_by_kind[k] += step.by_kind_ms[k];
  }

  double best_tail = -1.0;
  for (int k = 0; k < kSpanKinds; ++k) {
    if (kinds[k].count == 0) continue;
    PhaseStat stat;
    stat.kind = static_cast<SpanKind>(k);
    stat.count = kinds[k].count;
    stat.total_ms = kinds[k].total_ms;
    std::sort(kinds[k].durations_ms.begin(), kinds[k].durations_ms.end());
    stat.p50_ms = quantile_sorted(kinds[k].durations_ms, 0.50);
    stat.p99_ms = quantile_sorted(kinds[k].durations_ms, 0.99);
    stat.fraction = out.step_wall_ms > 0 && is_phase_kind(stat.kind)
                        ? stat.total_ms / out.step_wall_ms
                        : 0;
    stat.tail_fraction = tail_total > 0 ? tail_by_kind[k] / tail_total : 0;
    if (tail_by_kind[k] > best_tail) {
      best_tail = tail_by_kind[k];
      out.dominant_tail_phase = stat.kind;
    }
    out.phases.push_back(stat);
  }
  std::sort(out.phases.begin(), out.phases.end(),
            [](const PhaseStat& a, const PhaseStat& b) {
              return a.total_ms > b.total_ms;
            });
  if (best_tail <= 0.0 && !out.phases.empty()) {
    out.dominant_tail_phase = out.phases.front().kind;
  }
  return out;
}

QueueingBreakdown queueing_breakdown(const std::vector<TraceSpan>& spans) {
  QueueingBreakdown out;
  struct Seq {
    uint64_t arrival = 0, admitted = 0, first_token = 0;
    bool has_admit = false, has_first = false;
  };
  std::unordered_map<int64_t, Seq> seqs;
  for (const TraceSpan& s : spans) {
    if (s.seq < 0) continue;
    Seq& q = seqs[s.seq];
    if (s.kind == SpanKind::kAdmit && !q.has_admit) {
      q.arrival = s.start_ticks;
      q.admitted = s.end_ticks;
      q.has_admit = true;
    } else if (s.kind == SpanKind::kStream && !q.has_first) {
      q.first_token = s.start_ticks;
      q.has_first = true;
    }
  }
  std::vector<double> queue_ms, admit_first_ms, ttft_ms;
  for (const auto& [id, q] : seqs) {
    if (!q.has_admit || !q.has_first) continue;
    queue_ms.push_back(static_cast<double>(q.admitted - q.arrival) * 1e-6);
    admit_first_ms.push_back(
        q.first_token >= q.admitted
            ? static_cast<double>(q.first_token - q.admitted) * 1e-6
            : 0.0);
    ttft_ms.push_back(static_cast<double>(q.first_token - q.arrival) * 1e-6);
  }
  out.sequences = queue_ms.size();
  std::sort(queue_ms.begin(), queue_ms.end());
  std::sort(admit_first_ms.begin(), admit_first_ms.end());
  std::sort(ttft_ms.begin(), ttft_ms.end());
  out.queue_p50_ms = quantile_sorted(queue_ms, 0.50);
  out.queue_p99_ms = quantile_sorted(queue_ms, 0.99);
  out.admit_to_first_p50_ms = quantile_sorted(admit_first_ms, 0.50);
  out.admit_to_first_p99_ms = quantile_sorted(admit_first_ms, 0.99);
  out.first_token_p50_ms = quantile_sorted(ttft_ms, 0.50);
  out.first_token_p99_ms = quantile_sorted(ttft_ms, 0.99);
  return out;
}

std::vector<PreemptionCascade> detect_cascades(
    const std::vector<TraceSpan>& spans, int64_t max_gap) {
  // Preempt/evict events grouped per model, then joined into runs of
  // nearby iterations; each run's replay bill comes from the resume spans
  // of its victims (a resume records how many tokens it re-derived and
  // how long the victim sat parked).
  struct Event {
    int64_t iteration;
    int64_t seq;
    SpanKind kind;
  };
  std::map<std::string, std::vector<Event>> by_model;
  struct Replay {
    int64_t tokens = 0;
    double parked_ms = 0;
    size_t resumes = 0;
  };
  std::unordered_map<int64_t, Replay> replays;  // by victim seq id
  for (const TraceSpan& s : spans) {
    if (s.kind == SpanKind::kPreempt || s.kind == SpanKind::kEvict) {
      by_model[s.model].push_back(Event{s.iteration, s.seq, s.kind});
    } else if (s.kind == SpanKind::kResume) {
      Replay& r = replays[s.seq];
      r.tokens += s.tokens;
      r.parked_ms += span_ms(s);
      ++r.resumes;
    }
  }

  std::vector<PreemptionCascade> out;
  for (auto& [model, events] : by_model) {
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) {
                       return a.iteration < b.iteration;
                     });
    PreemptionCascade cur;
    const auto flush = [&] {
      if (cur.preemptions == 0 && cur.evictions == 0) return;
      // Replay accounting: every victim's resumes, averaged over how many
      // cascades preempted it so repeated victims are not double-billed.
      for (const int64_t v : cur.victims) {
        const auto it = replays.find(v);
        if (it == replays.end() || it->second.resumes == 0) continue;
        cur.replayed_tokens +=
            it->second.tokens / static_cast<int64_t>(it->second.resumes);
        cur.parked_ms +=
            it->second.parked_ms / static_cast<double>(it->second.resumes);
      }
      out.push_back(std::move(cur));
      cur = PreemptionCascade{};
    };
    for (const Event& e : events) {
      if (cur.preemptions + cur.evictions > 0 &&
          e.iteration - cur.last_iteration > max_gap) {
        flush();
      }
      if (cur.preemptions + cur.evictions == 0) {
        cur.model = model;
        cur.first_iteration = e.iteration;
      }
      cur.last_iteration = e.iteration;
      if (e.kind == SpanKind::kPreempt) {
        ++cur.preemptions;
        cur.victims.push_back(e.seq);
      } else {
        ++cur.evictions;
      }
    }
    flush();
  }
  std::sort(out.begin(), out.end(),
            [](const PreemptionCascade& a, const PreemptionCascade& b) {
              if (a.replayed_tokens != b.replayed_tokens) {
                return a.replayed_tokens > b.replayed_tokens;
              }
              return a.preemptions > b.preemptions;
            });
  return out;
}

std::vector<ReclaimEvent> reclaim_timeline(
    const std::vector<TraceSpan>& spans) {
  uint64_t t0 = UINT64_MAX;
  for (const TraceSpan& s : spans) t0 = std::min(t0, s.start_ticks);
  std::vector<ReclaimEvent> out;
  for (const TraceSpan& s : spans) {
    if (s.kind != SpanKind::kReclaim) continue;
    ReclaimEvent e;
    e.at_ms = static_cast<double>(s.start_ticks - t0) * 1e-6;
    e.starved = s.model;
    e.donor = s.peer;
    e.bytes = s.bytes;
    e.iteration = s.iteration;
    out.push_back(std::move(e));
  }
  std::sort(out.begin(), out.end(),
            [](const ReclaimEvent& a, const ReclaimEvent& b) {
              return a.at_ms < b.at_ms;
            });
  return out;
}

std::string render_trace_summary(const std::vector<TraceSpan>& spans) {
  std::ostringstream os;
  char line[256];

  const PhaseAttribution attr = attribute_phases(spans);
  os << "trace summary: " << spans.size() << " spans, " << attr.iterations
     << " steps\n";
  std::snprintf(line, sizeof(line),
                "step wall: p50 %.3f ms, p99 %.3f ms; phase coverage %.1f%%\n",
                attr.iter_p50_ms, attr.iter_p99_ms, 100.0 * attr.coverage);
  os << line;
  std::snprintf(line, sizeof(line), "%-10s %8s %10s %10s %10s %7s %7s\n",
                "phase", "count", "total ms", "p50 ms", "p99 ms", "share",
                "tail");
  os << line;
  for (const PhaseStat& p : attr.phases) {
    std::snprintf(line, sizeof(line),
                  "%-10s %8zu %10.3f %10.4f %10.4f %6.1f%% %6.1f%%\n",
                  span_kind_name(p.kind), p.count, p.total_ms, p.p50_ms,
                  p.p99_ms, 100.0 * p.fraction, 100.0 * p.tail_fraction);
    os << line;
  }
  if (attr.dominant_tail_phase != SpanKind::kCount) {
    os << "tail latency (p99 steps) dominated by: "
       << span_kind_name(attr.dominant_tail_phase) << '\n';
  }

  const QueueingBreakdown q = queueing_breakdown(spans);
  if (q.sequences > 0) {
    std::snprintf(
        line, sizeof(line),
        "queueing (%zu seqs): wait p50/p99 %.3f/%.3f ms, admit->first "
        "%.3f/%.3f ms, ttft %.3f/%.3f ms\n",
        q.sequences, q.queue_p50_ms, q.queue_p99_ms, q.admit_to_first_p50_ms,
        q.admit_to_first_p99_ms, q.first_token_p50_ms, q.first_token_p99_ms);
    os << line;
  }

  const auto cascades = detect_cascades(spans);
  if (!cascades.empty()) {
    size_t preempts = 0;
    for (const auto& c : cascades) preempts += c.preemptions;
    os << "preemption cascades: " << cascades.size() << " (" << preempts
       << " preemptions total)\n";
    const PreemptionCascade& top = cascades.front();
    std::snprintf(line, sizeof(line),
                  "top cascade [%s iter %lld-%lld]: %zu victims, %lld "
                  "replayed tokens, %.3f ms parked\n",
                  top.model.c_str(),
                  static_cast<long long>(top.first_iteration),
                  static_cast<long long>(top.last_iteration),
                  top.preemptions,
                  static_cast<long long>(top.replayed_tokens), top.parked_ms);
    os << line;
    os << "  victim chain:";
    for (size_t i = 0; i < top.victims.size() && i < 16; ++i) {
      os << ' ' << top.victims[i];
    }
    if (top.victims.size() > 16) os << " ...";
    os << '\n';
  }

  const auto reclaims = reclaim_timeline(spans);
  if (!reclaims.empty()) {
    uint64_t bytes = 0;
    for (const auto& r : reclaims) bytes += r.bytes;
    std::snprintf(line, sizeof(line),
                  "cross-model reclaims: %zu sheds, %.1f KB moved\n",
                  reclaims.size(), static_cast<double>(bytes) / 1024.0);
    os << line;
  }
  return os.str();
}

}  // namespace turbo::obs
