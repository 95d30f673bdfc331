// Generation serving engine.
//
// GenerationServer is the synchronous engine over one model bundle: it
// owns the KvCachePool and the iteration-level GenerationScheduler and
// drives the bundle's encoder (source sentences run through the §4.2
// model-aware allocator as usual) and step-batched Seq2SeqDecoder. Each
// step() call is one scheduler iteration: admit, run the step's deferred
// encode jobs, one fused decode step over the scheduled rows (greedy),
// stream tokens to per-request callbacks, retire finished sequences.
//
// The concurrent shell is AsyncMultiModelGenerationServer
// (genserve/multi_model_server.h); a single-model deployment registers
// one bundle there. GenerationServer stays the single-engine reference the
// bit-identity tests and perfbench compare against.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "genserve/generation_scheduler.h"
#include "genserve/kv_cache_pool.h"
#include "genserve/model_bundle.h"
#include "model/decoder.h"
#include "model/encoder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/cost_table.h"
#include "serving/request.h"

namespace turbo::genserve {

struct GenServerOptions {
  KvPoolOptions pool;
  GenSchedulerOptions scheduler;
  // Admission cost dictionary; when unset, a coarse analytic warm-up is
  // built (benchmarks pass a profiled table instead).
  std::optional<serving::CostTable> cost_table;
  // Fold each fused step's measured latency back into the cost table
  // (CostTable::observe, §6.3 lazy evaluation): the analytic warm-up is
  // only the starting point, the admission gate's predictions converge
  // to real costs as the server runs.
  bool observe_step_costs = true;
  double cost_observe_alpha = 0.25;
  // Step-level tracing (obs/trace.h). Off by default: the step loop then
  // reads no clock and takes one never-true branch per recording site.
  // Enabled, each step emits one span per phase plus per-sequence
  // lifecycle events into the ring (private, or shared via trace.ring).
  obs::TraceConfig trace;
  // Metrics registry the engine publishes into (obs/metrics.h). When null
  // the engine creates a private one; the multi-model server passes a
  // shared registry so counters survive engine teardown
  // (draining a model no longer zeroes its totals).
  std::shared_ptr<obs::Registry> metrics;
  // Identity this engine publishes under — the metric prefix becomes
  // "gen.<instance_label>." and trace spans carry it as their model label.
  // Empty (default) = the bundle's label ("name:vN"). Replica serving
  // (router::ReplicaSet) sets "name:vN#r" on replicas r >= 1 so co-hosted
  // replicas of one bundle keep distinguishable counters/gauges in the
  // shared registry; replica 0 keeps the plain label, preserving the
  // single-engine metric names bit-for-bit.
  std::string instance_label;
};

// Per-iteration snapshot handed to the step observer (benchmark hook for
// the Fig. 11-style footprint-vs-working-set trace).
struct StepStats {
  int64_t iteration = 0;
  int active = 0;                   // sequences in this fused step
  int step_rows = 0;                // decoder rows in this fused step (==
                                    // active, plus the extra rows of
                                    // prefill/replay chunks; 0 on a step
                                    // that only runs encode jobs)
  int admitted = 0;                 // joined this iteration (first admits)
  int admitted_shared = 0;          // of those, joined via a prompt match
                                    // (cross blocks shared, encoder skipped;
                                    // causal: adopted a radix prefix)
  int retired = 0;                  // finished this iteration
  int preempted = 0;                // victims parked this iteration
  int resumed = 0;                  // requeued sequences re-admitted
  int evicted = 0;                  // parked cross shares dropped
  int replayed = 0;                 // decoder rows re-deriving parked tokens
  int prefilled = 0;                // prompt TOKENS prefilled this step:
                                    // causal rows still feeding the prompt
                                    // (nothing streamed) plus seq2seq source
                                    // tokens run through the encoder
  int prefill_chunks = 0;           // sequences that ran a multi-row
                                    // prefill/replay chunk this step
  int quantum_charged = 0;          // token rows charged against the step
                                    // quantum (StepPlan::quantum_charged)
  bool quantum_overflow = false;    // a whole-prompt encode overran the
                                    // budget to keep the step non-empty
  size_t kv_bytes_in_use = 0;       // live sequences' blocks
  size_t kv_device_bytes = 0;       // slab footprint (device reservation)
  size_t kv_blocks_in_use = 0;      // unique live blocks
};

// Snapshot of pool pressure plus preemption activity, assembled by
// GenerationServer::pool_snapshot(); safe for the async shell to cache
// and serve while the worker runs.
struct PoolSnapshot {
  size_t bytes_in_use = 0;
  size_t device_bytes = 0;
  size_t peak_device_bytes = 0;
  // Fragmentation pair: peak bytes in unique live blocks vs peak slab
  // footprint the device must back to hold them. resident/live = 1.0 means
  // zero overhead.
  size_t peak_live_bytes = 0;
  size_t peak_resident_bytes = 0;
  // Peak instantaneous resident-minus-live overshoot (time-correlated,
  // unlike the pair above whose separate peaks both saturate under load):
  // partial slabs + unswept empties. See KvCachePool::peak_waste_bytes().
  size_t peak_waste_bytes = 0;
  // Admission headroom, the router's KV-pressure signals: blocks the pool
  // could still charge right now (max_blocks - charged, saturating at 0 —
  // SIZE_MAX when unbounded) and the bytes currently charged against the
  // admission gate (charged blocks x block size; excludes the evictable
  // radix tier, which reclaims on demand).
  size_t free_blocks = 0;
  size_t charged_bytes = 0;
  int active_sequences = 0;
  // Preempt-and-requeue activity.
  size_t preemptions = 0;
  size_t resumes = 0;
  size_t evictions = 0;
};

// Ownership: owns the whole sync engine — the model bundle is pinned by
// shared_ptr (make_bundle() builds one; the multi-model server shares its
// registry's); cost table, KV pool
// and scheduler construct and destruct together, so their borrow
// relationships (scheduler -> pool, scheduler -> costs) are safe by
// construction. Callbacks registered at submit() are owned until their
// sequence retires.
// Thread-safety: single-threaded by design. submit()/step()/
// run_to_completion()/take_completed() must all come from one thread
// (the async shell's worker, in the async stack). validate() reads
// only immutable configuration and pool geometry and may be called from
// any thread. Token callbacks run synchronously inside step().
// Invariants: one step() == one scheduler iteration — admit (resuming
// preempted sequences first), plan the token quantum (grow-or-preempt),
// run its encode jobs, one fused decode step over the scheduled rows,
// stream, retire; a retired sequence's blocks are back in the pool before
// the next admit round; every submitted request produces exactly one
// GenerationResponse. Preemption is invisible to clients: a resumed
// sequence re-derives its parked tokens (asserted bit-identical) without
// re-streaming them, so the token stream has no gaps and no duplicates.
class GenerationServer {
 public:
  using StepObserver = std::function<void(const StepStats&)>;

  // Serve a bundle (make_bundle / make_decoder_only_bundle). The engine pins it for its own lifetime —
  // the multi-model server's hot-unregistration path relies on exactly
  // this pin. When options carry no cost table, the bundle's (if any) is
  // copied in, so per-model profiled tables follow the bundle.
  explicit GenerationServer(std::shared_ptr<ModelBundle> bundle,
                            GenServerOptions options = {});

  // Throws CheckError if the request is malformed (empty source,
  // max_new_tokens < 1, out-of-vocab tokens) or could never fit the KV
  // pool. Thread-safe: reads only immutable pool geometry.
  void validate(const serving::GenerationRequest& request) const;

  // Queue a request. `on_token` (optional) streams each generated token.
  void submit(serving::GenerationRequest request,
              serving::TokenCallback on_token = nullptr);

  // One scheduler iteration + one fused decode step. Returns the number of
  // sequences stepped (0 = nothing ran: idle, or starved of KV capacity).
  // Only calls that run rows count as iterations (iterations(), StepStats,
  // "steps"), but every call publishes its admissions and preemptions. An
  // idle engine returns at once: no clock read, no span.
  int step();

  // Step until idle, then hand over everything completed so far.
  std::vector<serving::GenerationResponse> run_to_completion();
  // Completed responses accumulated since the last take (completion order).
  std::vector<serving::GenerationResponse> take_completed();

  bool idle() const { return scheduler_.idle(); }
  const KvCachePool& pool() const { return pool_; }
  const GenerationScheduler& scheduler() const { return scheduler_; }
  const std::shared_ptr<ModelBundle>& bundle() const { return bundle_; }
  // Current pool pressure + preemption totals (the multi-model breakdown's
  // per-replica entry). Worker-thread only (reads mutable pool state).
  PoolSnapshot pool_snapshot() const;
  // Cross-pool budget reclaim entry point (multi-model serving): preempt
  // this engine's lowest-ranked sequences until `bytes` of slab footprint
  // freed (see GenerationScheduler::shed). Worker-thread only.
  size_t shed_kv(size_t bytes);
  const serving::CostTable& cost_table() const { return costs_; }
  // The live admission dictionary (tests feed synthetic observe()
  // measurements through this; the step loop feeds real ones).
  serving::CostTable& mutable_cost_table() { return costs_; }
  int64_t iterations() const { return iteration_; }

  // The registry this engine publishes into (never null) and the name
  // prefix of its metrics ("gen.<name:vN>."). Registry reads are safe from
  // any thread.
  const std::shared_ptr<obs::Registry>& metrics() const { return metrics_; }
  const std::string& metric_prefix() const { return metric_prefix_; }
  // Lifetime totals, read back from the registry (the single home for
  // these counts — the multi-model stats view reads the same numbers).
  // Safe from any thread.
  size_t completed_total() const {
    return metrics_->counter_value(metric_prefix_ + "requests_completed");
  }
  // The trace ring (null when tracing is off) and a consistent snapshot of
  // its spans. Snapshot is safe concurrently with the step loop.
  const std::shared_ptr<obs::TraceRing>& trace_ring() const {
    return tracer_.ring();
  }
  std::vector<obs::TraceSpan> trace_spans() const {
    return tracer_.ring() ? tracer_.ring()->snapshot()
                          : std::vector<obs::TraceSpan>{};
  }

  void set_step_observer(StepObserver observer) {
    observer_ = std::move(observer);
  }

 private:
  double now_s() const;
  // Resolves the cached metric handles out of metrics_ (constructor tail).
  void bind_metrics();
  // Scheduler and pool lifetime totals mirrored into registry counters.
  // publish_counters() adds what changed since the last publish, so the
  // counters catch every step() call, idle ones included, and every shed.
  struct CounterMarks {
    size_t admitted = 0, preempted = 0, resumed = 0, evicted = 0;
    size_t radix_hits = 0, radix_hit_rows = 0, radix_evictions = 0;
  };
  CounterMarks counter_marks() const;
  void publish_counters();

  std::shared_ptr<ModelBundle> bundle_;  // pinned until the engine dies
  model::ModelConfig config_;            // copy of bundle_->config
  serving::CostTable costs_;
  KvCachePool pool_;
  GenerationScheduler scheduler_;
  bool causal_ = false;  // decoder-only bundle: causal-LM serving path
  std::unordered_map<int64_t, serving::TokenCallback> callbacks_;
  std::vector<serving::GenerationResponse> completed_;
  std::vector<float> logits_;  // step scratch [max_active, vocab]
  model::DecodeWorkspace workspace_;  // reused across decode steps
  StepObserver observer_;
  bool observe_costs_ = true;
  double observe_alpha_ = 0.25;
  int64_t iteration_ = 0;  // step() calls that ran rows
  int64_t calls_ = 0;      // non-idle step() calls: the trace span key
  CounterMarks published_;  // totals the registry counters last caught
  std::chrono::steady_clock::time_point epoch_;

  // Observability. The tracer is disabled unless options.trace asked for a
  // ring; the registry always exists (a disabled registry would make every
  // publish site conditional for no win — relaxed counter adds are cheaper
  // than the branch is worth).
  obs::Tracer tracer_;
  std::shared_ptr<obs::Registry> metrics_;
  std::string metric_prefix_;  // "gen.<name:vN>."
  // Arrival ticks by request id while tracing (drained into the per-seq
  // admit span at first admission).
  std::unordered_map<int64_t, uint64_t> arrivals_;
  // Cached handles into metrics_ (hot path publishes without name lookups).
  obs::Counter* m_steps_ = nullptr;
  obs::Counter* m_submitted_ = nullptr;
  obs::Counter* m_completed_ = nullptr;
  obs::Counter* m_tokens_ = nullptr;
  obs::Counter* m_admitted_ = nullptr;
  obs::Counter* m_preempted_ = nullptr;
  obs::Counter* m_resumed_ = nullptr;
  obs::Counter* m_evicted_ = nullptr;
  obs::Counter* m_replayed_ = nullptr;
  obs::Counter* m_prefilled_ = nullptr;
  obs::Counter* m_prefill_chunks_ = nullptr;
  obs::Counter* m_radix_hits_ = nullptr;
  obs::Counter* m_radix_hit_rows_ = nullptr;
  obs::Counter* m_radix_evictions_ = nullptr;
  obs::Gauge* g_radix_cached_blocks_ = nullptr;
  obs::Gauge* g_radix_evictable_blocks_ = nullptr;
  obs::Gauge* g_active_ = nullptr;
  obs::Gauge* g_kv_bytes_ = nullptr;
  obs::Gauge* g_device_bytes_ = nullptr;
  // KV-pressure pair the replica router reads ("kv_free_blocks",
  // "kv_charged_bytes"): admission headroom in blocks and bytes charged
  // against the admission gate.
  obs::Gauge* g_kv_free_blocks_ = nullptr;
  obs::Gauge* g_kv_charged_bytes_ = nullptr;
  obs::Histogram* h_step_ms_ = nullptr;
  obs::Histogram* h_batch_ = nullptr;
  obs::Histogram* h_latency_ms_ = nullptr;
};

}  // namespace turbo::genserve
