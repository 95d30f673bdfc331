// Multi-model generation serving: one front end, several decoder
// configurations, one KV memory budget.
//
// The paper (§2.2) counts model version management among the serving
// framework's core duties; DeepSpeed-Inference and Orca show that the win
// when co-hosting models is shared-resource arbitration, not N isolated
// servers each reserving worst-case memory. This layer provides both:
//
//  * MultiModelGenerationServer owns one router::ReplicaSet (N live
//    GenerationServer engines over one bundle — KV pool + scheduler +
//    the bundle's encoder/decoder each) per registered ModelBundle, with
//    a router::Router placing requests within each set on live signals
//    (KV pressure, queue depth, observed step cost; SLO classes from
//    GenerationRequest::priority). One replica (register_bundle's
//    default) degenerates to exactly the old one-engine-per-bundle server.
//    Requests route by (GenerationRequest::model, model_version): empty
//    model = the default route, version <= 0 = the latest live version,
//    positive = pinned; the replica within the set is the Router's call.
//  * Every engine's pool charges its slab mallocs against a single shared
//    memory::SlabBudget. An idle model's unused headroom is borrowable —
//    a busy pool simply allocates it — and reclaimed through the existing
//    preempt-and-requeue path when the owner needs it back: when a model
//    under its guarantee cannot admit, the server sheds slabs from
//    over-guarantee borrowers (their victims park, resume, and replay
//    bit-identically later).
//  * step() interleaves one fused decode step per model per iteration on
//    the calling thread, in round-robin rotation with admission-blocked
//    models first (router::starved_first_order) — iteration-level
//    batching across models, not just within one.
//  * Registration is hot: bundles can be added or removed while serving.
//    Removal takes the route out immediately; the engine keeps the bundle
//    pinned via shared_ptr and drains its in-flight sequences, then both
//    are torn down.
//
// AsyncMultiModelGenerationServer is the one concurrent shell over the
// generation engines (a single-model deployment registers one bundle):
// futures + streaming callbacks, plus thread-safe hot registration
// (control operations are applied by the worker between iterations, so
// the single-threaded engine contract holds).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "genserve/generation_server.h"
#include "genserve/model_bundle.h"
#include "memory/slab_budget.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "router/replica_set.h"
#include "router/router.h"
#include "serving/request.h"

namespace turbo::genserve {

struct MultiModelOptions {
  // Shared slab budget across every model's KV pool, in bytes; 0 =
  // unbounded (usage still attributed per model). Capacity under a bounded
  // budget can shrink between admission and growth; the engines'
  // preempt-and-requeue path absorbs it.
  size_t total_kv_bytes = 0;
  // Per-engine defaults (pool geometry, scheduler, cost observation).
  // register_bundle() may override per model; the pool's budget fields are
  // always overwritten by the server, and so are the observability
  // attachments — every engine publishes into the server's one registry,
  // and engine.trace.enabled stands up ONE shared ring all engines record
  // into (a global timeline; cross-model reclaims land on it too).
  GenServerOptions engine;
  // Placement policy within each replica set (SLO-aware by default).
  turbo::router::RouterOptions router;
};

// Per-replica serving breakdown, assembled by stats(): one entry per
// (model, replica) in registration x replica order, so single-replica
// servers keep one entry per model at the same index as before.
struct ModelServingStats {
  std::string name;
  int version = 1;
  int replica = 0;          // replica index within the model's set
  std::string label;        // engine identity ("name:vN", "name:vN#r")
  bool draining = false;    // unregistered, finishing in-flight sequences
  size_t pending = 0;       // queued + requeued (preempted awaiting resume)
  size_t active = 0;        // sequences in the step batch
  size_t served = 0;        // responses completed through this engine (a
                            // snapshot view over the shared obs::Registry)
  StepStats last_step;      // engine's most recent iteration snapshot
  PoolSnapshot pool;        // pool pressure + preemption activity
  size_t budget_guarantee_bytes = 0;
  size_t budget_used_bytes = 0;  // slab footprint charged to the budget
};

// Ownership: owns the BundleRegistry, the SlabBudget and every engine;
// engines pin their bundles, so a registry entry may die while its engine
// drains. Thread-safety: single-threaded like GenerationServer — all
// mutating calls from one thread (the async shell's worker). validate()
// and registry() reads are safe from any thread (registry locks itself;
// engine validation reads immutable geometry), provided registration is
// not concurrently mutating the route table — the async shell serializes
// that through the worker.
// Invariants: every accepted submit() produces exactly one response from
// exactly one engine, chosen at submit time (a sequence never migrates
// models); the sum of pool slab footprints never exceeds the budget;
// request ids are unique across all in-flight sequences of all models;
// once idle(), draining engines have been destroyed and their bundles
// unpinned.
class MultiModelGenerationServer {
 public:
  using StepObserver =
      std::function<void(const std::string& name, int version,
                         const StepStats&)>;

  explicit MultiModelGenerationServer(MultiModelOptions options = {});
  ~MultiModelGenerationServer();

  MultiModelGenerationServer(const MultiModelGenerationServer&) = delete;
  MultiModelGenerationServer& operator=(const MultiModelGenerationServer&) =
      delete;

  // Registers `bundle` and stands up its replica set (every replica's
  // pool registered with the shared budget, the model's `guarantee_bytes`
  // reclaim floor split across replicas; pass the model's worst-case
  // single request at minimum if it must never starve). The first
  // registered name becomes the default route. `overrides` replaces the
  // per-engine defaults for this model only; `replicas` (>= 1) is the
  // number of live engines sharding the model, with `router` deciding
  // per-request placement. Throws on duplicate (name, version) —
  // including one still draining.
  void register_bundle(std::shared_ptr<ModelBundle> bundle,
                       size_t guarantee_bytes = 0,
                       std::optional<GenServerOptions> overrides = {},
                       int replicas = 1);
  // Hot removal: the route disappears immediately (new submits cannot
  // resolve to it); in-flight sequences keep the engine + bundle alive
  // until they retire. Returns false if (name, version) is not registered.
  bool unregister_bundle(const std::string& name, int version);

  // Default route for requests with an empty model field. Must name a
  // registered model.
  void set_default_model(const std::string& name);
  const std::string& default_model() const { return default_model_; }

  // Resolves the request's route and runs the target engine's validation.
  // Throws CheckError when the route does not exist or the request is
  // malformed for that model.
  void validate(const serving::GenerationRequest& request) const;

  // Queue a request on its routed model's replica set; the set's Router
  // picks the replica (kRoute span + router.* counters record the
  // decision). The route is fixed here: a later registration of a newer
  // version does not migrate it, and a sequence never migrates replicas.
  void submit(serving::GenerationRequest request,
              serving::TokenCallback on_token = nullptr);

  // One interleaved iteration: each live engine takes one scheduler
  // iteration + fused decode step (step_order()), then cross-model budget
  // reclaim runs for admission-blocked under-guarantee models, then idle
  // draining engines are torn down. Returns sequences stepped across all
  // models (0 = server idle).
  int step();

  std::vector<serving::GenerationResponse> run_to_completion();
  std::vector<serving::GenerationResponse> take_completed();

  bool idle() const;
  int64_t iterations() const { return iteration_; }
  // Engines currently alive, including draining ones.
  size_t live_engines() const { return engines_.size(); }
  // True while an engine (serving or draining) exists for (name, version).
  bool serving(const std::string& name, int version) const;
  // Cross-model reclaims performed (shed calls that freed bytes).
  size_t total_reclaims() const { return total_reclaims_; }

  const BundleRegistry& registry() const { return registry_; }
  const memory::SlabBudget& budget() const { return budget_; }
  std::vector<ModelServingStats> stats() const;
  // The live replica set serving (name, version); nullptr when absent.
  const turbo::router::ReplicaSet* replica_set(const std::string& name,
                                               int version) const;

  // The shared metrics registry (never null; safe from any thread). Every
  // engine publishes under "gen.<name:vN>."; server-level totals live
  // under "gen.server.". Counters survive engine teardown — draining a
  // model does not zero its history.
  const std::shared_ptr<obs::Registry>& metrics() const { return metrics_; }
  // Responses completed across all engines, living and drained.
  size_t served_total() const {
    return metrics_->counter_value("gen.server.requests_completed");
  }
  // The shared trace ring (null when options.engine.trace is off) and a
  // consistent snapshot of the global timeline.
  const std::shared_ptr<obs::TraceRing>& trace_ring() const {
    return trace_ring_;
  }
  std::vector<obs::TraceSpan> trace_spans() const {
    return trace_ring_ ? trace_ring_->snapshot()
                       : std::vector<obs::TraceSpan>{};
  }

  void set_step_observer(StepObserver observer) {
    observer_ = std::move(observer);
  }

 private:
  struct Engine {
    std::shared_ptr<ModelBundle> bundle;  // pin (registry may drop its ref)
    std::unique_ptr<turbo::router::ReplicaSet> set;
    std::unique_ptr<turbo::router::Router> router;
    size_t guarantee_bytes = 0;  // whole-model floor (split across replicas)
    bool draining = false;
  };

  Engine* find_engine(const std::string& name, int version);
  const Engine* find_engine(const std::string& name, int version) const;
  // Routing: empty name -> default model; version <= 0 -> latest
  // non-draining engine of the name; positive -> exact. nullptr when the
  // route cannot be resolved.
  const Engine* route(const serving::GenerationRequest& request) const;
  Engine* route(const serving::GenerationRequest& request);
  // Iteration order of engine indices: router::starved_first_order over
  // the models, rotated by rr_cursor_.
  std::vector<size_t> step_order() const;
  // Cross-model budget reclaim, now per (model, replica) unit (see class
  // comment). Returns bytes freed.
  size_t reclaim_for_starved_models();
  void collect_completed(Engine& engine);

  MultiModelOptions options_;
  memory::SlabBudget budget_;  // declared before engines_: pools borrow it
  std::shared_ptr<obs::Registry> metrics_;    // shared by every engine
  std::shared_ptr<obs::TraceRing> trace_ring_;  // null = tracing off
  obs::Counter* m_completed_total_ = nullptr;   // gen.server.requests_completed
  obs::Counter* m_iterations_ = nullptr;        // gen.server.iterations
  obs::Counter* m_reclaims_ = nullptr;          // gen.server.reclaims
  obs::Counter* m_reclaimed_bytes_ = nullptr;   // gen.server.reclaimed_bytes
  BundleRegistry registry_;
  std::vector<std::unique_ptr<Engine>> engines_;  // registration order
  std::string default_model_;
  std::unordered_set<int64_t> ids_in_flight_;  // across all models
  std::vector<serving::GenerationResponse> completed_;
  StepObserver observer_;
  size_t rr_cursor_ = 0;  // round-robin rotation
  int64_t iteration_ = 0;
  size_t total_reclaims_ = 0;
};

// Concurrent shell over MultiModelGenerationServer, mirroring
// serving::AsyncServer: submit() returns a future per request, a worker
// thread runs the interleaved step loop, token callbacks stream from the
// worker (they must not call back into this server).
//
// Hot registration from any thread: register_bundle()/unregister_bundle()
// enqueue control operations the worker applies between iterations (the
// returned future resolves once applied), so the single-threaded engine
// contract holds without a stop-the-world. Control operations and
// submissions drain through ONE queue in enqueue order: a client that
// submits and then unregisters (or registers a new version) observes
// those effects in exactly that order — "latest version" is latest as of
// the submit, as request.h documents.
//
// Ownership: owns the sync server and the worker thread; shutdown()
// (idempotent, also run by the destructor) drains everything pending and
// joins the worker. Thread-safety: every public method is safe from any
// thread. Invariants: every accepted submit() resolves its future exactly
// once — with a response, or with the routing/validation error (bad routes
// surface through the future, not the submit call: the authoritative route
// table lives on the worker), or with the engine's exception if the engine
// fails. Duplicate in-flight ids and submits after shutdown throw.
class AsyncMultiModelGenerationServer {
 public:
  explicit AsyncMultiModelGenerationServer(MultiModelOptions options = {});
  ~AsyncMultiModelGenerationServer();

  AsyncMultiModelGenerationServer(const AsyncMultiModelGenerationServer&) =
      delete;
  AsyncMultiModelGenerationServer& operator=(
      const AsyncMultiModelGenerationServer&) = delete;

  // The future resolves once the worker has applied the registration (or
  // faulted trying — duplicate version, oversubscribed guarantee).
  std::future<void> register_bundle(
      std::shared_ptr<ModelBundle> bundle, size_t guarantee_bytes = 0,
      std::optional<GenServerOptions> overrides = {}, int replicas = 1);
  // Resolves to unregister_bundle()'s result once applied.
  std::future<bool> unregister_bundle(std::string name, int version);

  // Enqueue one generation request; the future resolves when its sequence
  // finishes. `on_token` streams tokens from the worker thread. Routing
  // and validation run on the worker: a request that cannot route (or is
  // malformed for its model) rejects the future instead of throwing here.
  std::future<serving::GenerationResponse> submit(
      serving::GenerationRequest request,
      serving::TokenCallback on_token = nullptr);

  // Serve everything pending to completion, then stop the worker.
  void shutdown();

  // Lifetime totals, read straight from the shared metrics registry (no
  // cached copies; they survive engine drains and this shell's teardown
  // when the registry is read afterwards).
  size_t served() const;
  int64_t iterations() const;
  // Per-model breakdowns + budget snapshot, refreshed after every worker
  // iteration.
  std::vector<ModelServingStats> model_stats() const;
  memory::SlabBudgetSnapshot budget_snapshot() const;
  // Shared registry / global trace timeline; safe from any thread.
  const std::shared_ptr<obs::Registry>& metrics() const {
    return server_->metrics();
  }
  std::vector<obs::TraceSpan> trace_spans() const {
    return server_->trace_spans();
  }

 private:
  struct Submission {
    serving::GenerationRequest request;
    serving::TokenCallback on_token;
    std::promise<serving::GenerationResponse> promise;
  };
  // Exactly one member is set: a control operation (register/unregister,
  // resolves its own promise) or a submission. One queue keeps the
  // client-observed order.
  struct Event {
    std::function<void()> control;
    std::optional<Submission> submission;
  };

  void worker_loop();

  std::unique_ptr<MultiModelGenerationServer> server_;
  std::mutex join_mutex_;  // serializes shutdown/join
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Event> incoming_;  // control + submissions, enqueue order
  std::unordered_set<int64_t> ids_in_flight_;  // duplicate-id guard
  // Promises by request id; touched only by the worker after handoff.
  std::unordered_map<int64_t, std::promise<serving::GenerationResponse>>
      in_flight_;
  bool shutdown_ = false;
  std::vector<ModelServingStats> model_stats_;
  memory::SlabBudgetSnapshot budget_snapshot_;
  std::thread worker_;
};

}  // namespace turbo::genserve
