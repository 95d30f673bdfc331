// N live generation-engine replicas of one ModelBundle behind one front
// door — the unit the sharded serving layer (src/router/) scales out.
//
// One GenerationServer saturates one worker; the paper's §5 and the
// ROADMAP's "millions of users" north star both call for more engines per
// model behind an upper-level balancer. A ReplicaSet stands up `replicas`
// engines over the SAME bundle (weights shared via shared_ptr, so fan-out
// costs KV memory, not model memory): each replica gets its own
// KvCachePool — all charged against whatever shared memory::SlabBudget the
// caller wired into the base engine options, with the set's byte guarantee
// split evenly across replicas — its own scheduler, and its own identity
// in the shared metrics registry / trace ring ("name:vN" for replica 0,
// "name:vN#r" for r >= 1, so single-replica sets keep today's metric
// names bit-for-bit).
//
// Placement is not this class's job: the Router (router/router.h) decides
// which replica a request lands on; ReplicaSet only exposes the live
// signals the decision needs (queue depth, KV pressure, observed per-step
// cost) and steps every replica each iteration.
//
// Stepping: step() runs one fused step per replica on the calling thread
// in starved_first_order — admission-blocked replicas first (freshly
// reclaimed budget must not be re-borrowed by a sibling earlier in the
// rotation), then rotation order. Replica count 1 reduces to exactly one GenerationServer::step()
// call: bit-identical to the pre-replica server.
//
// Ownership: owns every replica engine and pins the bundle. Thread-safety:
// like GenerationServer, all calls from one thread; step observers fire
// on it. Invariants: a submitted request is served entirely by the
// replica it was placed on (sequences never migrate replicas); every
// replica steps at most once per step() call; signals(i) reflects the
// state after the last completed step().
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "genserve/generation_server.h"
#include "genserve/model_bundle.h"
#include "serving/request.h"

namespace turbo::router {

// The order in which `units` serving units (replicas of one set, or the
// models of a multi-model server) step in one iteration: rotated by
// `cursor`, then the `blocked` ones (admission-starved) first, and among
// those the `starved` ones (blocked while under their guarantee) leading.
// Budget that a sibling's retires or a reclaim freed this iteration must
// reach its owner before an earlier unit in the rotation re-borrows it.
// `starved` must imply `blocked`. Both partitions are stable.
std::vector<size_t> starved_first_order(
    size_t units, size_t cursor, const std::function<bool(size_t)>& blocked,
    const std::function<bool(size_t)>& starved);

// Live placement signals for one replica, assembled by ReplicaSet::signals.
struct ReplicaSignals {
  size_t queue_depth = 0;      // queued + requeued (awaiting (re)admission)
  size_t active = 0;           // sequences in the fused step batch
  size_t kv_free_blocks = 0;   // admission headroom (SIZE_MAX = unbounded)
  size_t kv_charged_bytes = 0; // bytes charged against the admission gate
  bool admission_blocked = false;  // head-of-queue admission is starved
  double step_cost_ms = 0.0;   // observed mean fused-step latency (0 = no
                               // observation yet)
  double row_cost_ms = 0.0;    // step_cost_ms per observed batch row
};

class ReplicaSet {
 public:
  // `replica`: which replica produced the stats.
  using StepObserver =
      std::function<void(size_t replica, const genserve::StepStats&)>;

  // `engine_options` is the per-replica template: the caller has already
  // wired budget/metrics/trace attachments into it (as
  // MultiModelGenerationServer::register_bundle does); the set overrides
  // per-replica identity (instance_label, budget_client_name) and splits
  // `guarantee_bytes` evenly (remainder to replica 0). `replicas` >= 1.
  ReplicaSet(std::shared_ptr<genserve::ModelBundle> bundle,
             genserve::GenServerOptions engine_options,
             size_t guarantee_bytes, int replicas = 1);

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  size_t size() const { return replicas_.size(); }
  const std::shared_ptr<genserve::ModelBundle>& bundle() const {
    return bundle_;
  }
  genserve::GenerationServer& replica(size_t i);
  const genserve::GenerationServer& replica(size_t i) const;
  // "name:vN" for replica 0, "name:vN#i" beyond — the engine's metric /
  // trace / budget-client identity.
  const std::string& replica_label(size_t i) const;
  size_t replica_guarantee_bytes(size_t i) const;

  // One fused step per replica (see file comment for the order).
  // Returns total sequences stepped across replicas.
  int step();

  bool idle() const;
  // Aggregates over replicas (the cross-model step order consumes these).
  bool any_admission_blocked() const;
  // A replica is admission-blocked while holding less than its guarantee:
  // cross-pool reclaim runs on its behalf, and the freed bytes must reach
  // it before at-floor borrowers re-admit (the step-order signal).
  bool any_starved_under_guarantee() const;

  ReplicaSignals signals(size_t i) const;
  const genserve::StepStats& last_step(size_t i) const;

  // Worst-case KV-block demand of `request` on this set's pool geometry
  // (identical across replicas) — the router's admission-denial signal.
  size_t demand_blocks(const serving::GenerationRequest& request) const;

  // Completed responses from every replica since the last take, replica
  // order then completion order.
  std::vector<serving::GenerationResponse> take_completed();

  void set_step_observer(StepObserver observer);

 private:
  struct Replica {
    std::unique_ptr<genserve::GenerationServer> server;
    std::string label;
    size_t guarantee_bytes = 0;
    genserve::StepStats last_step;
    // Cached handles into the shared registry for the observed-cost
    // signal (created by the engine itself; same defaults).
    obs::Histogram* step_ms = nullptr;
    obs::Histogram* batch_rows = nullptr;
  };

  // Admission-blocked while holding less than its guarantee.
  static bool starved_under_guarantee(const Replica& r);


  std::shared_ptr<genserve::ModelBundle> bundle_;
  std::vector<Replica> replicas_;
  StepObserver observer_;
  size_t rr_cursor_ = 0;
};

}  // namespace turbo::router
