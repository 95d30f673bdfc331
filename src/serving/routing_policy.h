// Request-dispatch vocabulary shared by the offline cluster simulator
// (serving::simulate_cluster) and the live replica router (router::Router).
//
// The paper's §5 calls for "an upper-level load balancer as the one in
// Nexus" once a single engine saturates. The repo grew that idea twice —
// first as a discrete-event simulation (load_balancer.h), then as a live
// front end over engine replicas (src/router/) — and both must speak the
// same policy vocabulary or benchmark results stop being comparable with
// simulated predictions. This header is the single home for:
//
//  * DispatchPolicy — which replica/server a request is placed on.
//  * SloClass / SloPolicy — the latency-SLO class a request belongs to,
//    derived from GenerationRequest::priority (the same field preemption
//    victim choice already keys on, so "tight SLO" requests are both
//    routed first and preempted last).
//  * BacklogModel — the Nexus-style least-loaded heuristic: per-target
//    outstanding predicted work, modelled as a virtual backlog that drains
//    in (real or virtual) time. The simulator feeds it arrival seconds and
//    cost-table predictions; the live router feeds it engine iterations
//    and observed per-step costs. Same arithmetic, one implementation.
#pragma once

#include <cstddef>
#include <vector>

namespace turbo::serving {

// How a dispatcher places one request among N targets.
//  kRoundRobin  — arrival i -> target i mod N. The control baseline.
//  kLeastLoaded — the target whose predicted backlog clears earliest at
//                 the request's arrival instant (BacklogModel::pick).
//  kSloAware    — class-dependent (live router only; the offline
//                 simulator's Request carries no priority, so
//                 simulate_cluster treats it as kLeastLoaded): tight-SLO
//                 requests take the least-loaded replica with a
//                 routing-denial fallback past KV-exhausted replicas,
//                 batch-class requests backfill the replica with the most
//                 free KV, standard requests go least-loaded.
enum class DispatchPolicy { kRoundRobin, kLeastLoaded, kSloAware };

// Latency-SLO class of one request. Ordering is meaningful: lower enum
// value = tighter deadline.
enum class SloClass { kTight = 0, kStandard = 1, kBatch = 2 };

// priority -> SloClass mapping. GenerationRequest::priority is already the
// preemption weight (higher survives longer); the router reuses it as the
// SLO signal so one field expresses both "don't preempt me" and "route me
// onto the least-loaded replica".
struct SloPolicy {
  int tight_min_priority = 2;   // priority >= this  -> kTight
  int batch_max_priority = -1;  // priority <= this  -> kBatch
};

inline SloClass slo_class_of(int priority, const SloPolicy& policy = {}) {
  if (priority >= policy.tight_min_priority) return SloClass::kTight;
  if (priority <= policy.batch_max_priority) return SloClass::kBatch;
  return SloClass::kStandard;
}

// Nexus-style least-loaded backlog heuristic. Each target carries the
// instant its outstanding predicted work clears; placing a request charges
// its predicted execution span onto the chosen target. Time is whatever
// monotonic unit the caller uses consistently — the simulator passes
// arrival seconds and cost-table milliseconds/1e3, the live router passes
// engine iterations and predicted step counts.
//
// Ownership/thread-safety: a plain value type owned by one dispatcher;
// not thread-safe (dispatch decisions are serialized by design in both
// consumers).
// Invariants: ready_at(t, now) never runs backwards (a drained target
// reports `now`); charge() only moves a target's clear-instant forward.
class BacklogModel {
 public:
  explicit BacklogModel(size_t targets) : backlog_until_(targets, 0.0) {}

  size_t targets() const { return backlog_until_.size(); }

  // Instant target `i`'s backlog clears for a request arriving at `now`:
  // max(backlog, now) — an idle target is ready immediately, a busy one
  // when its outstanding work drains.
  double ready_at(size_t i, double now) const;

  // Target whose backlog clears earliest at `now` (lowest index on ties —
  // deterministic, matches the simulator's historical behaviour).
  size_t pick(double now) const;

  // Charge `exec` units of predicted work to target `i` for a request
  // arriving at `now`.
  void charge(size_t i, double now, double exec);

  // Outstanding predicted work on target `i` at `now` (0 when drained).
  double outstanding(size_t i, double now) const;

 private:
  std::vector<double> backlog_until_;  // instant each target's work clears
};

}  // namespace turbo::serving
