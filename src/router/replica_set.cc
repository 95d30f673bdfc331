#include "router/replica_set.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "common/check.h"

namespace turbo::router {

namespace {

size_t free_blocks_of(const genserve::KvCachePool& pool) {
  const size_t cap = pool.max_blocks();
  if (cap == std::numeric_limits<size_t>::max()) return cap;
  const size_t charged = pool.charged_blocks();
  return cap > charged ? cap - charged : 0;
}

}  // namespace

std::vector<size_t> starved_first_order(
    size_t units, size_t cursor, const std::function<bool(size_t)>& blocked,
    const std::function<bool(size_t)>& starved) {
  std::vector<size_t> order(units);
  std::iota(order.begin(), order.end(), size_t{0});
  if (units < 2) return order;
  std::rotate(order.begin(), order.begin() + (cursor % units), order.end());
  // Blocked units step first so budget freed this iteration is not
  // re-borrowed before they admit — that ordering race starves the owner
  // forever. Among them the under-guarantee ones lead: a reclaim ran on
  // their behalf, and a blocked at-floor borrower stepping first would
  // take the freed bytes right back (the same starvation, one hop later).
  std::stable_partition(order.begin(), order.end(), blocked);
  std::stable_partition(order.begin(), order.end(), starved);
  return order;
}

ReplicaSet::ReplicaSet(std::shared_ptr<genserve::ModelBundle> bundle,
                       genserve::GenServerOptions engine_options,
                       size_t guarantee_bytes, int replicas)
    : bundle_(std::move(bundle)) {
  TT_CHECK(bundle_ != nullptr);
  TT_CHECK_GE(replicas, 1);
  const size_t n = static_cast<size_t>(replicas);

  // One registry and (when tracing) one ring across the whole set: the
  // replicas are one serving identity, and the Router reads replica 0's
  // attachments as the set's. Callers that pass their own keep them.
  if (engine_options.metrics == nullptr) {
    engine_options.metrics = std::make_shared<obs::Registry>();
  }
  if (engine_options.trace.enabled && engine_options.trace.ring == nullptr) {
    engine_options.trace.ring =
        std::make_shared<obs::TraceRing>(engine_options.trace.capacity);
  }

  const std::string base_label = engine_options.instance_label.empty()
                                     ? bundle_->label()
                                     : engine_options.instance_label;
  const size_t per = guarantee_bytes / n;
  const size_t rem = guarantee_bytes % n;

  replicas_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Replica r;
    r.label = i == 0 ? base_label : base_label + "#" + std::to_string(i);
    r.guarantee_bytes = per + (i == 0 ? rem : 0);

    genserve::GenServerOptions opts = engine_options;
    opts.instance_label = r.label;
    if (opts.pool.slab_budget != nullptr) {
      opts.pool.budget_client_name = r.label;
      opts.pool.budget_guarantee_bytes = r.guarantee_bytes;
    }
    r.server = std::make_unique<genserve::GenerationServer>(bundle_, opts);

    // Create-or-get the engine's own latency/batch histograms: the
    // router's observed-cost signal reads the same series the engine
    // publishes.
    const std::string& p = r.server->metric_prefix();
    r.step_ms = &r.server->metrics()->histogram(p + "step_ms");
    r.batch_rows = &r.server->metrics()->histogram(p + "batch_size");
    replicas_.push_back(std::move(r));
  }
  for (size_t i = 0; i < n; ++i) {
    replicas_[i].server->set_step_observer(
        [this, i](const genserve::StepStats& stats) {
          replicas_[i].last_step = stats;
          if (observer_) observer_(i, stats);
        });
  }
}

genserve::GenerationServer& ReplicaSet::replica(size_t i) {
  TT_CHECK_LT(i, replicas_.size());
  return *replicas_[i].server;
}

const genserve::GenerationServer& ReplicaSet::replica(size_t i) const {
  TT_CHECK_LT(i, replicas_.size());
  return *replicas_[i].server;
}

const std::string& ReplicaSet::replica_label(size_t i) const {
  TT_CHECK_LT(i, replicas_.size());
  return replicas_[i].label;
}

size_t ReplicaSet::replica_guarantee_bytes(size_t i) const {
  TT_CHECK_LT(i, replicas_.size());
  return replicas_[i].guarantee_bytes;
}

int ReplicaSet::step() {
  // Single replica: no ordering to compute — keep the legacy server's
  // per-step cost (this path sits inside the multi-model hot loop).
  if (replicas_.size() == 1) return replicas_[0].server->step();
  const std::vector<size_t> order = starved_first_order(
      replicas_.size(), rr_cursor_,
      [this](size_t i) {
        return replicas_[i].server->scheduler().admission_blocked();
      },
      [this](size_t i) { return starved_under_guarantee(replicas_[i]); });
  ++rr_cursor_;
  int total = 0;
  for (size_t i : order) total += replicas_[i].server->step();
  return total;
}

bool ReplicaSet::idle() const {
  for (const Replica& r : replicas_) {
    if (!r.server->idle()) return false;
  }
  return true;
}

bool ReplicaSet::any_admission_blocked() const {
  for (const Replica& r : replicas_) {
    if (r.server->scheduler().admission_blocked()) return true;
  }
  return false;
}

bool ReplicaSet::starved_under_guarantee(const Replica& r) {
  return r.server->scheduler().admission_blocked() &&
         r.server->pool().stats().current_device_bytes < r.guarantee_bytes;
}

bool ReplicaSet::any_starved_under_guarantee() const {
  for (const Replica& r : replicas_) {
    if (starved_under_guarantee(r)) return true;
  }
  return false;
}

ReplicaSignals ReplicaSet::signals(size_t i) const {
  TT_CHECK_LT(i, replicas_.size());
  const Replica& r = replicas_[i];
  const auto& sched = r.server->scheduler();
  const auto& pool = r.server->pool();

  ReplicaSignals s;
  s.queue_depth = sched.pending() + sched.requeued();
  s.active = sched.active();
  s.kv_free_blocks = free_blocks_of(pool);
  s.kv_charged_bytes = pool.charged_blocks() * pool.block_bytes();
  s.admission_blocked = sched.admission_blocked();
  if (r.step_ms->count() > 0) {
    s.step_cost_ms = r.step_ms->mean();
    const double rows =
        r.batch_rows->count() > 0 ? std::max(1.0, r.batch_rows->mean()) : 1.0;
    s.row_cost_ms = s.step_cost_ms / rows;
  }
  return s;
}

const genserve::StepStats& ReplicaSet::last_step(size_t i) const {
  TT_CHECK_LT(i, replicas_.size());
  return replicas_[i].last_step;
}

size_t ReplicaSet::demand_blocks(
    const serving::GenerationRequest& request) const {
  const auto& pool = replicas_[0].server->pool();
  const int src = static_cast<int>(request.src_tokens.size());
  if (bundle_->decoder_only()) {
    return pool.blocks_for_causal(src, request.max_new_tokens);
  }
  return pool.blocks_for(src, request.max_new_tokens);
}

std::vector<serving::GenerationResponse> ReplicaSet::take_completed() {
  std::vector<serving::GenerationResponse> out;
  for (Replica& r : replicas_) {
    auto done = r.server->take_completed();
    out.insert(out.end(), std::make_move_iterator(done.begin()),
               std::make_move_iterator(done.end()));
  }
  return out;
}

void ReplicaSet::set_step_observer(StepObserver observer) {
  observer_ = std::move(observer);
}

}  // namespace turbo::router
