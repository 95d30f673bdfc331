#include "genserve/multi_model_server.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace turbo::genserve {

// ---------------------------------------------------------------------------
// MultiModelGenerationServer
// ---------------------------------------------------------------------------

MultiModelGenerationServer::MultiModelGenerationServer(
    MultiModelOptions options)
    : options_(std::move(options)), budget_(options_.total_kv_bytes) {
  metrics_ = options_.engine.metrics ? options_.engine.metrics
                                     : std::make_shared<obs::Registry>();
  if (options_.engine.trace.ring != nullptr) {
    trace_ring_ = options_.engine.trace.ring;
  } else if (options_.engine.trace.enabled) {
    trace_ring_ = std::make_shared<obs::TraceRing>(
        options_.engine.trace.capacity);
  }
  m_completed_total_ = &metrics_->counter("gen.server.requests_completed");
  m_iterations_ = &metrics_->counter("gen.server.iterations");
  m_reclaims_ = &metrics_->counter("gen.server.reclaims");
  m_reclaimed_bytes_ = &metrics_->counter("gen.server.reclaimed_bytes");
}

MultiModelGenerationServer::~MultiModelGenerationServer() {
  // Engines (and their pools, which unregister from budget_) are destroyed
  // by member order before budget_ — nothing to do, but the order matters.
}

MultiModelGenerationServer::Engine* MultiModelGenerationServer::find_engine(
    const std::string& name, int version) {
  for (const auto& e : engines_) {
    if (e->bundle->name == name && e->bundle->version == version) {
      return e.get();
    }
  }
  return nullptr;
}

const MultiModelGenerationServer::Engine*
MultiModelGenerationServer::find_engine(const std::string& name,
                                        int version) const {
  return const_cast<MultiModelGenerationServer*>(this)->find_engine(name,
                                                                    version);
}

void MultiModelGenerationServer::register_bundle(
    std::shared_ptr<ModelBundle> bundle, size_t guarantee_bytes,
    std::optional<GenServerOptions> overrides, int replicas) {
  TT_CHECK(bundle != nullptr);
  TT_CHECK_MSG(find_engine(bundle->name, bundle->version) == nullptr,
               bundle->label() << " already registered (or still draining)");

  GenServerOptions eopts =
      overrides ? std::move(*overrides) : options_.engine;
  // The pool's budget attachment is the server's to manage, never the
  // caller's: every pool charges the one shared arbiter. Per-replica
  // client names and guarantee splits are the ReplicaSet's job.
  eopts.pool.slab_budget = &budget_;
  // Observability attachments are the server's to manage too: one shared
  // registry (counters outlive drained engines) and, when tracing, one
  // shared ring — a global timeline the offline passes can correlate
  // across models and replicas.
  eopts.metrics = metrics_;
  if (trace_ring_ != nullptr) {
    eopts.trace.ring = trace_ring_;
    eopts.trace.enabled = true;
  }

  auto engine = std::make_unique<Engine>();
  engine->bundle = bundle;
  engine->guarantee_bytes = guarantee_bytes;
  engine->set = std::make_unique<turbo::router::ReplicaSet>(
      bundle, std::move(eopts), guarantee_bytes, replicas);
  engine->router = std::make_unique<turbo::router::Router>(*engine->set,
                                                           options_.router);
  engine->set->set_step_observer(
      [this, eng = engine.get()](size_t, const StepStats& s) {
        if (observer_) {
          observer_(eng->bundle->name, eng->bundle->version, s);
        }
      });
  registry_.register_model(bundle->name, bundle->version, bundle);
  if (default_model_.empty()) default_model_ = bundle->name;
  engines_.push_back(std::move(engine));
}

bool MultiModelGenerationServer::unregister_bundle(const std::string& name,
                                                   int version) {
  Engine* engine = find_engine(name, version);
  if (engine == nullptr || engine->draining) return false;
  registry_.unregister_model(name, version);
  engine->draining = true;
  // Already idle: tear down now — nothing pins the bundle past this call.
  collect_completed(*engine);
  std::erase_if(engines_, [](const std::unique_ptr<Engine>& e) {
    return e->draining && e->set->idle();
  });
  return true;
}

void MultiModelGenerationServer::set_default_model(const std::string& name) {
  TT_CHECK_MSG(!registry_.versions(name).empty(),
               "default model '" << name << "' is not registered");
  default_model_ = name;
}

const MultiModelGenerationServer::Engine* MultiModelGenerationServer::route(
    const serving::GenerationRequest& request) const {
  const std::string& name =
      request.model.empty() ? default_model_ : request.model;
  if (name.empty()) return nullptr;
  const Engine* best = nullptr;
  for (const auto& e : engines_) {
    if (e->draining || e->bundle->name != name) continue;
    if (request.model_version > 0) {
      if (e->bundle->version == request.model_version) return e.get();
    } else if (best == nullptr ||
               e->bundle->version > best->bundle->version) {
      best = e.get();  // latest live version wins
    }
  }
  return request.model_version > 0 ? nullptr : best;
}

MultiModelGenerationServer::Engine* MultiModelGenerationServer::route(
    const serving::GenerationRequest& request) {
  return const_cast<Engine*>(
      static_cast<const MultiModelGenerationServer*>(this)->route(request));
}

void MultiModelGenerationServer::validate(
    const serving::GenerationRequest& request) const {
  const Engine* engine = route(request);
  TT_CHECK_MSG(engine != nullptr,
               "generation request " << request.id << " routes to unknown "
                                     << "model '" << request.model << "' v"
                                     << request.model_version);
  // Geometry and vocab are identical across a set's replicas: replica 0
  // validates for all.
  engine->set->replica(0).validate(request);
}

void MultiModelGenerationServer::submit(serving::GenerationRequest request,
                                        serving::TokenCallback on_token) {
  // Validate before placing: a rejected request must leave no trace in
  // the router (routed counters, backlog charge, round-robin cursor). The
  // routed replica's submit then cannot reject it.
  validate(request);
  Engine* engine = route(request);
  TT_CHECK_MSG(ids_in_flight_.insert(request.id).second,
               "duplicate in-flight generation request id " << request.id);
  // The Router fixes the replica at submit time (kRoute span + counters);
  // the sequence is served entirely by that replica.
  const turbo::router::RouteDecision d =
      engine->router->place(request, static_cast<double>(iteration_));
  engine->set->replica(d.replica).submit(std::move(request),
                                         std::move(on_token));
}

std::vector<size_t> MultiModelGenerationServer::step_order() const {
  // The replica sets' order, one level up: a model is blocked (starved)
  // when any of its replicas is.
  return turbo::router::starved_first_order(
      engines_.size(), rr_cursor_,
      [this](size_t i) { return engines_[i]->set->any_admission_blocked(); },
      [this](size_t i) {
        return engines_[i]->set->any_starved_under_guarantee();
      });
}

void MultiModelGenerationServer::collect_completed(Engine& engine) {
  for (auto& resp : engine.set->take_completed()) {
    ids_in_flight_.erase(resp.request_id);
    m_completed_total_->add(1);
    completed_.push_back(std::move(resp));
  }
}

size_t MultiModelGenerationServer::reclaim_for_starved_models() {
  // Arbitration units are (model, replica) pools in registration x replica
  // order: every replica has its own pool, guarantee split, and admission
  // state, and sibling replicas of one model borrow from and donate to
  // each other exactly like distinct models do — the budget does not care
  // where a pool lives. One replica per model reduces to the original
  // per-model loop.
  struct Unit {
    Engine* engine;
    size_t replica;
  };
  std::vector<Unit> units;
  for (const auto& e : engines_) {
    for (size_t r = 0; r < e->set->size(); ++r) units.push_back({e.get(), r});
  }
  size_t freed_total = 0;
  for (const Unit& su : units) {
    GenerationServer& m = su.engine->set->replica(su.replica);
    if (!m.scheduler().admission_blocked()) continue;
    const KvCachePool& pool = m.pool();
    // Demand and targets quantize to whole slabs: the pool's budget
    // traffic moves one slab at a time.
    const size_t grain = pool.slab_bytes();
    const size_t used = pool.stats().current_device_bytes;
    // Guarantees are reclaim floors: the owner only claws back up to its
    // declared share. Above it, this replica is itself a borrower and
    // waits for siblings to drain naturally.
    const size_t floor = su.engine->set->replica_guarantee_bytes(su.replica);
    if (used + grain > floor) continue;
    // Reclaim what the blocked demand justifies (cross blocks of a cold
    // prompt + first self blocks + headroom, in whole grains) — an
    // undersized reclaim frees bytes a sibling re-borrows before they add
    // up to an admission, an entitlement-sized one would gut a busy
    // borrower for a model that wants two grains. The guarantee stays the
    // hard cap on what the owner may claw back.
    const size_t entitled = floor - used;
    const size_t demand_bytes = m.scheduler().admission_demand_bytes();
    const size_t demand_rounded = (demand_bytes + grain - 1) / grain * grain;
    const size_t want = std::max(demand_rounded, grain);
    const size_t avail = budget_.available_bytes();
    if (avail >= want) continue;  // budget is not the blocker
    size_t needed = want - avail;
    // All-or-nothing: when even a full clawback of the entitlement cannot
    // reach the head-of-queue demand, or the donors' borrowed bytes sum to
    // less than the shortfall, shedding is pure churn — the freed bytes
    // sit short of an admission until a sibling re-borrows them, and a
    // donor shed every iteration never finishes its replay (observed as a
    // reclaim-per-step livelock). Wait for natural drain instead.
    if (needed > entitled) continue;
    size_t borrowable = 0;
    for (const Unit& du : units) {
      if (du.engine == su.engine && du.replica == su.replica) continue;
      const size_t d_floor =
          du.engine->set->replica_guarantee_bytes(du.replica);
      const size_t d_used = du.engine->set->replica(du.replica)
                                .pool()
                                .stats()
                                .current_device_bytes;
      if (d_used > d_floor) borrowable += d_used - d_floor;
    }
    if (borrowable < needed) continue;
    for (const Unit& du : units) {
      if ((du.engine == su.engine && du.replica == su.replica) ||
          needed == 0) {
        continue;
      }
      GenerationServer& d = du.engine->set->replica(du.replica);
      const size_t d_floor =
          du.engine->set->replica_guarantee_bytes(du.replica);
      const size_t d_used = d.pool().stats().current_device_bytes;
      if (d_used <= d_floor) continue;  // nothing borrowed
      const size_t borrowed = d_used - d_floor;
      const size_t got = d.shed_kv(std::min(needed, borrowed));
      if (got > 0) {
        ++total_reclaims_;
        m_reclaims_->add(1);
        m_reclaimed_bytes_->add(got);
        freed_total += got;
        needed = got >= needed ? 0 : needed - got;
        if (trace_ring_ != nullptr) {
          // Cross-pool reclaim event: starved replica in `model`, donor in
          // `peer` (replica labels; replica 0 is the plain bundle label) —
          // the borrow/reclaim timeline pass keys on exactly this pair.
          obs::TraceSpan span;
          span.kind = obs::SpanKind::kReclaim;
          span.model_version = su.engine->bundle->version;
          span.seq = -1;
          span.iteration = iteration_ + 1;
          span.bytes = got;
          span.start_ticks = obs::now_ticks();
          span.end_ticks = span.start_ticks;
          obs::copy_name(span.model,
                         su.engine->set->replica_label(su.replica));
          obs::copy_name(span.peer,
                         du.engine->set->replica_label(du.replica));
          trace_ring_->record(span);
        }
      }
    }
  }
  return freed_total;
}

int MultiModelGenerationServer::step() {
  int stepped = 0;
  for (const size_t idx : step_order()) {
    Engine& engine = *engines_[idx];
    stepped += engine.set->step();
    collect_completed(engine);
  }
  // Cross-pool arbitration: give admission-blocked under-guarantee
  // replicas their slabs back before the next iteration admits anyone.
  // Replicated single-model servers arbitrate too — sibling replicas
  // contend on the one budget just like distinct models.
  const size_t pools =
      engines_.empty() ? 0
                       : engines_.size() > 1 ? 2 : engines_[0]->set->size();
  if (budget_.total_bytes() > 0 && pools > 1) {
    reclaim_for_starved_models();
  }
  // Drained unregistered engines die here — the last pin on their bundle.
  std::erase_if(engines_, [](const std::unique_ptr<Engine>& e) {
    return e->draining && e->set->idle();
  });
  if (!engines_.empty()) rr_cursor_ = (rr_cursor_ + 1) % engines_.size();
  if (stepped > 0) {
    ++iteration_;
    m_iterations_->add(1);
  }
  return stepped;
}

bool MultiModelGenerationServer::idle() const {
  for (const auto& e : engines_) {
    if (!e->set->idle()) return false;
  }
  return true;
}

const turbo::router::ReplicaSet* MultiModelGenerationServer::replica_set(
    const std::string& name, int version) const {
  const Engine* engine = find_engine(name, version);
  return engine != nullptr ? engine->set.get() : nullptr;
}

bool MultiModelGenerationServer::serving(const std::string& name,
                                         int version) const {
  return find_engine(name, version) != nullptr;
}

std::vector<serving::GenerationResponse>
MultiModelGenerationServer::take_completed() {
  return std::exchange(completed_, {});
}

std::vector<serving::GenerationResponse>
MultiModelGenerationServer::run_to_completion() {
  while (!idle()) step();
  return take_completed();
}

std::vector<ModelServingStats> MultiModelGenerationServer::stats() const {
  std::vector<ModelServingStats> out;
  out.reserve(engines_.size());
  for (const auto& e : engines_) {
    for (size_t r = 0; r < e->set->size(); ++r) {
      const GenerationServer& server = e->set->replica(r);
      ModelServingStats s;
      s.name = e->bundle->name;
      s.version = e->bundle->version;
      s.replica = static_cast<int>(r);
      s.label = e->set->replica_label(r);
      s.draining = e->draining;
      const GenerationScheduler& sched = server.scheduler();
      s.pending = sched.pending() + sched.requeued();
      s.active = sched.active();
      s.served = server.completed_total();
      s.last_step = e->set->last_step(r);
      s.pool = server.pool_snapshot();
      s.budget_guarantee_bytes = e->set->replica_guarantee_bytes(r);
      s.budget_used_bytes = s.pool.device_bytes;
      out.push_back(std::move(s));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// AsyncMultiModelGenerationServer
// ---------------------------------------------------------------------------

AsyncMultiModelGenerationServer::AsyncMultiModelGenerationServer(
    MultiModelOptions options)
    : server_(std::make_unique<MultiModelGenerationServer>(
          std::move(options))) {
  worker_ = std::thread([this] { worker_loop(); });
}

AsyncMultiModelGenerationServer::~AsyncMultiModelGenerationServer() {
  shutdown();
}

std::future<void> AsyncMultiModelGenerationServer::register_bundle(
    std::shared_ptr<ModelBundle> bundle, size_t guarantee_bytes,
    std::optional<GenServerOptions> overrides, int replicas) {
  auto promise = std::make_shared<std::promise<void>>();
  std::future<void> future = promise->get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TT_CHECK_MSG(!shutdown_, "register_bundle after shutdown");
    Event e;
    e.control = [this, promise, bundle = std::move(bundle), guarantee_bytes,
                 overrides = std::move(overrides), replicas]() mutable {
      try {
        server_->register_bundle(std::move(bundle), guarantee_bytes,
                                 std::move(overrides), replicas);
        promise->set_value();
      } catch (...) {
        promise->set_exception(std::current_exception());
      }
    };
    incoming_.push_back(std::move(e));
  }
  cv_.notify_one();
  return future;
}

std::future<bool> AsyncMultiModelGenerationServer::unregister_bundle(
    std::string name, int version) {
  auto promise = std::make_shared<std::promise<bool>>();
  std::future<bool> future = promise->get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TT_CHECK_MSG(!shutdown_, "unregister_bundle after shutdown");
    Event e;
    e.control = [this, promise, name = std::move(name), version] {
      try {
        promise->set_value(server_->unregister_bundle(name, version));
      } catch (...) {
        promise->set_exception(std::current_exception());
      }
    };
    incoming_.push_back(std::move(e));
  }
  cv_.notify_one();
  return future;
}

std::future<serving::GenerationResponse>
AsyncMultiModelGenerationServer::submit(serving::GenerationRequest request,
                                        serving::TokenCallback on_token) {
  // Routing and validation happen on the worker — the route table is the
  // worker's to mutate (hot registration), so a stale read here could
  // mis-route. A bad request therefore rejects its future, never the call.
  std::future<serving::GenerationResponse> future;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TT_CHECK_MSG(!shutdown_, "submit after shutdown");
    TT_CHECK_MSG(ids_in_flight_.insert(request.id).second,
                 "duplicate in-flight generation request id " << request.id);
    Submission s;
    s.request = std::move(request);
    s.on_token = std::move(on_token);
    future = s.promise.get_future();
    Event e;
    e.submission = std::move(s);
    incoming_.push_back(std::move(e));
  }
  cv_.notify_one();
  return future;
}

void AsyncMultiModelGenerationServer::shutdown() {
  std::lock_guard<std::mutex> join_lock(join_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

size_t AsyncMultiModelGenerationServer::served() const {
  // Registry-backed: the shared registry is lock-free to read and keeps
  // counting across engine drains, so there is no cached copy to reset.
  return server_->served_total();
}

int64_t AsyncMultiModelGenerationServer::iterations() const {
  return static_cast<int64_t>(
      server_->metrics()->counter_value("gen.server.iterations"));
}

std::vector<ModelServingStats> AsyncMultiModelGenerationServer::model_stats()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return model_stats_;
}

memory::SlabBudgetSnapshot AsyncMultiModelGenerationServer::budget_snapshot()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return budget_snapshot_;
}

void AsyncMultiModelGenerationServer::worker_loop() {
  for (;;) {
    std::vector<Event> events;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (incoming_.empty() && server_->idle()) {
        cv_.wait(lock, [this] { return shutdown_ || !incoming_.empty(); });
        if (incoming_.empty() && shutdown_) return;
      }
      events = std::exchange(incoming_, {});
    }

    // Engine failures must not escape the worker (std::terminate); they
    // fail every waiting client instead. Per-request routing/validation
    // errors are not engine failures — they reject just their own future.
    std::vector<serving::GenerationResponse> done;
    try {
      // Strictly in enqueue order: a submit that preceded an unregister
      // (or a register of a newer version) resolves against the routes
      // live when the client issued it.
      for (Event& e : events) {
        if (e.control) {
          e.control();  // resolves its own promise
          continue;
        }
        Submission& s = *e.submission;
        const int64_t id = s.request.id;
        try {
          server_->submit(std::move(s.request), std::move(s.on_token));
          in_flight_[id] = std::move(s.promise);
        } catch (...) {
          s.promise.set_exception(std::current_exception());
          std::lock_guard<std::mutex> lock(mutex_);
          ids_in_flight_.erase(id);
        }
      }
      server_->step();
      done = server_->take_completed();
    } catch (...) {
      std::vector<Event> orphaned;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
        orphaned = std::exchange(incoming_, {});
        for (auto& [id, promise] : in_flight_) {
          promise.set_exception(std::current_exception());
          ids_in_flight_.erase(id);
        }
        in_flight_.clear();
        for (const auto& e : orphaned) {
          if (e.submission) ids_in_flight_.erase(e.submission->request.id);
        }
      }
      for (auto& e : orphaned) {
        if (e.submission) {
          e.submission->promise.set_exception(std::current_exception());
        } else if (e.control) {
          // Control ops self-contain their error handling; running them
          // (even against a broken server) resolves their promises
          // instead of wedging their callers.
          e.control();
        }
      }
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      model_stats_ = server_->stats();
      budget_snapshot_ = server_->budget().snapshot();
      for (const auto& resp : done) ids_in_flight_.erase(resp.request_id);
    }
    for (auto& resp : done) {
      const auto it = in_flight_.find(resp.request_id);
      TT_CHECK(it != in_flight_.end());
      std::promise<serving::GenerationResponse> promise =
          std::move(it->second);
      in_flight_.erase(it);
      promise.set_value(std::move(resp));
    }
  }
}

}  // namespace turbo::genserve
