#include "genserve/generation_server.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"
#include "tensor/tensor.h"

namespace turbo::genserve {

namespace {

// Coarse analytic cached_cost stand-in for admission control when no
// profiled table is supplied: step latency grows with context length and
// batch size. Benchmarks pass a table profiled on the real runtime.
serving::CostTable default_cost_table(const GenSchedulerOptions& scheduler) {
  const int max_batch = std::max(scheduler.max_active, 16);
  return serving::CostTable::warmup(
      [](int len, int batch) {
        return 0.1 + 0.05 * batch + 0.0005 * static_cast<double>(len) * batch;
      },
      /*max_len=*/512, max_batch, /*len_step=*/16);
}

// Admission-cost preference: explicit engine option, then the bundle's
// profiled per-model table, then the coarse analytic warm-up.
serving::CostTable resolve_cost_table(const ModelBundle& bundle,
                                      const GenServerOptions& options) {
  if (options.cost_table) return *options.cost_table;
  if (bundle.cost_table) return *bundle.cost_table;
  return default_cost_table(options.scheduler);
}

// The member-init list dereferences the bundle (config copy, cost-table
// resolution), so the null check must run before initialization starts.
std::shared_ptr<ModelBundle> require_bundle(
    std::shared_ptr<ModelBundle> bundle) {
  TT_CHECK_MSG(bundle != nullptr, "GenerationServer needs a model bundle");
  TT_CHECK_MSG(bundle->decoder_only() || bundle->encoder != nullptr,
               "seq2seq bundle " << bundle->label() << " has no encoder");
  TT_CHECK(bundle->decoder != nullptr);
  return bundle;
}

// The serving mode follows the bundle, not the caller: a decoder-only
// bundle always runs the scheduler's causal-LM path (radix prefix
// admission, prompt prefill through the decode loop).
GenSchedulerOptions resolve_scheduler_options(const ModelBundle& bundle,
                                              const GenServerOptions& options) {
  GenSchedulerOptions scheduler = options.scheduler;
  scheduler.causal_lm = bundle.decoder_only();
  return scheduler;
}

// Admission headroom in blocks: what the pool could still charge right
// now. SIZE_MAX when the pool is unbounded (no cap, no shared budget cap).
size_t pool_free_blocks(const KvCachePool& pool) {
  const size_t cap = pool.max_blocks();
  if (cap == std::numeric_limits<size_t>::max()) return cap;
  const size_t charged = pool.charged_blocks();
  return cap > charged ? cap - charged : 0;
}

// Monotonic time_point -> the obs tick domain (both are steady_clock, so
// the conversion is exact and spans line up with obs::now_ticks stamps).
uint64_t to_ticks(std::chrono::steady_clock::time_point tp) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          tp.time_since_epoch())
          .count());
}

}  // namespace

// ---------------------------------------------------------------------------
// GenerationServer
// ---------------------------------------------------------------------------

GenerationServer::GenerationServer(std::shared_ptr<ModelBundle> bundle,
                                   GenServerOptions options)
    : bundle_(require_bundle(std::move(bundle))),
      config_(bundle_->config),
      costs_(resolve_cost_table(*bundle_, options)),
      pool_(config_, options.pool),
      scheduler_(&pool_, &costs_, resolve_scheduler_options(*bundle_, options)),
      causal_(bundle_->decoder_only()),
      observe_costs_(options.observe_step_costs),
      observe_alpha_(options.cost_observe_alpha),
      epoch_(std::chrono::steady_clock::now()) {
  std::shared_ptr<obs::TraceRing> ring = options.trace.ring;
  if (ring == nullptr && options.trace.enabled) {
    ring = std::make_shared<obs::TraceRing>(options.trace.capacity);
  }
  const std::string label =
      options.instance_label.empty() ? bundle_->label()
                                     : options.instance_label;
  tracer_ = obs::Tracer(std::move(ring), label, bundle_->version);
  scheduler_.set_tracer(&tracer_);
  metrics_ =
      options.metrics ? options.metrics : std::make_shared<obs::Registry>();
  metric_prefix_ = "gen." + label + ".";
  bind_metrics();
}

void GenerationServer::bind_metrics() {
  const std::string& p = metric_prefix_;
  m_steps_ = &metrics_->counter(p + "steps");
  m_submitted_ = &metrics_->counter(p + "requests_submitted");
  m_completed_ = &metrics_->counter(p + "requests_completed");
  m_tokens_ = &metrics_->counter(p + "tokens_streamed");
  m_admitted_ = &metrics_->counter(p + "admitted");
  m_preempted_ = &metrics_->counter(p + "preemptions");
  m_resumed_ = &metrics_->counter(p + "resumes");
  m_evicted_ = &metrics_->counter(p + "evictions");
  m_replayed_ = &metrics_->counter(p + "replayed_tokens");
  m_prefilled_ = &metrics_->counter(p + "prefill_tokens");
  m_prefill_chunks_ = &metrics_->counter(p + "prefill_chunks");
  m_radix_hits_ = &metrics_->counter(p + "radix_hits");
  m_radix_hit_rows_ = &metrics_->counter(p + "radix_hit_rows");
  m_radix_evictions_ = &metrics_->counter(p + "radix_evictions");
  g_radix_cached_blocks_ = &metrics_->gauge(p + "radix_cached_blocks");
  g_radix_evictable_blocks_ = &metrics_->gauge(p + "radix_evictable_blocks");
  g_active_ = &metrics_->gauge(p + "active_sequences");
  g_kv_bytes_ = &metrics_->gauge(p + "kv_bytes_in_use");
  g_device_bytes_ = &metrics_->gauge(p + "kv_device_bytes");
  g_kv_free_blocks_ = &metrics_->gauge(p + "kv_free_blocks");
  g_kv_charged_bytes_ = &metrics_->gauge(p + "kv_charged_bytes");
  h_step_ms_ = &metrics_->histogram(p + "step_ms");
  h_batch_ = &metrics_->histogram(p + "batch_size");
  h_latency_ms_ = &metrics_->histogram(p + "request_latency_ms");
}

double GenerationServer::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void GenerationServer::validate(
    const serving::GenerationRequest& request) const {
  // Model-bound checks the scheduler cannot see: an out-of-vocab token
  // would otherwise TT_CHECK deep inside the encoder/decoder mid-step and
  // fail every in-flight request with it.
  TT_CHECK_GE(request.bos_id, 0);
  TT_CHECK_LT(request.bos_id, config_.vocab);
  TT_CHECK_GE(request.eos_id, 0);
  TT_CHECK_LT(request.eos_id, config_.vocab);
  for (const int tok : request.src_tokens) {
    TT_CHECK_MSG(tok >= 0 && tok < config_.vocab,
                 "generation request " << request.id
                                       << " has out-of-vocab token " << tok);
  }
  scheduler_.validate(request);
}

void GenerationServer::submit(serving::GenerationRequest request,
                              serving::TokenCallback on_token) {
  validate(request);
  TT_CHECK_MSG(callbacks_.find(request.id) == callbacks_.end(),
               "duplicate in-flight generation request id " << request.id);
  m_submitted_->add(1);
  if (tracer_.enabled()) arrivals_[request.id] = obs::now_ticks();
  callbacks_[request.id] = std::move(on_token);
  scheduler_.enqueue(std::move(request));
}

GenerationServer::CounterMarks GenerationServer::counter_marks() const {
  return CounterMarks{scheduler_.total_admitted(), scheduler_.total_preempted(),
                      scheduler_.total_resumed(),  scheduler_.total_evicted(),
                      pool_.radix_hits(),          pool_.radix_hit_rows(),
                      pool_.radix_evictions()};
}

void GenerationServer::publish_counters() {
  const CounterMarks now = counter_marks();
  m_admitted_->add(now.admitted - published_.admitted);
  m_preempted_->add(now.preempted - published_.preempted);
  m_resumed_->add(now.resumed - published_.resumed);
  m_evicted_->add(now.evicted - published_.evicted);
  m_radix_hits_->add(now.radix_hits - published_.radix_hits);
  m_radix_hit_rows_->add(now.radix_hit_rows - published_.radix_hit_rows);
  m_radix_evictions_->add(now.radix_evictions - published_.radix_evictions);
  published_ = now;
}

size_t GenerationServer::shed_kv(size_t bytes) {
  const size_t freed = scheduler_.shed(bytes);
  publish_counters();
  return freed;
}

int GenerationServer::step() {
  // Nothing queued, parked or active: nothing to admit or schedule, and
  // no counter can have moved since the last call published. An idle
  // engine reads no clock and records no span, so it does not dilute the
  // phase attribution of the models that share its step loop.
  if (scheduler_.idle()) return 0;
  const bool tracing = tracer_.enabled();
  // Spans are keyed by call, not by iteration_: a call that runs no rows
  // (a model starved by the shared budget) still admits, schedules and may
  // preempt, and must not fold into the next call's step.
  ++calls_;
  if (tracing) tracer_.set_iteration(calls_);
  const double now = now_s();
  const CounterMarks before = counter_marks();

  // Iteration-level batch formation: requeued (preempted) sequences resume
  // first, then queued requests join. Seq2seq admits owe the encoder a
  // pass unless their prompt matched a resident share (the prefix-sharing
  // fast path); the scheduler schedules that pass as a deferred encode job.
  const uint64_t t_admit0 = tracing ? obs::now_ticks() : 0;
  const std::vector<ActiveSequence*> admitted = scheduler_.admit(now);
  if (tracing) {
    const uint64_t t_admit1 = obs::now_ticks();
    tracer_.span(obs::SpanKind::kAdmit, t_admit0, t_admit1, /*seq=*/-1,
                 static_cast<int32_t>(admitted.size()));
    // Per-sequence admit spans cover arrival -> admitted (the queue wait
    // the offline queueing pass decomposes); only first admissions carry
    // one — resumes already have their resume span.
    for (const ActiveSequence* seq : admitted) {
      const auto it = arrivals_.find(seq->request.id);
      if (it != arrivals_.end()) {
        tracer_.span(obs::SpanKind::kAdmit, it->second, t_admit1,
                     seq->request.id);
        arrivals_.erase(it);
      }
    }
  }
  // First admits that owe the encoder a pass, counted before prepare_step
  // can preempt one of them (which would bump its preempt_count and make
  // it indistinguishable from a resume later). Causal sequences never
  // encode (empty share, born ready); the sharing count for them is first
  // admits that adopted a radix prefix.
  int fresh_encoded = 0;
  int radix_admits = 0;
  for (const ActiveSequence* seq : admitted) {
    if (seq->preempt_count > 0) continue;
    if (causal_) {
      if (seq->kv->prefix_rows() > 0) ++radix_admits;
    } else if (seq->kv->needs_cross_init()) {
      ++fresh_encoded;
    }
  }

  // Growth phase: back the self rows every scheduled sequence will write.
  // This is where pool exhaustion surfaces and the scheduler preempts —
  // only the survivors step. The plan is a mixed batch: decode rows plus
  // prefill/replay chunk rows, plus deferred whole-prompt encode jobs,
  // together priced under the step token quantum.
  const uint64_t t_sched0 = tracing ? obs::now_ticks() : 0;
  const GenerationScheduler::StepPlan plan = scheduler_.prepare_step();
  if (tracing) {
    tracer_.span(obs::SpanKind::kSchedule, t_sched0, obs::now_ticks(),
                 /*seq=*/-1, static_cast<int32_t>(plan.stepping.size()));
  }
  if (plan.empty()) {
    publish_counters();
    return 0;
  }
  const int nb_seqs = static_cast<int>(plan.stepping.size());

  // Deferred encode jobs: one encoder forward per sequence — exactly the
  // source length, zero padding — then the cross K/V projection into the
  // share's pool blocks. Decode rows of this sequence start next step at
  // the earliest (the scheduler never mixes a sequence's encode and decode
  // in one plan).
  int prefilled_now = 0;  // prompt tokens prefilled this step (encoder
                          // source rows + causal prompt-feeding rows)
  for (ActiveSequence* seq : plan.encode) {
    const uint64_t t_enc0 = tracing ? obs::now_ticks() : 0;
    const auto& src = seq->request.src_tokens;
    const int len = static_cast<int>(src.size());
    Tensor ids = Tensor::zeros(Shape{1, len}, DType::kI32);
    std::copy(src.begin(), src.end(), ids.data<int32_t>());
    std::vector<int> valid_lens{len};
    Tensor memory = bundle_->encoder->forward(ids, &valid_lens);
    Tensor view =
        Tensor::view(memory.data<float>(), Shape{len, config_.hidden});
    bundle_->decoder->init_cross_attention(view, *seq->kv);
    seq->kv->mark_cross_ready();
    prefilled_now += len;
    if (tracing) {
      tracer_.span(obs::SpanKind::kEncodePrefill, t_enc0, obs::now_ticks(),
                   seq->request.id, /*batch=*/1, len);
    }
  }

  // One fused decode step over every surviving sequence: one StepSlot per
  // scheduled row. A chunked sequence contributes step_tokens consecutive
  // rows at ascending positions; every fed token is already known (prompt
  // tokens mid-prefill, parked tokens mid-replay, the sampled last token
  // on the frontier row), and the slot order within the batch matches the
  // order the rows run in one at a time, so the fused chunk is
  // bit-identical to feeding one row per step (step_token_quantum = 1).
  // Rows whose logits nobody reads (causal prompt rows short of the
  // frontier) skip the vocabulary projection via need_logits.
  std::vector<model::Seq2SeqDecoder::StepSlot> slots;
  slots.reserve(static_cast<size_t>(
      std::max(plan.quantum_charged, nb_seqs)));
  int max_ctx_now = 1;
  int chunked_now = 0;
  for (ActiveSequence* sp : plan.stepping) {
    const ActiveSequence& seq = *sp;
    const auto& src = seq.request.src_tokens;
    const int src_len = static_cast<int>(src.size());
    const int prompt_len = causal_ ? src_len : 0;
    if (seq.step_tokens > 1) {
      ++chunked_now;
      if (tracing) {
        tracer_.instant(obs::SpanKind::kPrefillChunk, seq.request.id,
                        seq.step_tokens);
      }
    }
    for (int i = 0; i < seq.step_tokens; ++i) {
      const int p = seq.step + i;
      model::Seq2SeqDecoder::StepSlot slot;
      if (causal_) {
        slot.prev_token = p < prompt_len
                              ? src[static_cast<size_t>(p)]
                              : seq.tokens[static_cast<size_t>(p - prompt_len)];
      } else {
        slot.prev_token = p == 0 ? seq.request.bos_id
                                 : seq.tokens[static_cast<size_t>(p - 1)];
      }
      slot.step = p;
      slot.cache = seq.kv.get();
      // Causal rows still inside the prompt predict a position whose
      // token is already known — their logits are never read.
      slot.need_logits = (causal_ ? p + 1 - prompt_len : p) >= 0;
      slots.push_back(slot);
      // Causal context is the self rows alone (the prompt lives in them);
      // seq2seq attends source + generated.
      max_ctx_now =
          std::max(max_ctx_now, causal_ ? p + 1 : src_len + p + 1);
    }
  }
  const int nb_rows = static_cast<int>(slots.size());
  const int vocab = config_.vocab;
  double step_ms = 0.0;
  if (nb_rows > 0) {
    logits_.resize(static_cast<size_t>(nb_rows) * vocab);
    const auto step_t0 = std::chrono::steady_clock::now();
    bundle_->decoder->step(slots, logits_.data(), workspace_);
    const auto step_t1 = std::chrono::steady_clock::now();
    step_ms =
        std::chrono::duration<double, std::milli>(step_t1 - step_t0).count();
    if (tracing) {
      // The decode span reuses the cost-observation timestamps — no extra
      // clock reads bracket the fused step.
      tracer_.span(obs::SpanKind::kDecodeStep, to_ticks(step_t0),
                   to_ticks(step_t1), /*seq=*/-1, nb_rows, /*tokens=*/nb_rows);
    }
    // Lazy-evaluation feedback (§6.3): the admission gate predicts from
    // this table, so feed it what the step actually cost at the batch's
    // real context length. A
    // batch wider than the table's grid is dropped — folding an 8-wide
    // latency into the widest cell would inflate its EMA forever.
    if (observe_costs_ && step_ms > 0.0 && nb_rows <= costs_.max_batch()) {
      costs_.observe(max_ctx_now, nb_rows, step_ms, observe_alpha_);
    }
  }

  // Greedy expansion + streaming, row by row in slot order. Replayed
  // positions (emit_idx < replay after a resume) re-derive parked tokens:
  // the argmax is asserted identical to the parked token and is NOT
  // streamed again — clients already saw it — so the stream stays gapless
  // and duplicate-free across preemptions. Causal prompt rows short of
  // the frontier discard their (never-projected) prediction; a chunk that
  // does not reach the frontier samples nothing this step. At most the
  // final row of a sequence's chunk can stream — chunks never extend past
  // the known-token frontier.
  const uint64_t t_stream0 = tracing ? obs::now_ticks() : 0;
  int finished_now = 0;
  int replayed_now = 0;
  int streamed_now = 0;
  size_t si = 0;
  for (ActiveSequence* sp : plan.stepping) {
    ActiveSequence& seq = *sp;
    const int rows = seq.step_tokens;
    for (int i = 0; i < rows; ++i, ++si) {
      const int step_idx = slots[si].step;
      TT_CHECK_EQ(step_idx, seq.step);
      ++seq.step;
      // Causal prefill: feeding prompt row step_idx produces logits for
      // position step_idx + 1; while that position is still inside the
      // prompt the prediction is discarded and the real prompt token is
      // fed next — nothing streams. emit_idx is the generated-token index
      // this row produced (seq2seq prefills through the encoder, so there
      // the row index is already it).
      const int prompt_len =
          causal_ ? static_cast<int>(seq.request.src_tokens.size()) : 0;
      const int emit_idx = causal_ ? step_idx + 1 - prompt_len : step_idx;
      if (emit_idx < 0) {
        seq.last_token =
            seq.request.src_tokens[static_cast<size_t>(step_idx) + 1];
        ++prefilled_now;
        continue;
      }
      const float* row = logits_.data() + si * static_cast<size_t>(vocab);
      const int token =
          static_cast<int>(std::max_element(row, row + vocab) - row);
      if (emit_idx < seq.replay) {
        TT_CHECK_MSG(token == seq.tokens[static_cast<size_t>(emit_idx)],
                     "preemption replay diverged for request "
                         << seq.request.id << " at step " << step_idx << ": "
                         << token << " != "
                         << seq.tokens[static_cast<size_t>(emit_idx)]);
        seq.last_token = token;
        ++replayed_now;
        continue;
      }
      // Frontier row: the one freshly sampled token this sequence gets
      // this step (necessarily its last scheduled row).
      TT_CHECK_EQ(i, rows - 1);
      ++streamed_now;
      if (token == seq.request.eos_id) {
        seq.finished = true;
      } else {
        seq.tokens.push_back(token);
        seq.last_token = token;
        if (static_cast<int>(seq.tokens.size()) >=
            seq.request.max_new_tokens) {
          seq.finished = true;
          seq.hit_max_len = true;
        }
      }
      if (seq.finished) ++finished_now;
      if (tracing && emit_idx == 0) {
        // First streamed token of the sequence (replayed and prefill
        // positions never get here, so this fires exactly once per
        // request): the queueing pass anchors time-to-first-token on it.
        tracer_.instant(obs::SpanKind::kStream, seq.request.id);
      }
      const auto cb = callbacks_.find(seq.request.id);
      if (cb != callbacks_.end() && cb->second) {
        cb->second(seq.request.id, token, step_idx, seq.finished);
      }
    }
  }
  TT_CHECK_EQ(si, slots.size());

  // Retire: KV blocks return to the pool before the next admit round.
  std::vector<std::unique_ptr<ActiveSequence>> retired =
      scheduler_.retire_finished();
  const double done = now_s();
  for (auto& seq : retired) {
    serving::GenerationResponse resp;
    resp.request_id = seq->request.id;
    resp.tokens = std::move(seq->tokens);
    resp.steps = seq->step;
    resp.src_len = static_cast<int>(seq->request.src_tokens.size());
    resp.hit_max_len = seq->hit_max_len;
    resp.latency_ms = (done - seq->admit_s) * 1000.0;
    h_latency_ms_->record(resp.latency_ms);
    callbacks_.erase(resp.request_id);
    arrivals_.erase(resp.request_id);
    completed_.push_back(std::move(resp));
  }
  if (tracing) {
    tracer_.span(obs::SpanKind::kStream, t_stream0, obs::now_ticks(),
                 /*seq=*/-1, nb_rows, streamed_now);
    const size_t radix_evicted_now =
        pool_.radix_evictions() - before.radix_evictions;
    if (radix_evicted_now > 0) {
      tracer_.instant(obs::SpanKind::kRadixEvict, /*seq=*/-1,
                      static_cast<int32_t>(radix_evicted_now));
    }
  }

  ++iteration_;
  m_steps_->add(1);
  publish_counters();
  m_replayed_->add(static_cast<uint64_t>(replayed_now));
  m_prefilled_->add(static_cast<uint64_t>(prefilled_now));
  m_prefill_chunks_->add(static_cast<uint64_t>(chunked_now));
  m_tokens_->add(static_cast<uint64_t>(streamed_now));
  m_completed_->add(retired.size());
  g_radix_cached_blocks_->set(
      static_cast<double>(pool_.radix_cached_blocks()));
  g_radix_evictable_blocks_->set(
      static_cast<double>(pool_.radix_evictable_blocks()));
  if (nb_rows > 0) {
    h_step_ms_->record(step_ms);
    h_batch_->record(static_cast<double>(nb_rows));
  }
  g_active_->set(static_cast<double>(pool_.active_sequences()));
  g_kv_bytes_->set(static_cast<double>(pool_.bytes_in_use()));
  g_device_bytes_->set(
      static_cast<double>(pool_.stats().current_device_bytes));
  g_kv_free_blocks_->set(static_cast<double>(pool_free_blocks(pool_)));
  g_kv_charged_bytes_->set(
      static_cast<double>(pool_.charged_blocks() * pool_.block_bytes()));
  if (observer_) {
    StepStats stats;
    stats.iteration = iteration_;
    stats.active = nb_seqs;
    stats.step_rows = nb_rows;
    stats.admitted =
        static_cast<int>(scheduler_.total_admitted() - before.admitted);
    // First admits that skipped work via sharing: a prompt match for
    // seq2seq (encoder skipped), a radix prefix hit for causal (prompt
    // rows adopted). Resumed sequences are excluded from both counts.
    stats.admitted_shared =
        causal_ ? radix_admits : stats.admitted - fresh_encoded;
    stats.retired = static_cast<int>(retired.size());
    stats.preempted =
        static_cast<int>(scheduler_.total_preempted() - before.preempted);
    stats.resumed =
        static_cast<int>(scheduler_.total_resumed() - before.resumed);
    stats.evicted =
        static_cast<int>(scheduler_.total_evicted() - before.evicted);
    stats.replayed = replayed_now;
    stats.prefilled = prefilled_now;
    stats.prefill_chunks = chunked_now;
    stats.quantum_charged = plan.quantum_charged;
    stats.quantum_overflow = plan.quantum_overflow;
    stats.kv_bytes_in_use = pool_.bytes_in_use();
    stats.kv_device_bytes = pool_.stats().current_device_bytes;
    stats.kv_blocks_in_use = pool_.blocks_in_use();
    observer_(stats);
  }
  return nb_seqs + static_cast<int>(plan.encode.size());
}

std::vector<serving::GenerationResponse> GenerationServer::take_completed() {
  return std::exchange(completed_, {});
}

PoolSnapshot GenerationServer::pool_snapshot() const {
  PoolSnapshot s;
  s.bytes_in_use = pool_.bytes_in_use();
  s.device_bytes = pool_.stats().current_device_bytes;
  s.peak_device_bytes = pool_.stats().peak_device_bytes;
  s.peak_live_bytes = pool_.peak_blocks_in_use() * pool_.block_bytes();
  s.peak_resident_bytes = pool_.stats().peak_device_bytes;
  s.peak_waste_bytes = pool_.peak_waste_bytes();
  s.free_blocks = pool_free_blocks(pool_);
  s.charged_bytes = pool_.charged_blocks() * pool_.block_bytes();
  s.active_sequences = pool_.active_sequences();
  s.preemptions = scheduler_.total_preempted();
  s.resumes = scheduler_.total_resumed();
  s.evictions = scheduler_.total_evicted();
  return s;
}

std::vector<serving::GenerationResponse> GenerationServer::run_to_completion() {
  while (!idle()) step();
  return take_completed();
}

}  // namespace turbo::genserve
