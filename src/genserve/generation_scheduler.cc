#include "genserve/generation_scheduler.h"

#include <algorithm>

#include "common/check.h"

namespace turbo::genserve {

GenerationScheduler::GenerationScheduler(KvCachePool* pool,
                                         const serving::CostTable* costs,
                                         GenSchedulerOptions options)
    : pool_(pool), costs_(costs), options_(std::move(options)) {
  TT_CHECK(pool_ != nullptr);
  TT_CHECK(costs_ != nullptr);
  TT_CHECK_GE(options_.max_active, 1);
  TT_CHECK_GE(options_.step_token_quantum, 1);
  TT_CHECK_GE(options_.prefill_chunk_tokens, 0);
}

void GenerationScheduler::validate(
    const serving::GenerationRequest& request) const {
  TT_CHECK_MSG(!request.src_tokens.empty(),
               "generation request " << request.id << " has no source");
  TT_CHECK_GE(request.max_new_tokens, 1);
  // Request ids become the `seq` field of trace spans, where a negative
  // seq marks an engine-level phase span (obs::attribute_phases and the
  // Chrome trace writer key on `seq < 0`). A negative request id would
  // file the request's own spans as engine phases.
  TT_CHECK_MSG(request.id >= 0,
               "generation request ids must be non-negative (got "
                   << request.id
                   << "); negative span seqs mark engine phases");
  // A request whose worst case exceeds the whole pool could never be
  // admitted; accepting it would wedge the FIFO queue forever. The cap
  // doubles as the progress guarantee: the highest-ranked sequence can
  // always preempt everything else and still fit alone.
  // The cap is the lifetime ceiling, not max_blocks(): a budget-attached
  // pool's momentary capacity fluctuates with sibling borrowing, and
  // validate() must stay immutable-read (it is safe from any thread).
  const size_t need =
      options_.causal_lm
          ? pool_->blocks_for_causal(
                static_cast<int>(request.src_tokens.size()),
                request.max_new_tokens)
          : pool_->blocks_for(static_cast<int>(request.src_tokens.size()),
                              request.max_new_tokens);
  TT_CHECK_MSG(need <= pool_->max_blocks_ceiling(),
               "generation request " << request.id << " needs " << need
                                     << " KV blocks but the pool caps at "
                                     << pool_->max_blocks_ceiling());
}

std::vector<int> GenerationScheduler::fed_tokens(const ActiveSequence& seq) {
  std::vector<int> fed = seq.request.src_tokens;
  fed.insert(fed.end(), seq.tokens.begin(), seq.tokens.end());
  return fed;
}

void GenerationScheduler::enqueue(serving::GenerationRequest request) {
  validate(request);
  ++total_enqueued_;
  queue_.push_back(std::move(request));
}

double GenerationScheduler::predicted_step_cost_ms(int max_ctx,
                                                   int batch) const {
  // The cached_cost dictionary is keyed (padded length, batch); a fused
  // decode step attends over the longest active context, so that length is
  // the conservative key. CostTable clamps length itself but rejects
  // batches beyond its warm-up grid, so clamp here: a table smaller than
  // max_active must not abort admission.
  return costs_->batch_cost_ms(std::max(max_ctx, 1),
                               std::min(batch, costs_->max_batch()));
}

std::vector<ActiveSequence*> GenerationScheduler::admit(double now_s) {
  std::vector<ActiveSequence*> admitted;
  // Worst-case context (source + full output budget) of every active
  // sequence, matching the candidate term below: the step-cost cap is a
  // lifetime guarantee for the batch, not a snapshot of current lengths —
  // a gate on current context would be silently violated as sequences
  // grow. (Preemption is triggered by pool exhaustion, never by the cost
  // gate, so the lifetime view stays right.)
  int max_ctx = 0;
  for (const auto& seq : active_) {
    max_ctx = std::max(max_ctx,
                       static_cast<int>(seq->request.src_tokens.size()) +
                           seq->request.max_new_tokens);
  }
  const auto cost_blocks = [&](const serving::GenerationRequest& r) {
    if (options_.max_step_cost_ms <= 0.0) return false;
    const int ctx = std::max(
        max_ctx, static_cast<int>(r.src_tokens.size()) + r.max_new_tokens);
    // A lone over-budget sequence still runs (batch of one) so the queue
    // can never wedge.
    return predicted_step_cost_ms(ctx, static_cast<int>(active_.size()) + 1) >
               options_.max_step_cost_ms &&
           !active_.empty();
  };

  // Admission keeps one boundary-crossing of growth headroom per running
  // sequence uncommitted: packing the pool to the last block would only
  // buy a sequence that the very next grow preempts again (and whose
  // parked tokens must then be replayed — pure waste).
  const auto headroom = [&] {
    return pool_->blocks_per_boundary() * active_.size();
  };

  for (;;) {
    // Requeued (preempted) sequences resume first: they are older than
    // anything still pending and their cross blocks are usually resident.
    while (!requeued_.empty() &&
           static_cast<int>(active_.size()) < options_.max_active) {
      ActiveSequence* seq = requeued_.front().get();
      if (cost_blocks(seq->request)) break;
      // Resuming is only worth it when the whole replay fits: coming back
      // with less space thrashes the sequence straight back out.
      const int replay_rows = static_cast<int>(seq->tokens.size()) + 1;
      if (options_.causal_lm) {
        // Causal resume: re-plan the radix prefix over the full fed history
        // (prompt + parked tokens) — a resume may adopt *more* cached rows
        // than the original admission, and adopted rows never replay.
        const std::vector<int> fed = fed_tokens(*seq);
        const int fed_rows = static_cast<int>(fed.size()) + 1;
        const auto plan = pool_->plan_causal(fed);
        if (seq->kv) {
          if (!pool_->can_resume_causal(*seq->kv, plan, fed_rows,
                                        headroom())) {
            break;
          }
          pool_->resume_causal(*seq->kv, plan);
        } else {
          if (!pool_->can_readmit_causal_now(plan, fed_rows, headroom())) {
            break;
          }
          seq->kv = pool_->admit_causal(seq->request.id,
                                        seq->request.src_tokens,
                                        seq->request.max_new_tokens, plan);
        }
        // Restart the decode cursor behind the adopted prefix; replayed
        // steps re-derive only the parked tokens the prefix does not back.
        seq->step = seq->kv->prefix_rows();
        seq->last_token = fed[seq->step];
        seq->replay = static_cast<int>(seq->tokens.size());
        if (tracing() && seq->kv->prefix_rows() > 0) {
          tracer_->instant(obs::SpanKind::kRadixHit, seq->request.id,
                           seq->kv->prefix_rows());
        }
      } else {
        if (seq->kv) {
          if (!pool_->can_resume(*seq->kv, replay_rows, headroom())) break;
          pool_->resume(*seq->kv);
        } else {
          // Evicted while parked: the cross share was dropped, so this is a
          // full re-admission (the server re-encodes unless the prompt is
          // resident again through another sequence). The replay must fit
          // here too, or the paid-for encoder pass just thrashes out.
          if (!pool_->can_readmit_now(seq->request.src_tokens, replay_rows,
                                      headroom())) {
            break;
          }
          seq->kv = pool_->admit(seq->request.id, seq->request.src_tokens,
                                 seq->request.max_new_tokens);
        }
        // Restart the decode cursor; steps [0, replay) re-derive the parked
        // tokens bit-identically and are not streamed again.
        seq->step = 0;
        seq->last_token = seq->request.bos_id;
        seq->replay = static_cast<int>(seq->tokens.size());
      }
      ++total_resumed_;
      if (tracing() && seq->park_ticks != 0) {
        // The resume span covers the whole parked interval; its token count
        // is the replay bill the preemption incurred.
        tracer_->span(obs::SpanKind::kResume, seq->park_ticks,
                      obs::now_ticks(), seq->request.id, /*batch=*/0,
                      seq->replay);
        seq->park_ticks = 0;
      }
      max_ctx = std::max(max_ctx,
                         static_cast<int>(seq->request.src_tokens.size()) +
                             seq->request.max_new_tokens);
      admitted.push_back(seq);
      active_.push_back(std::move(requeued_.front()));
      requeued_.pop_front();
    }

    // Fresh FIFO admissions — only once nothing older is waiting to
    // resume, so requeued sequences cannot be starved by new arrivals.
    while (requeued_.empty() && !queue_.empty() &&
           static_cast<int>(active_.size()) < options_.max_active) {
      const serving::GenerationRequest& head = queue_.front();
      // Charge only the request's *unshared* current demand: when its
      // prompt is already resident in the pool, the cross blocks are
      // mapped to the live share (counted once however many sequences read
      // them). The plan (radix prefix for causal, prompt share for
      // seq2seq) is resolved once and threaded into the admit — plan and
      // gate see the same snapshot.
      KvCachePool::CausalPlan causal_plan;
      KvCachePool::SharePlan share_plan;
      bool fits;
      if (options_.causal_lm) {
        causal_plan = pool_->plan_causal(head.src_tokens);
        fits = pool_->can_admit_causal_now(causal_plan, headroom());
      } else {
        share_plan = pool_->plan_share(head.src_tokens);
        fits = pool_->can_admit_now(head.src_tokens, share_plan, headroom());
      }
      if (!fits) break;
      if (cost_blocks(head)) break;

      auto seq = std::make_unique<ActiveSequence>();
      seq->request = std::move(queue_.front());
      queue_.pop_front();
      if (options_.causal_lm) {
        seq->kv = pool_->admit_causal(seq->request.id, seq->request.src_tokens,
                                      seq->request.max_new_tokens, causal_plan);
        // Prefill cursor: start behind the adopted radix prefix, feeding
        // the first prompt token the cache does not already back.
        seq->step = seq->kv->prefix_rows();
        seq->last_token = seq->request.src_tokens[seq->step];
        if (tracing() && seq->kv->prefix_rows() > 0) {
          tracer_->instant(obs::SpanKind::kRadixHit, seq->request.id,
                           seq->kv->prefix_rows());
        }
      } else {
        // Prompt-keyed admission: identical prompts share cross blocks, and
        // the server skips re-encoding when kv->needs_cross_init() is false.
        seq->kv = pool_->admit(seq->request.id, seq->request.src_tokens,
                               seq->request.max_new_tokens, share_plan);
        seq->last_token = seq->request.bos_id;
      }
      seq->admit_s = now_s;
      seq->admit_order = admit_stamp_++;
      ++total_admitted_;
      max_ctx = std::max(max_ctx,
                         static_cast<int>(seq->request.src_tokens.size()) +
                             seq->request.max_new_tokens);
      admitted.push_back(seq.get());
      active_.push_back(std::move(seq));
    }

    // Progress guard: nothing is running, work remains, and the loops
    // above admitted no one — parked cross shares are hogging the pool.
    // Evict one and retry; validate() guarantees this converges.
    if (active_.empty() && !idle()) {
      if (evict_one_parked()) continue;
      // Nothing left to free locally. If sibling pools' borrowing has
      // shrunk this pool below its ceiling, the refusal is external
      // starvation, not a wedge: stall this iteration and let the shared
      // budget's owner reclaim (MultiModelGenerationServer sees
      // admission_blocked() and sheds a borrower).
      if (pool_->capacity_borrowed_elsewhere()) break;
      TT_CHECK_MSG(false, "generation scheduler wedged: empty pool refuses "
                          "every admission");
    }
    break;
  }
  return admitted;
}

bool GenerationScheduler::outranks(const ActiveSequence& a,
                                   const ActiveSequence& b) const {
  if (options_.victim_policy ==
          GenSchedulerOptions::VictimPolicy::kLowestPriority &&
      a.request.priority != b.request.priority) {
    return a.request.priority > b.request.priority;
  }
  // Admission order breaks every remaining tie, making the order strict
  // and total — the progress guarantee needs exactly that.
  return a.admit_order < b.admit_order;
}

ActiveSequence* GenerationScheduler::pick_victim(
    const ActiveSequence& requester) {
  // The lowest-ranked eligible sequence loses (for kMostRecentlyAdmitted
  // that is the newest admission; for kLowestPriority the weakest
  // priority).
  ActiveSequence* victim = nullptr;
  for (const auto& seq : active_) {
    if (seq.get() == &requester) continue;
    // A sequence whose deferred encode has not run yet cannot park: the
    // pool's preempt() would wedge its cross share (no one left to
    // encode). It becomes eligible once the encode job completes.
    if (seq->kv && seq->kv->needs_cross_init()) continue;
    if (!outranks(requester, *seq)) continue;
    if (victim == nullptr || outranks(*victim, *seq)) victim = seq.get();
  }
  return victim;
}

void GenerationScheduler::park(ActiveSequence* seq, StepPlan* plan) {
  // A sequence still owing its cross share the encoder pass cannot park in
  // the pool (the share would wedge). Holding the share alone, it gives up
  // its whole admission instead: the share dies with the handle, and the
  // sequence requeues exactly like an evicted one (re-encoded on resume).
  const bool unencoded = seq->kv->needs_cross_init();
  if (unencoded) {
    TT_CHECK(!seq->kv->cross_shared());
    seq->kv.reset();
    ++total_evicted_;
  } else {
    pool_->preempt(*seq->kv);
  }
  ++seq->preempt_count;
  ++total_preempted_;
  if (tracing()) {
    seq->park_ticks = obs::now_ticks();
    tracer_->instant(obs::SpanKind::kPreempt, seq->request.id,
                     static_cast<int32_t>(seq->tokens.size()));
    if (unencoded) tracer_->instant(obs::SpanKind::kEvict, seq->request.id);
  }
  if (plan) {
    auto& stepping = plan->stepping;
    stepping.erase(std::remove(stepping.begin(), stepping.end(), seq),
                   stepping.end());
    auto& encode = plan->encode;
    encode.erase(std::remove(encode.begin(), encode.end(), seq),
                 encode.end());
  }
  for (auto it = active_.begin(); it != active_.end(); ++it) {
    if (it->get() == seq) {
      requeued_.push_back(std::move(*it));
      active_.erase(it);
      return;
    }
  }
  TT_CHECK_MSG(false, "parked sequence " << seq->request.id
                                         << " not in the active set");
}

bool GenerationScheduler::evict_one_parked() {
  // Evict back-to-front: the most recently preempted sequence resumes
  // last, so it has the longest to wait for a fresh encoder pass anyway.
  // Prefer a handle whose cross share is not co-held — releasing a shared
  // one frees nothing while still costing that sequence a re-encode.
  for (const bool require_exclusive : {true, false}) {
    for (auto it = requeued_.rbegin(); it != requeued_.rend(); ++it) {
      if (!(*it)->kv) continue;
      if (require_exclusive && (*it)->kv->cross_shared()) continue;
      (*it)->kv.reset();  // releases the cross share back to the pool
      ++total_evicted_;
      if (tracing()) {
        tracer_->instant(obs::SpanKind::kEvict, (*it)->request.id);
      }
      return true;
    }
  }
  return false;
}

int GenerationScheduler::known_rows(const ActiveSequence& seq) const {
  // Fed tokens already determined: a causal sequence feeds its whole
  // prompt then every generated token; a seq2seq sequence feeds BOS then
  // every generated token. Rows [0, seq.step) are written, so the
  // remainder can run without sampling. Decode-ready sequences are
  // exactly the known_rows == 1 case (the freshly sampled last_token).
  const size_t total = options_.causal_lm
                           ? seq.request.src_tokens.size() + seq.tokens.size()
                           : 1 + seq.tokens.size();
  return static_cast<int>(total) - seq.step;
}

GenerationScheduler::StepPlan GenerationScheduler::prepare_step() {
  ++step_iter_;
  StepPlan plan;
  const int chunk = options_.prefill_chunk_tokens > 0
                        ? options_.prefill_chunk_tokens
                        : pool_->options().block_tokens;
  int budget = options_.step_token_quantum;

  // Rotation order: least recently stepped first (admission order breaks
  // ties). A sequence passed over keeps its old stamp and moves to the
  // front next step, so every active sequence gets a pass-0 row at least
  // once every ceil(active / quantum) steps — the decode starvation
  // bound.
  std::vector<ActiveSequence*> order;
  order.reserve(active_.size());
  for (const auto& seq : active_) order.push_back(seq.get());
  std::sort(order.begin(), order.end(),
            [](const ActiveSequence* a, const ActiveSequence* b) {
              if (a->last_step_iter != b->last_step_iter) {
                return a->last_step_iter < b->last_step_iter;
              }
              return a->admit_order < b->admit_order;
            });

  // Pass 0: whole-prompt encode jobs and one row per sequence. The first
  // row climbs the grow-or-preempt ladder (decode progress is worth
  // preempting for): a victim this grower outranks goes first, then parked
  // cross shares, and when neither exists the grower itself yields to the
  // sequences above it. Chunk extensions below never preempt.
  for (ActiveSequence* seq : order) {
    if (budget <= 0) break;
    if (!seq->kv || seq->kv->parked()) continue;  // victimized this call
    if (seq->kv->needs_cross_init()) {
      // Deferred seq2seq encode: indivisible (the encoder is
      // bidirectional), charged at its source length. When it cannot fit
      // the remaining budget it runs anyway if the step would otherwise
      // be empty — a prompt longer than the whole quantum must still
      // encode exactly once (progress), flagged as overflow.
      const int src = seq->kv->src_len();
      if (src <= budget) {
        budget -= src;
      } else if (plan.empty()) {
        budget = 0;
        plan.quantum_overflow = true;
      } else {
        continue;  // retry next step, from the front of the rotation
      }
      plan.encode.push_back(seq);
      plan.quantum_charged += src;
      seq->last_step_iter = step_iter_;
      continue;  // decode rows start the step after the encode ran
    }
    // A follower of a share whose creator has not encoded yet has no
    // cross K/V to read; it joins once the pending encode job completes.
    if (!seq->kv->cross_ready()) continue;
    bool backed = false;
    for (;;) {
      if (pool_->try_ensure_token(*seq->kv, seq->step)) {
        backed = true;
        break;
      }
      if (ActiveSequence* victim = pick_victim(*seq)) {
        park(victim, &plan);
        continue;
      }
      if (evict_one_parked()) continue;
      park(seq, &plan);
      break;
    }
    if (!backed) continue;
    seq->step_tokens = 1;
    seq->last_step_iter = step_iter_;
    plan.stepping.push_back(seq);
    --budget;
    ++plan.quantum_charged;
  }

  // Extension rounds: deepen prefill/replay chunks round-robin while the
  // budget lasts, up to `chunk` rows per sequence per round so one long
  // prompt cannot monopolize the quantum. Each extra row is backed
  // individually (a chunk may span several blocks); on exhaustion the
  // chunk simply stays short — extensions are opportunistic and never
  // preempt. The cost gate prices the fused step at its grown row count
  // and stops extending once the predicted latency would exceed
  // max_step_cost_ms.
  const auto cost_capped = [&](int rows_after, int ctx_after) {
    if (options_.max_step_cost_ms <= 0.0) return false;
    return predicted_step_cost_ms(ctx_after, rows_after) >
           options_.max_step_cost_ms;
  };
  const auto seq_ctx = [&](const ActiveSequence& seq) {
    return static_cast<int>(options_.causal_lm
                                ? 0
                                : seq.request.src_tokens.size()) +
           seq.step + seq.step_tokens;
  };
  int max_ctx = 1;
  for (const ActiveSequence* seq : plan.stepping) {
    max_ctx = std::max(max_ctx, seq_ctx(*seq));
  }
  bool extended = true;
  bool capped = false;
  while (budget > 0 && extended && !capped) {
    extended = false;
    for (ActiveSequence* seq : plan.stepping) {
      if (budget <= 0 || capped) break;
      const int pending = known_rows(*seq) - seq->step_tokens;
      const int take = std::min({chunk, pending, budget});
      for (int i = 0; i < take; ++i) {
        const int ctx_after = std::max(max_ctx, seq_ctx(*seq) + 1);
        if (cost_capped(plan.quantum_charged + 1, ctx_after)) {
          capped = true;
          break;
        }
        if (!pool_->try_ensure_token(*seq->kv, seq->step + seq->step_tokens)) {
          break;  // shrink on exhaustion; pass-0 rows already made progress
        }
        ++seq->step_tokens;
        --budget;
        ++plan.quantum_charged;
        max_ctx = ctx_after;
        extended = true;
      }
    }
  }
  return plan;
}

bool GenerationScheduler::admission_blocked() const {
  if (static_cast<int>(active_.size()) >= options_.max_active) return false;
  const size_t headroom = pool_->blocks_per_boundary() * active_.size();
  if (!requeued_.empty()) {
    // Mirror admit()'s resume gate: the front of the requeue queue goes
    // first, replay-sized.
    const ActiveSequence& seq = *requeued_.front();
    const int replay_rows = static_cast<int>(seq.tokens.size()) + 1;
    if (options_.causal_lm) {
      const std::vector<int> fed = fed_tokens(seq);
      const int fed_rows = static_cast<int>(fed.size()) + 1;
      const auto plan = pool_->plan_causal(fed);
      if (seq.kv) {
        return !pool_->can_resume_causal(*seq.kv, plan, fed_rows, headroom);
      }
      return !pool_->can_readmit_causal_now(plan, fed_rows, headroom);
    }
    if (seq.kv) return !pool_->can_resume(*seq.kv, replay_rows, headroom);
    return !pool_->can_readmit_now(seq.request.src_tokens, replay_rows,
                                   headroom);
  }
  if (!queue_.empty()) {
    const serving::GenerationRequest& head = queue_.front();
    if (options_.causal_lm) {
      return !pool_->can_admit_causal_now(pool_->plan_causal(head.src_tokens),
                                          headroom);
    }
    return !pool_->can_admit_now(head.src_tokens, headroom);
  }
  return false;
}

size_t GenerationScheduler::admission_demand_blocks() const {
  const size_t headroom = pool_->blocks_per_boundary() * active_.size();
  const size_t bt = static_cast<size_t>(pool_->options().block_tokens);
  if (!requeued_.empty()) {
    const ActiveSequence& seq = *requeued_.front();
    if (options_.causal_lm) {
      // Rows the resume must materialize beyond the adopted radix prefix,
      // plus the chain blocks adoption moves out of the evictable tier.
      const std::vector<int> fed = fed_tokens(seq);
      const auto plan = pool_->plan_causal(fed);
      const size_t rows = fed.size() + 1 - static_cast<size_t>(plan.prefix_rows);
      return pool_->blocks_for_causal_now(plan) +
             pool_->blocks_per_boundary() * ((rows + bt - 1) / bt - 1) +
             headroom;
    }
    const size_t rows = seq.tokens.size() + 1;
    const size_t replay = pool_->blocks_per_boundary() * ((rows + bt - 1) / bt);
    if (seq.kv) return replay + headroom;  // cross share still resident
    // Evicted: a full re-admission plus the replay rows beyond the first
    // self block blocks_for_admit_now already counts.
    return pool_->blocks_for_admit_now(seq.request.src_tokens) + replay -
           pool_->blocks_per_boundary() + headroom;
  }
  if (!queue_.empty()) {
    if (options_.causal_lm) {
      const auto plan = pool_->plan_causal(queue_.front().src_tokens);
      return pool_->blocks_for_causal_now(plan) + headroom;
    }
    return pool_->blocks_for_admit_now(queue_.front().src_tokens) + headroom;
  }
  return 0;
}

size_t GenerationScheduler::admission_demand_bytes() const {
  return admission_demand_blocks() * pool_->block_bytes();
}

ActiveSequence* GenerationScheduler::shed_victim(bool pending_encode) const {
  ActiveSequence* victim = nullptr;
  for (const auto& seq : active_) {
    if (!seq->kv || seq->kv->parked()) continue;
    if (seq->kv->needs_cross_init() != pending_encode) continue;
    // Followers sharing a pending prompt would wait on an encode no one
    // owes once its creator drops its admission.
    if (pending_encode && seq->kv->cross_shared()) continue;
    if (victim == nullptr || outranks(*victim, *seq)) victim = seq.get();
  }
  return victim;
}

size_t GenerationScheduler::shed(size_t bytes) {
  const size_t before = pool_->stats().current_device_bytes;
  const auto freed = [&] {
    return before - pool_->stats().current_device_bytes;
  };
  // The radix cache tier goes first: it is exactly the memory that costs
  // no running sequence anything to lose (only future prefix hits).
  if (freed() < bytes) pool_->drop_radix_cache();
  while (freed() < bytes) {
    // Lowest-ranked preemptible sequence loses, same strict order the
    // internal grow-or-preempt path uses; then parked cross shares go.
    if (ActiveSequence* victim = shed_victim(/*pending_encode=*/false)) {
      park(victim, nullptr);
      continue;
    }
    if (evict_one_parked()) continue;
    // Last resort: a sequence whose encode job is still pending (park()
    // drops its whole admission). Without this the reclaim livelocks when
    // two admits' encode jobs alternate across steps: each shed parks the
    // one that has just encoded, frees no slab, and neither ever decodes.
    if (ActiveSequence* victim = shed_victim(/*pending_encode=*/true)) {
      park(victim, nullptr);
      continue;
    }
    break;
  }
  return freed();
}

std::vector<std::unique_ptr<ActiveSequence>>
GenerationScheduler::retire_finished() {
  std::vector<std::unique_ptr<ActiveSequence>> retired;
  for (auto& seq : active_) {
    if (seq->finished) {
      if (options_.causal_lm && seq->kv && !seq->kv->parked()) {
        // Donate the retiring sequence's materialized self rows to the
        // radix tier: whole blocks of fed tokens it actually wrote (steps
        // executed = rows [0, step)), so later turns of this conversation —
        // and siblings sharing its prompt prefix — skip the recompute.
        std::vector<int> fed = fed_tokens(*seq);
        if (static_cast<size_t>(seq->step) < fed.size()) {
          fed.resize(static_cast<size_t>(seq->step));
        }
        pool_->donate_radix(*seq->kv, fed);
      }
      seq->kv.reset();  // KV blocks return to the pool immediately
      ++total_retired_;
      retired.push_back(std::move(seq));
    }
  }
  std::erase_if(active_,
                [](const std::unique_ptr<ActiveSequence>& s) { return !s; });
  return retired;
}

}  // namespace turbo::genserve
