// Iteration-level batch scheduler for generation serving.
//
// The paper's DP scheduler (§5) partitions a queue snapshot into whole
// batches: every member enters and leaves together, so a short sequence
// waits for the longest one in its batch. Generation makes that untenable —
// output lengths differ and are unknown up front. This scheduler re-forms
// the active batch every decode step instead: finished sequences retire
// (their KV blocks return to the pool immediately) and queued sequences are
// admitted into the freed capacity, keeping the step batch full.
//
// Admission is gated on two resources:
//  * KV pool capacity — a sequence joins when its *current* marginal demand
//    fits (cold cross blocks plus one self block per layer; a request whose
//    prompt is already resident shares those cross blocks, charged once for
//    the whole group). Worst cases may oversubscribe the pool: when a
//    running sequence's growth finds the pool exhausted the scheduler
//    preempts a victim (VictimPolicy): the victim's unshared blocks
//    return to the pool, its generated tokens are parked, and it is
//    requeued to resume by replaying those tokens from its still-resident
//    cross blocks (no re-encode). Preemption only ever flows down the
//    priority order, so the strongest sequence always runs to completion —
//    no livelock;
//  * the cost table — the predicted fused-step latency at the grown batch
//    size must stay under `max_step_cost_ms` (the same cached_cost
//    dictionary the §5 DP consults, applied per iteration instead of per
//    queue snapshot; the server feeds measured fused-step latencies back
//    through CostTable::observe, so the gate tracks real costs instead of
//    the analytic warm-up).
//
// Each step is one token quantum: decode rows, prefill/replay chunk rows
// and deferred whole-prompt encode jobs packed under step_token_quantum.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <vector>

#include "genserve/kv_cache_pool.h"
#include "obs/trace.h"
#include "serving/cost_table.h"
#include "serving/request.h"

namespace turbo::genserve {

// One admitted, still-decoding sequence.
struct ActiveSequence {
  serving::GenerationRequest request;
  std::unique_ptr<SequenceKv> kv;  // null while evicted (cross share dropped)
  std::vector<int> tokens;   // generated so far (excluding BOS/EOS)
  int last_token = 0;        // token to feed at the next step
  int step = 0;              // next decode position
  // Steps [0, replay) after a resume re-derive already-parked tokens: the
  // decoder rebuilds the self K/V rows bit-identically (cross K/V never
  // changed), the server asserts each replayed argmax matches the parked
  // token and must not stream it again.
  int replay = 0;
  bool finished = false;
  bool hit_max_len = false;
  double admit_s = 0.0;      // first admission (latency includes requeues)
  int64_t admit_order = 0;   // first-admission stamp, stable across requeues
  int preempt_count = 0;     // times this sequence was preempted
  uint64_t park_ticks = 0;   // when last parked (tracing only; 0 = never)
  // Rows this sequence runs in the next fused step: rows [step, step +
  // step_tokens), each fed an already-known token. 1 for a decode-ready
  // sequence; larger while a prefill or replay chunk is scheduled under
  // the token quantum. Written by prepare_step, consumed by the server.
  int step_tokens = 1;
  // Iteration stamp of the last step that ran this sequence: the quantum
  // allocator serves least-recently-stepped first, which is what bounds
  // decode starvation under long prefills.
  int64_t last_step_iter = -1;
};

struct GenSchedulerOptions {
  // How the pool-exhausted victim is chosen among sequences the requester
  // outranks (preemption never flows up the priority order).
  enum class VictimPolicy {
    kMostRecentlyAdmitted,  // LIFO: newest admission loses first
    kLowestPriority,        // request.priority, ties by admission order
  };
  int max_active = 8;             // step-batch size cap
  double max_step_cost_ms = 0.0;  // predicted step latency cap; 0 = off
  // Token-quantum budget of one fused step (>= 1). prepare_step assembles
  // a mixed batch of decode rows plus as many pending prefill/replay chunk
  // rows as fit the quantum: every active sequence in rotation order first
  // gets one row (decode progress), then sequences with known-but-unfed
  // tokens (causal prompts mid-prefill, parked tokens replaying after a
  // resume) are deepened chunk-wise until the budget — or the cost gate —
  // runs out. Seq2seq prompt encodes cannot be split numerically (the
  // encoder is bidirectional), so they are scheduled as whole deferred jobs
  // charged src_len tokens against the same quantum; one may overflow the
  // budget only when the step would otherwise be empty (progress
  // guarantee), flagged in StepPlan::quantum_overflow. A quantum of 1 feeds
  // one row per step.
  int step_token_quantum = 64;
  // Max rows one sequence's prefill/replay advances per extension round
  // (0 = the pool's block_tokens). Bounds how much of the quantum a single
  // long prompt can claim before the round-robin moves on.
  int prefill_chunk_tokens = 0;
  // Decoder-only serving: requests are causal-LM prompts prefilled through
  // the decode loop. Admission goes through the pool's radix-aware causal
  // path (admit_causal / resume_causal), a (re)admitted sequence starts at
  // step kv->prefix_rows() instead of 0, and retiring sequences donate
  // their block-aligned fed history to the radix cache tier.
  bool causal_lm = false;
  VictimPolicy victim_policy = VictimPolicy::kMostRecentlyAdmitted;
};

// Ownership: borrows the pool and cost table (both must outlive it); owns
// the pending queue, the requeue queue and every ActiveSequence — including
// each sequence's SequenceKv, which it releases back to the pool on retire.
// Thread-safety: externally synchronized, same single consumer as the
// pool (the server's step loop). validate() is the exception: it reads
// only immutable pool geometry and request fields, so any thread may call
// it.
// Invariants: every enqueued request is admitted exactly once, FIFO, and
// retired exactly once (requeues resume, they do not re-admit);
// active() <= max_active; blocks_in_use never exceeds capacity
// (prepare_step preempts instead); once idle(), total_enqueued ==
// total_admitted == total_retired.
class GenerationScheduler {
 public:
  // `pool` and `costs` are borrowed; both must outlive the scheduler.
  GenerationScheduler(KvCachePool* pool, const serving::CostTable* costs,
                      GenSchedulerOptions options = {});

  // Throws CheckError if the request is malformed or its worst-case KV
  // demand exceeds the whole pool (it could never be admitted — and this
  // cap is also what guarantees the strongest sequence can always preempt
  // its way to completion). Reads only immutable pool geometry, so it is
  // safe from any thread.
  void validate(const serving::GenerationRequest& request) const;

  void enqueue(serving::GenerationRequest request);

  // Borrowed recording handle (the owning server's; may be disabled). The
  // scheduler emits the sequence-lifecycle events only it can see: preempt
  // (victim parked), resume (parked -> re-admitted, with the replay bill),
  // evict (parked cross share dropped).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  size_t pending() const { return queue_.size(); }
  size_t active() const { return active_.size(); }
  size_t requeued() const { return requeued_.size(); }
  bool idle() const {
    return queue_.empty() && active_.empty() && requeued_.empty();
  }

  // Iteration-level batch formation. Requeued (preempted) sequences resume
  // first — they are older than anything pending, and their cross blocks
  // are already resident — then queued requests join in FIFO order, while
  // the pool admits their current demand, max_active allows, and the cost
  // table predicts the grown step under budget. Returns every sequence
  // that (re)joined; those with kv->needs_cross_init() owe an encode job,
  // which prepare_step schedules; resumed ones carry replay > 0 and
  // re-derive instead of streaming.
  std::vector<ActiveSequence*> admit(double now_s);

  // One iteration's worth of work, as assembled by prepare_step.
  struct StepPlan {
    // Sequences that run decoder rows this step; each runs rows
    // [seq->step, seq->step + seq->step_tokens), every row backed by a
    // pool block.
    std::vector<ActiveSequence*> stepping;
    // Deferred seq2seq encode jobs: run the encoder over each sequence's
    // source (one forward per sequence — padding-free) and
    // mark_cross_ready before the decode rows of the NEXT step may touch
    // it.
    std::vector<ActiveSequence*> encode;
    // Token rows charged against the quantum this step: one per decode /
    // prefill / replay row plus src_len per encode job.
    int quantum_charged = 0;
    // True when a whole-prompt encode job exceeded the remaining budget
    // but ran anyway because the step would otherwise have been empty.
    bool quantum_overflow = false;
    bool empty() const { return stepping.empty() && encode.empty(); }
  };

  // Growth phase of one iteration: pack deferred encode jobs, one row per
  // sequence and prefill/replay chunks under the token budget (see
  // GenSchedulerOptions::step_token_quantum), backing the self rows every
  // scheduled sequence will write and preempting victims when the pool is
  // exhausted. A sequence may be parked this call, either as a victim or
  // by yielding to a higher-priority grower.
  StepPlan prepare_step();

  const std::vector<std::unique_ptr<ActiveSequence>>& active_set() const {
    return active_;
  }

  // Remove sequences marked finished from the active set, releasing their
  // KV blocks back to the pool. Returns them for response assembly.
  std::vector<std::unique_ptr<ActiveSequence>> retire_finished();

  // True when admission is currently blocked on pool capacity: work is
  // waiting (requeued or queued) and the pool cannot take the next
  // candidate even at its current marginal demand. The multi-model budget
  // owner polls this to decide when to reclaim borrowed bytes from sibling
  // pools; false when the only brake is max_active or the cost gate.
  bool admission_blocked() const;

  // Forced preemption for cross-pool budget reclaim: park lowest-ranked
  // active sequences (then evict parked cross shares, then drop the
  // admissions of sequences whose encode job is still pending) until the
  // pool's footprint has dropped by at least `bytes`, or nothing
  // preemptible remains. The parked sequences take the ordinary
  // preempt-and-requeue path — they resume and replay bit-identically once
  // capacity returns. Returns the bytes actually freed — quantized to
  // whole slabs, so possibly more than asked.
  size_t shed(size_t bytes);

  // Blocks the front waiting candidate needs materialized to (re)join
  // right now, growth headroom included; 0 when nothing waits. The budget
  // owner sizes reclaims with this, so a lightly loaded model claws back
  // only what its demand justifies, not its whole guarantee.
  size_t admission_demand_blocks() const;
  // The same demand in bytes — what the multi-model reclaim path consumes
  // (it quantizes to the pool's reclaim grain, not to slabs).
  size_t admission_demand_bytes() const;

  // Lifetime counters (scheduler invariants: admitted == retired once
  // idle, and every enqueued request is admitted exactly once).
  size_t total_enqueued() const { return total_enqueued_; }
  size_t total_admitted() const { return total_admitted_; }
  size_t total_retired() const { return total_retired_; }
  // Preemption activity: preemptions park a victim's tokens and requeue
  // it; resumes re-admit from the requeue queue; evictions additionally
  // dropped a parked sequence's cross share (it must re-encode on resume).
  size_t total_preempted() const { return total_preempted_; }
  size_t total_resumed() const { return total_resumed_; }
  size_t total_evicted() const { return total_evicted_; }

 private:
  // Predicted fused-step cost at batch size `batch` with `max_ctx` the
  // longest active context (source + generated tokens).
  double predicted_step_cost_ms(int max_ctx, int batch) const;
  // Strict total order for preemption: true when `a` is safer than `b`.
  bool outranks(const ActiveSequence& a, const ActiveSequence& b) const;
  // Victim among active sequences the requester outranks; null when none.
  // Sequences still owing their share a deferred encoder pass are never
  // eligible (the pool cannot park them without wedging the share).
  ActiveSequence* pick_victim(const ActiveSequence& requester);
  // Preempt `seq`: park its tokens, move it to the requeue queue, and drop
  // it from `plan` if it had already been scheduled this iteration. A
  // sequence whose encode job is pending (it must hold its share alone)
  // drops its whole admission and requeues as if evicted.
  void park(ActiveSequence* seq, StepPlan* plan);
  // shed()'s victim: the lowest-ranked active sequence among those whose
  // encode job is done (pending_encode false) or still pending and owed to
  // no follower (true); null when there is none.
  ActiveSequence* shed_victim(bool pending_encode) const;
  // Drop the cross share of the most recently preempted parked sequence
  // (it will re-encode on resume). Last-resort capacity relief.
  bool evict_one_parked();

  // True when a tracer is attached and recording (one-branch gate).
  bool tracing() const { return tracer_ != nullptr && tracer_->enabled(); }

  // Fed-token history of a causal sequence: prompt then generated tokens —
  // the radix planning/donation key.
  static std::vector<int> fed_tokens(const ActiveSequence& seq);

  // Rows of `seq` whose fed token is already known, counted from
  // seq.step: 1 for a decode-ready sequence (the freshly sampled token),
  // more while a causal prompt is still prefilling or parked tokens are
  // replaying after a resume. The quantum allocator may schedule up to
  // this many rows in one step without sampling anything.
  int known_rows(const ActiveSequence& seq) const;

  KvCachePool* pool_;
  const serving::CostTable* costs_;
  GenSchedulerOptions options_;
  obs::Tracer* tracer_ = nullptr;  // borrowed from the owning server
  std::deque<serving::GenerationRequest> queue_;
  std::vector<std::unique_ptr<ActiveSequence>> active_;
  // Preempted sequences awaiting re-admission, oldest first.
  std::deque<std::unique_ptr<ActiveSequence>> requeued_;
  int64_t admit_stamp_ = 0;
  int64_t step_iter_ = 0;  // prepare_step invocations (rotation clock)
  size_t total_enqueued_ = 0;
  size_t total_admitted_ = 0;
  size_t total_retired_ = 0;
  size_t total_preempted_ = 0;
  size_t total_resumed_ = 0;
  size_t total_evicted_ = 0;
};

}  // namespace turbo::genserve
