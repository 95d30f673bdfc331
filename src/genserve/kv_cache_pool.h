// Slab-based K/V block pool for generation serving, with refcounted blocks
// and prompt-prefix sharing.
//
// The paper's model-aware allocator (§4.2) plans tensors whose lifetimes
// close within one inference. Decoder K/V caches break that assumption:
// they are born when a sequence is admitted, grow by one token row per
// decode step, and die at EOS — lifetimes spanning many inferences, unknown
// in advance. This pool extends the paper's chunked design to that regime:
//
//  * Storage is carved from slabs (AlignedBuffer chunks, the same device-
//    allocation stand-in the §4.2 allocator uses) split into fixed-size
//    blocks. A block holds `block_tokens` K rows followed by `block_tokens`
//    V rows of one layer ([heads * head_dim] floats each).
//  * Every block carries a refcount. The generation-side analogue of the
//    allocator's cross-tensor chunk sharing is cross-*sequence* block
//    sharing: token histories that overlap map to the same physical blocks.
//  * Prefix sharing: admit() takes the prompt token ids as the sharing key.
//    A sequence whose prompt matches a live admitted prompt maps its
//    cross-attention blocks to the existing physical blocks (refcount++
//    instead of allocate) and skips re-encoding — the server asks
//    needs_cross_init() before running the encoder. The match is on the
//    *full* prompt: the encoder is bidirectional, so the cross K/V of every
//    source position depends on the whole sentence; sharing a shorter
//    common prefix would change numerics. Block-granular prefix reuse is
//    what the radix tier provides on the causal self side, where causal
//    masking makes it exact.
//  * Admission is on *current* demand: admit() joins a sequence when its
//    marginal blocks right now fit (cold cross blocks + one self block per
//    layer). Growth goes through try_ensure_token(), which reports
//    exhaustion instead of allocating past capacity; the scheduler reacts
//    by preempting a victim — preempt() releases the victim's self blocks
//    back to the free list but keeps its cross share resident (parked), so
//    resume() re-admits without re-encoding and the victim re-derives its
//    self rows by replaying its own generated tokens.
//  * Release drops refcounts; a block returns to the free list only when
//    its last owner releases, and slabs that became empty free their
//    buffers, so the device footprint tracks the unique working set — the
//    decoder-side analogue of the paper's Fig. 11 behaviour.
//
// Footprint accounting reuses memory::DeviceTracker, making pool stats
// directly comparable with the ModelAwareAllocator's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/aligned_buffer.h"
#include "genserve/radix_tree.h"
#include "memory/allocator.h"
#include "memory/slab_budget.h"
#include "model/config.h"
#include "model/decoder.h"

namespace turbo::genserve {

struct KvPoolOptions {
  int block_tokens = 16;    // token rows per block (per layer, K + V)
  int blocks_per_slab = 32; // blocks per device slab
  size_t max_bytes = 0;     // cap on slab footprint; 0 = unbounded
  // When false, admit() never matches prompts: every sequence gets private
  // cross blocks. The reference arm of
  // GenerationServer.PrefixSharingDoesNotChangeOutputs.
  bool enable_prefix_sharing = true;
  // When false, plan_causal() never matches and retiring causal sequences
  // donate nothing: causal admits behave like exact-match-only sharing
  // (i.e. no sharing at all, since every turn's prompt differs). Seq2seq
  // paths ignore it. The reference arm of the GenerationServer tests
  // DecoderOnlyRadixSharingDoesNotChangeOutputs and
  // RadixTierMoreThanDoublesWarmTurnConcurrency.
  bool enable_radix_tree = true;
  // Test hooks: override the prompt hash (find_share collision regression)
  // and the radix chunk hash (forced-collision tree tests). Empty = FNV-1a.
  std::function<uint64_t(const std::vector<int>&)> prompt_hash_override;
  std::function<uint64_t(const int*, int)> chunk_hash_override;
  // Shared cross-pool byte budget (multi-model serving). When set, every
  // slab malloc/free is charged against it, and the pool's effective
  // capacity becomes dynamic: max_blocks() counts the budget's free
  // headroom as this pool's, so a busy model borrows slabs an idle one is
  // not using. Borrowed pointer; must outlive the pool. The pool registers
  // itself as a budget client on construction (under `budget_client_name`,
  // with `budget_guarantee_bytes` as its reclaim floor) and unregisters on
  // destruction.
  //
  // Capacity under a shared budget can shrink *between* a sequence's
  // admission and its growth (another pool borrows the headroom); the
  // scheduler's try_ensure_token + preemption path absorbs it.
  memory::SlabBudget* slab_budget = nullptr;
  std::string budget_client_name;
  size_t budget_guarantee_bytes = 0;
};

class KvCachePool;

// Per-sequence K/V handle; implements the decoder's cache interface over
// pool blocks. Created by KvCachePool::admit or admit_causal, auto-released
// on destruction.
//
// Ownership: move-only handle returned by the pool; destroying it releases
// every block reference it holds. The pool must outlive all of its
// SequenceKv handles (the pool destructor checks this).
// Thread-safety: not thread-safe; a sequence belongs to whichever single
// thread is decoding it, and all of a pool's sequences must be driven from
// the pool's owning thread (see KvCachePool).
// Invariants: row accessors and extents only cover positions already
// materialized — cross rows exist from admit, self row t after
// try_ensure_token(t). The block receiving row t is exclusively owned
// (try_ensure_token checks it); the accessors themselves stay branch-free
// by contract.
class SequenceKv final : public model::KvCacheView {
 public:
  ~SequenceKv() override;
  SequenceKv(const SequenceKv&) = delete;
  SequenceKv& operator=(const SequenceKv&) = delete;

  int64_t id() const { return id_; }
  int src_len() const override { return s_src_; }
  int max_new_tokens() const { return max_new_; }
  // Decoder-only sequence (admit_causal): s_src == 0, no cross K/V, and
  // max_new_tokens() counts *total* self rows (prompt + generation).
  bool causal() const { return causal_; }
  // Self rows [0, prefix_rows) adopted from the radix tier at admit or
  // resume — already materialized, must never be rewritten; the caller
  // starts decoding at step prefix_rows(). Always block-aligned.
  int prefix_rows() const { return prefix_rows_; }
  // True between KvCachePool::preempt and resume: the self blocks are
  // surrendered (row accessors must not be used) while the cross share
  // stays resident, so resume skips the encoder.
  bool parked() const { return parked_; }
  // Self token positions currently backed by blocks.
  int capacity_tokens() const;
  // Block references this sequence holds (self + cross); shared blocks are
  // counted by every holder, so this is not a unique-footprint measure.
  size_t blocks_held() const;

  // True for the sequence that must run the encoder and project cross K/V
  // (the first admit of its prompt); false when the blocks were shared from
  // a prompt whose creator already did or will do it this iteration.
  bool needs_cross_init() const;
  // True while another live sequence references the same cross share —
  // releasing this handle would then free no cross blocks. (The
  // scheduler's last-resort eviction prefers handles whose release
  // actually returns storage.)
  bool cross_shared() const;
  // True once the cross K/V this sequence reads are materialized: causal
  // sequences always (no cross side), sharing followers only after the
  // share's creator ran init_cross_attention + mark_cross_ready. With
  // deferred (quantum-scheduled) encoding a follower can be admitted before
  // its creator encoded; it must not step until this turns true.
  bool cross_ready() const;
  // Cross-block share this sequence references (empty for causal ones).
  // Two sequences with the same share id read the same cross K/V, so a
  // scheduler can tell whether a pending encode job unblocks a follower.
  int64_t share_id() const { return share_id_; }
  // The creator calls this after init_cross_attention so later admits of
  // the same prompt can skip straight to decoding.
  void mark_cross_ready();

  float* self_k(int layer, int t) override;
  float* self_v(int layer, int t) override;
  float* cross_k(int layer, int s) override;
  float* cross_v(int layer, int s) override;

  // Paged-attention geometry: one KvSpan per backing block, in token-
  // position order (block i covers rows [i*bt, (i+1)*bt); the last span is
  // truncated to `count` / src_len()). Works identically on shared blocks
  // (a prompt's cross share, an adopted radix prefix). Self extents require
  // try_ensure_token(count - 1) to have run; physical order of spans tracks
  // however the free list fragmented, which is invisible to the decoder.
  void self_extents(int layer, int count,
                    std::vector<model::KvSpan>& out) override;
  void cross_extents(int layer, std::vector<model::KvSpan>& out) override;

 private:
  friend class KvCachePool;
  SequenceKv(KvCachePool* pool, int64_t id, int s_src, int max_new_tokens);
  void block_extents(const std::vector<int>& blocks, int count,
                     std::vector<model::KvSpan>& out) const;

  KvCachePool* pool_;
  int64_t id_;
  int s_src_;
  int max_new_;
  bool released_ = false;
  bool parked_ = false;   // preempted: self blocks surrendered, share kept
  bool cross_creator_ = false;  // this admit owes the share its cross init
  bool causal_ = false;   // decoder-only: empty share, radix-shareable self
  int prefix_rows_ = 0;   // self rows adopted from the radix tier
  int64_t share_id_ = -1;  // cross-block share this sequence references
  // Pinned radix nodes backing self rows [0, prefix_rows_); node i's blocks
  // are this sequence's self blocks i (additionally refcounted per holder).
  std::vector<BlockRadixTree::Node*> radix_chain_;
  // [layer][i] -> global block id backing self rows [i*bt, (i+1)*bt).
  std::vector<std::vector<int>> self_blocks_;
};

// Ownership: owns all slabs, blocks and cross shares; hands out SequenceKv
// handles that reference (never own) block storage. Borrowed by
// GenerationScheduler and GenerationServer; must outlive every handle and
// borrower.
// Thread-safety: externally synchronized. All mutating calls (admit,
// try_ensure_token, sequence destruction) must come from one thread at a time
// — in the serving stack that is the async shell's worker. Only the
// immutable-geometry readers (block_bytes, blocks_for, max_blocks) are
// safe to call concurrently with mutation; they are what validate() uses
// from client threads.
// Invariants (enforced by check_invariants(), fuzzed in
// tests/kv_pool_property_test.cc):
//  * every live block's refcount equals the references actually held by
//    sequences (self), shares (cross) and radix nodes; blocks_in_use_
//    counts unique live blocks; a parked sequence holds no self blocks and
//    no radix chain;
//  * blocks_in_use() <= max_blocks() at every point between public calls:
//    admits gate on current demand and try_ensure_token fails instead of
//    allocating past capacity (the radix tier's unpinned nodes are evicted
//    first);
//  * a freed block is on the free list of a live slab; empty slabs hold no
//    buffer; the device footprint returns to exactly zero when the last
//    sequence releases.
class KvCachePool {
 public:
  explicit KvCachePool(const model::ModelConfig& config,
                       KvPoolOptions options = {});
  ~KvCachePool();

  KvCachePool(const KvCachePool&) = delete;
  KvCachePool& operator=(const KvCachePool&) = delete;

  size_t block_bytes() const { return block_floats_ * sizeof(float); }
  // Worst-case block demand of one sequence with a cold (unshared) prompt:
  // request validation's never-admittable cap.
  size_t blocks_for(int s_src, int max_new_tokens) const;
  // Pool capacity in blocks right now. For a budget-attached pool this is
  // dynamic: the pool's own slabs plus whatever whole slabs the shared
  // budget could still back (shrinks as sibling pools borrow, grows back
  // as they drain). SIZE_MAX when neither max_bytes nor a bounded budget
  // caps the pool.
  size_t max_blocks() const;
  // Hard ceiling on max_blocks() over the pool's lifetime: own max_bytes
  // and the *full* shared budget, as if no sibling pool held anything.
  // Immutable after construction (what request validation checks against —
  // safe from any thread).
  size_t max_blocks_ceiling() const;
  // True while sibling pools' borrowing is currently reducing this pool's
  // capacity below its ceiling — admission failures in that state are
  // external starvation the budget owner can fix by reclaiming, not a
  // wedge.
  bool capacity_borrowed_elsewhere() const {
    return max_blocks() < max_blocks_ceiling();
  }
  // Resolved share lookup, computed once per admission attempt, so the
  // gate and the admit do the prompt re-hash + compare exactly once. A
  // plan is a point-in-time snapshot: use it for one admission on the
  // same thread, before any other pool mutation, then replan.
  struct SharePlan {
    int64_t share_id = -1;  // live share with this exact prompt, or -1
  };
  SharePlan plan_share(const std::vector<int>& prompt_tokens) const;

  // Marginal blocks an admit of `prompt_tokens` would materialize *right
  // now*: cross blocks when the prompt is cold, plus one self block per
  // layer. This is what admission gates on.
  // `headroom_blocks` keeps capacity uncommitted for the near-term growth
  // of sequences already running (the scheduler passes one
  // boundary-crossing per active sequence), damping admit-then-
  // immediately-preempt thrash.
  size_t blocks_for_admit_now(const std::vector<int>& prompt_tokens) const;
  size_t blocks_for_admit_now(const std::vector<int>& prompt_tokens,
                              const SharePlan& plan) const;
  bool can_admit_now(const std::vector<int>& prompt_tokens,
                     size_t headroom_blocks = 0) const;
  bool can_admit_now(const std::vector<int>& prompt_tokens,
                     const SharePlan& plan, size_t headroom_blocks) const;
  // can_admit_now for a sequence that will immediately re-materialize
  // `token_rows` self rows (an evicted sequence re-admitting to replay its
  // parked tokens): the rows' blocks are part of the demand, mirroring
  // can_resume for parked handles.
  bool can_readmit_now(const std::vector<int>& prompt_tokens, int token_rows,
                       size_t headroom_blocks = 0) const;
  // Blocks one sequence materializes when it crosses a block-tokens
  // boundary (one per layer) — the unit of growth headroom.
  size_t blocks_per_boundary() const {
    return static_cast<size_t>(num_layers_);
  }

  // Begin a sequence lifetime keyed by its prompt tokens: map cross blocks
  // to an existing live prompt match (refcount++) or allocate them, and
  // allocate the first self block per layer. Throws CheckError unless
  // can_admit_now. Growth goes through try_ensure_token, and the caller
  // must be prepared to preempt() a victim when it fails.
  std::unique_ptr<SequenceKv> admit(int64_t seq_id,
                                    const std::vector<int>& prompt_tokens,
                                    int max_new_tokens);
  std::unique_ptr<SequenceKv> admit(int64_t seq_id,
                                    const std::vector<int>& prompt_tokens,
                                    int max_new_tokens, const SharePlan& plan);

  // --- Causal (decoder-only) admission over the radix tier --------------
  // A causal sequence has no encoder: its prompt is prefilled through the
  // decoder one token per step, so every self row t is a pure function of
  // fed tokens [0, t] and any *block-aligned prefix* of fed tokens cached
  // in the radix tree can be adopted bit-identically instead of recomputed.
  // The tree is a cache tier below the active pool: unpinned (evictable)
  // node bytes do not count against the admission gates — charged_blocks()
  // is what competes for capacity — and are reclaimed LRU-first on demand.
  //
  // Plan-then-admit, like SharePlan: plan_causal() resolves the longest
  // cached prefix once; the admit/resume call adopts exactly that chain.
  // The match is capped at tokens.size() - 1 rows: the final fed token's
  // step must always run live, because its logits seed the next token.
  struct CausalPlan {
    int prefix_rows = 0;  // block-aligned; chain.size() * block_tokens
    std::vector<BlockRadixTree::Node*> chain;
  };
  CausalPlan plan_causal(const std::vector<int>& fed_tokens) const;

  // Worst-case block demand of one causal sequence: self rows for the
  // whole prompt plus `max_new_tokens` generated rows, shared prefix
  // included (request validation caps it at the pool ceiling; admission
  // gates on charged_blocks()).
  size_t blocks_for_causal(int prompt_len, int max_new_tokens) const;
  // Blocks an admit with this plan materializes-or-charges right now: one
  // fresh self block per layer, plus the chain nodes not currently pinned
  // (adopting them moves their bytes from the evictable tier into the
  // charged set).
  size_t blocks_for_causal_now(const CausalPlan& plan) const;
  bool can_admit_causal_now(const CausalPlan& plan,
                            size_t headroom_blocks = 0) const;
  // As can_admit_causal_now for an evicted causal sequence re-admitting to
  // replay `token_rows` total self rows (fed history + next step); the
  // rows beyond the plan's prefix are part of the immediate demand.
  bool can_readmit_causal_now(const CausalPlan& plan, int token_rows,
                              size_t headroom_blocks = 0) const;
  // Admit a decoder-only sequence: empty cross share (never encoded), up
  // to prompt + max_new self rows, prefix chain adopted from `plan`
  // (pinned + refcounted into the sequence), first fresh self block
  // allocated. Throws CheckError unless can_admit_causal_now(plan). The
  // caller prefills from step prefix_rows().
  std::unique_ptr<SequenceKv> admit_causal(
      int64_t seq_id, const std::vector<int>& prompt_tokens,
      int max_new_tokens, const CausalPlan& plan);

  // Causal analogues of can_resume/resume: a parked causal sequence
  // re-plans against its full fed history (prompt + generated so far), so
  // a resume can adopt *more* cached rows than it was admitted with.
  bool can_resume_causal(const SequenceKv& seq, const CausalPlan& plan,
                         int token_rows, size_t headroom_blocks = 0) const;
  void resume_causal(SequenceKv& seq, const CausalPlan& plan);

  // Donate `seq`'s materialized self rows to the radix tier, covering the
  // fed tokens it actually wrote (the caller truncates to rows decoded).
  // Whole blocks only; chunks already cached dedup against the existing
  // nodes. Called right before the handle is released (retire), so the
  // donated rows outlive the sequence as evictable cache. No-op when the
  // radix tier is disabled.
  void donate_radix(const SequenceKv& seq, const std::vector<int>& fed_tokens);

  // Evict every unpinned radix node, returning its bytes to the free pool
  // (memory-pressure shedding, pool teardown, A/B resets).
  void drop_radix_cache();

  // Blocks competing for admission capacity: unique blocks in use minus
  // the evictable radix tier (those bytes are reclaimable on demand, so
  // the admission gates see them as free).
  size_t charged_blocks() const;

  // Preempt `seq`: drop every self-block reference it holds (an adopted
  // radix prefix stays live through the tree), but keep its cross share
  // referenced so a later resume() skips the encoder. The handle stays
  // live in a parked state; row accessors and growth are invalid until
  // resume. Requires cross init to have completed (preempting a sequence
  // that still owes its share the encoder pass would wedge the share).
  void preempt(SequenceKv& seq);
  // Can `seq` rejoin right now? `token_rows` is how many self rows it will
  // re-materialize immediately (its parked tokens plus the next step) —
  // resuming into less space than the replay needs would just thrash the
  // sequence straight back out. `headroom_blocks` as in can_admit_now.
  bool can_resume(const SequenceKv& seq, int token_rows = 1,
                  size_t headroom_blocks = 0) const;
  // Re-admit a parked sequence: give it its first self block per layer
  // again. The caller re-derives the self
  // rows by replaying the sequence's generated tokens through the decoder
  // (bit-identical: the cross K/V never left the pool).
  void resume(SequenceKv& seq);

  // Grow `seq` so self token position t is backed (per decode step; no-op
  // when the current blocks already cover t). Must be called before the
  // decode step that writes row t. Returns false (mutating nothing) when
  // backing row t would push blocks_in_use() past max_blocks(); the
  // scheduler's growth path preempts on a false return.
  bool try_ensure_token(SequenceKv& seq, int t);

  // Device-activity stats (slab mallocs/frees, current + peak footprint),
  // comparable with ModelAwareAllocator::stats().
  const memory::AllocatorStats& stats() const { return tracker_.stats(); }
  // Bytes of one slab: the unit of this pool's budget traffic (charged at
  // slab malloc, credited at sweep), so what one reclaimed unit returns to
  // the shared budget. Reclaim/demand sizing in the multi-model server
  // quantizes to it.
  size_t slab_bytes() const {
    return static_cast<size_t>(options_.blocks_per_slab) * block_bytes();
  }
  // Bytes in unique physical blocks held by live sequences (the true
  // working set; a block shared by N sequences counts once).
  size_t bytes_in_use() const { return blocks_in_use_ * block_bytes(); }
  size_t blocks_in_use() const { return blocks_in_use_; }
  // High-water mark of blocks_in_use over the pool lifetime (the peak
  // unique working set, independent of slab-granular footprint).
  size_t peak_blocks_in_use() const { return peak_blocks_in_use_; }
  // High-water mark of the INSTANTANEOUS overshoot of device footprint
  // over the live working set (resident bytes minus live block bytes,
  // sampled at every allocation-state change). This is the fragmentation
  // number: partial slabs and not-yet-swept empties. Unlike
  // comparing the separate peaks of resident and live bytes (which both
  // saturate under load and cancel), this stays time-correlated.
  size_t peak_waste_bytes() const { return peak_waste_bytes_; }
  int active_sequences() const { return active_; }
  int num_slabs() const;

  // Sharing-activity counters (monotonic over the pool lifetime).
  size_t prefix_hits() const { return prefix_hits_; }   // admits that shared
  // Radix-tier counters (monotonic) and gauges.
  size_t radix_hits() const { return radix_hits_; }       // admits/resumes
  size_t radix_hit_rows() const { return radix_hit_rows_; }  // rows skipped
  size_t radix_evictions() const { return radix_evictions_; }  // nodes
  size_t radix_nodes() const { return radix_ ? radix_->nodes() : 0; }
  size_t radix_cached_blocks() const {
    return radix_ ? radix_->cached_blocks() : 0;
  }
  size_t radix_evictable_blocks() const {
    return radix_ ? radix_->evictable_blocks() : 0;
  }
  // Preemption counters (also folded into stats() via DeviceTracker).
  size_t preemptions() const { return stats().preempt_count; }
  size_t resumes() const { return stats().resume_count; }
  int parked_sequences() const { return parked_; }

  // Cross-checks every pool invariant against the live sequence registry:
  // per-block refcounts equal the references actually held by sequences
  // and shares, blocks_in_use_ equals the number of unique live blocks,
  // per-slab live counts and the free list are consistent, and usage never
  // exceeds capacity. Throws CheckError on violation. O(pool size);
  // meant for tests.
  void check_invariants() const;

  const KvPoolOptions& options() const { return options_; }

 private:
  friend class SequenceKv;

  struct Slab {
    AlignedBuffer buffer;  // empty when the slab is currently freed
    int live_blocks = 0;   // unique live blocks resident in this slab
  };

  // Cross-attention blocks for one live prompt, shared by every sequence
  // decoding from it and released only when the last of them does.
  struct CrossShare {
    std::vector<int> prompt;  // empty for causal (unshareable) admits
    uint64_t key = 0;
    std::vector<std::vector<int>> blocks;  // [layer][i]
    int refs = 0;
    bool ready = false;           // init_cross_attention has run
    bool creator_live = false;    // a live sequence owns initialization
  };

  size_t self_blocks_for(int max_new_tokens) const;
  size_t cross_blocks_for(int s_src) const;
  uint64_t prompt_hash(const std::vector<int>& prompt_tokens) const;
  // Live share with this exact prompt, or -1.
  int64_t find_share(const std::vector<int>& prompt_tokens) const;
  int64_t create_share(std::vector<int> prompt_tokens, int s_src);
  void unref_share(int64_t share_id);
  std::unique_ptr<SequenceKv> admit_with_share(int64_t seq_id, int s_src,
                                               int max_new_tokens,
                                               int64_t share_id,
                                               bool created_share);
  // Pin `plan`'s chain into `seq`: one block reference per node per layer,
  // prefix_rows set; bumps the radix hit counters when the chain is
  // non-empty.
  void attach_radix(SequenceKv& seq, const CausalPlan& plan);
  // Unpin and forget the chain (preempt/release); block unrefs are the
  // caller's (they walk self_blocks_, which includes the chain blocks).
  void detach_radix(SequenceKv& seq);
  // Evict unpinned radix nodes LRU-first until `fresh` more blocks fit
  // under max_blocks(), or the evictable tier is dry.
  void make_room(size_t fresh);

  int alloc_block();
  void ref_block(int block_id);
  void unref_block(int block_id);
  float* block_ptr(int block_id);
  const float* block_ptr(int block_id) const;
  void release(SequenceKv& seq);  // called by ~SequenceKv
  // Drop freed-slab block ids from the free list and release the buffers
  // of slabs that no longer hold any live block.
  void sweep_empty_slabs();
  // Sample resident - live into peak_waste_bytes_; called after every
  // allocation-state change (block alloc/free, slab sweep).
  void note_waste();

  int hidden_;
  int num_layers_;
  KvPoolOptions options_;
  size_t block_floats_;

  std::vector<Slab> slabs_;
  std::vector<int> free_blocks_;
  std::vector<int> block_refs_;  // per global block id; 0 = free
  size_t blocks_in_use_ = 0;
  size_t peak_blocks_in_use_ = 0;
  size_t peak_waste_bytes_ = 0;
  int active_ = 0;
  int parked_ = 0;
  memory::DeviceTracker tracker_;
  // Shared-budget registration (slab_budget set): charged at slab malloc,
  // released when empty slabs free their buffers.
  memory::SlabBudget::ClientId budget_client_ = -1;

  std::unordered_map<int64_t, CrossShare> shares_;
  std::unordered_multimap<uint64_t, int64_t> prompt_index_;  // hash -> share
  int64_t next_share_id_ = 0;
  std::unordered_set<const SequenceKv*> live_;  // invariant-check registry

  // Radix cache tier over causal self blocks (always constructed; only
  // consulted when options_.enable_radix_tree).
  std::unique_ptr<BlockRadixTree> radix_;

  size_t prefix_hits_ = 0;
  size_t radix_hits_ = 0;
  size_t radix_hit_rows_ = 0;
  size_t radix_evictions_ = 0;
};

}  // namespace turbo::genserve
