#include "genserve/kv_cache_pool.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/hash.h"

namespace turbo::genserve {

namespace {

size_t ceil_div(size_t a, size_t b) { return (a + b - 1) / b; }

}  // namespace

// ---------------------------------------------------------------------------
// SequenceKv
// ---------------------------------------------------------------------------

SequenceKv::SequenceKv(KvCachePool* pool, int64_t id, int s_src,
                       int max_new_tokens)
    : pool_(pool), id_(id), s_src_(s_src), max_new_(max_new_tokens) {}

SequenceKv::~SequenceKv() {
  if (!released_) pool_->release(*this);
}

int SequenceKv::capacity_tokens() const {
  if (self_blocks_.empty()) return 0;
  return static_cast<int>(self_blocks_[0].size()) *
         pool_->options_.block_tokens;
}

size_t SequenceKv::blocks_held() const {
  size_t n = 0;
  for (const auto& layer : self_blocks_) n += layer.size();
  const auto& share = pool_->shares_.at(share_id_);
  for (const auto& layer : share.blocks) n += layer.size();
  return n;
}

bool SequenceKv::needs_cross_init() const {
  if (!cross_creator_) return false;
  return !pool_->shares_.at(share_id_).ready;
}

bool SequenceKv::cross_shared() const {
  return pool_->shares_.at(share_id_).refs > 1;
}

bool SequenceKv::cross_ready() const {
  return pool_->shares_.at(share_id_).ready;
}

void SequenceKv::mark_cross_ready() {
  TT_CHECK(cross_creator_);
  pool_->shares_.at(share_id_).ready = true;
}

float* SequenceKv::self_k(int layer, int t) {
  const int bt = pool_->options_.block_tokens;
  const auto& blocks = self_blocks_[static_cast<size_t>(layer)];
  TT_CHECK_LT(static_cast<size_t>(t / bt), blocks.size());
  float* base = pool_->block_ptr(blocks[static_cast<size_t>(t / bt)]);
  return base + static_cast<size_t>(t % bt) * pool_->hidden_;
}

float* SequenceKv::self_v(int layer, int t) {
  const int bt = pool_->options_.block_tokens;
  const auto& blocks = self_blocks_[static_cast<size_t>(layer)];
  TT_CHECK_LT(static_cast<size_t>(t / bt), blocks.size());
  float* base = pool_->block_ptr(blocks[static_cast<size_t>(t / bt)]);
  return base + static_cast<size_t>(bt + t % bt) * pool_->hidden_;
}

float* SequenceKv::cross_k(int layer, int s) {
  const int bt = pool_->options_.block_tokens;
  const auto& blocks =
      pool_->shares_.at(share_id_).blocks[static_cast<size_t>(layer)];
  TT_CHECK_LT(static_cast<size_t>(s / bt), blocks.size());
  float* base = pool_->block_ptr(blocks[static_cast<size_t>(s / bt)]);
  return base + static_cast<size_t>(s % bt) * pool_->hidden_;
}

float* SequenceKv::cross_v(int layer, int s) {
  const int bt = pool_->options_.block_tokens;
  const auto& blocks =
      pool_->shares_.at(share_id_).blocks[static_cast<size_t>(layer)];
  TT_CHECK_LT(static_cast<size_t>(s / bt), blocks.size());
  float* base = pool_->block_ptr(blocks[static_cast<size_t>(s / bt)]);
  return base + static_cast<size_t>(bt + s % bt) * pool_->hidden_;
}

// Shared extents walk: a block holds `bt` K rows followed by `bt` V rows,
// so block b contributes one span {base, base + bt * hidden, rows}.
void SequenceKv::block_extents(const std::vector<int>& blocks, int count,
                               std::vector<model::KvSpan>& out) const {
  const int bt = pool_->options_.block_tokens;
  const int hidden = pool_->hidden_;
  out.clear();
  for (int first = 0; first < count; first += bt) {
    const size_t idx = static_cast<size_t>(first / bt);
    TT_CHECK_LT(idx, blocks.size());
    const float* base = pool_->block_ptr(blocks[idx]);
    out.push_back(model::KvSpan{base,
                                base + static_cast<size_t>(bt) * hidden,
                                std::min(bt, count - first)});
  }
}

void SequenceKv::self_extents(int layer, int count,
                              std::vector<model::KvSpan>& out) {
  block_extents(self_blocks_[static_cast<size_t>(layer)], count, out);
}

void SequenceKv::cross_extents(int layer, std::vector<model::KvSpan>& out) {
  block_extents(pool_->shares_.at(share_id_).blocks[static_cast<size_t>(layer)],
                s_src_, out);
}

// ---------------------------------------------------------------------------
// KvCachePool
// ---------------------------------------------------------------------------

KvCachePool::KvCachePool(const model::ModelConfig& config,
                         KvPoolOptions options)
    : hidden_(config.hidden),
      num_layers_(config.num_layers),
      options_(options),
      block_floats_(static_cast<size_t>(2) * options.block_tokens *
                    config.hidden) {
  TT_CHECK_GE(options_.block_tokens, 1);
  TT_CHECK_GE(options_.blocks_per_slab, 1);
  // The capacity floor is one slab.
  if (options_.max_bytes > 0) {
    TT_CHECK_MSG(options_.max_bytes >= slab_bytes(),
                 "max_bytes below one slab: " << options_.max_bytes);
  }
  if (options_.slab_budget != nullptr) {
    if (options_.slab_budget->total_bytes() > 0) {
      TT_CHECK_MSG(options_.slab_budget->total_bytes() >= slab_bytes(),
                   "shared budget below one slab: "
                       << options_.slab_budget->total_bytes());
    }
    budget_client_ = options_.slab_budget->register_client(
        options_.budget_client_name.empty() ? "kv-pool"
                                            : options_.budget_client_name,
        options_.budget_guarantee_bytes);
  }
  radix_ = std::make_unique<BlockRadixTree>(options_.block_tokens, num_layers_,
                                            options_.chunk_hash_override);
}

KvCachePool::~KvCachePool() {
  // Sequences must not outlive the pool; a live one here would dangle.
  TT_CHECK_EQ(active_, 0);
  TT_CHECK(shares_.empty());
  // With no live sequence every radix node is unpinned, so the cache tier
  // drains completely and the footprint returns to zero.
  drop_radix_cache();
  TT_CHECK_EQ(blocks_in_use_, 0u);
  if (options_.slab_budget != nullptr) {
    // All sequences released -> every slab swept -> zero bytes charged.
    options_.slab_budget->unregister_client(budget_client_);
  }
}

size_t KvCachePool::self_blocks_for(int max_new_tokens) const {
  TT_CHECK_GE(max_new_tokens, 1);
  return static_cast<size_t>(num_layers_) *
         ceil_div(static_cast<size_t>(max_new_tokens),
                  static_cast<size_t>(options_.block_tokens));
}

size_t KvCachePool::cross_blocks_for(int s_src) const {
  // s_src == 0 is the causal (decoder-only) case: no encoder, no cross
  // blocks.
  TT_CHECK_GE(s_src, 0);
  return static_cast<size_t>(num_layers_) *
         ceil_div(static_cast<size_t>(s_src),
                  static_cast<size_t>(options_.block_tokens));
}

size_t KvCachePool::blocks_for(int s_src, int max_new_tokens) const {
  return cross_blocks_for(s_src) + self_blocks_for(max_new_tokens);
}

KvCachePool::SharePlan KvCachePool::plan_share(
    const std::vector<int>& prompt_tokens) const {
  SharePlan plan;
  if (options_.enable_prefix_sharing) plan.share_id = find_share(prompt_tokens);
  return plan;
}

size_t KvCachePool::max_blocks() const {
  size_t cap = std::numeric_limits<size_t>::max();
  if (options_.max_bytes > 0) {
    cap = options_.max_bytes / slab_bytes() *
          static_cast<size_t>(options_.blocks_per_slab);
  }
  if (options_.slab_budget != nullptr) {
    const size_t avail = options_.slab_budget->available_bytes();
    if (avail != std::numeric_limits<size_t>::max()) {
      // What this pool could hold right now: its own slabs (already
      // charged) plus whole slabs the budget's free headroom still backs.
      // Only whole slabs count — blocks come from slabs, so a fractional
      // remainder buys nothing.
      const size_t mine = tracker_.stats().current_device_bytes;
      cap = std::min(cap, (mine + avail) / slab_bytes() *
                              static_cast<size_t>(options_.blocks_per_slab));
    }
  }
  return cap;
}

size_t KvCachePool::max_blocks_ceiling() const {
  size_t cap = std::numeric_limits<size_t>::max();
  if (options_.max_bytes > 0) {
    cap = options_.max_bytes / slab_bytes() *
          static_cast<size_t>(options_.blocks_per_slab);
  }
  if (options_.slab_budget != nullptr) {
    const size_t total = options_.slab_budget->total_bytes();
    if (total > 0) {
      cap = std::min(cap, total / slab_bytes() *
                              static_cast<size_t>(options_.blocks_per_slab));
    }
  }
  return cap;
}

uint64_t KvCachePool::prompt_hash(const std::vector<int>& prompt_tokens) const {
  // Exact-match confirmation happens against the stored prompt, so
  // collisions cost a compare, never correctness (the override exists so
  // tests can force that path deterministically).
  if (options_.prompt_hash_override) {
    return options_.prompt_hash_override(prompt_tokens);
  }
  return fnv1a_tokens(prompt_tokens);
}

int64_t KvCachePool::find_share(const std::vector<int>& prompt_tokens) const {
  const uint64_t key = prompt_hash(prompt_tokens);
  const auto [begin, end] = prompt_index_.equal_range(key);
  for (auto it = begin; it != end; ++it) {
    const CrossShare& share = shares_.at(it->second);
    if (share.prompt == prompt_tokens) return it->second;
  }
  return -1;
}

int64_t KvCachePool::create_share(std::vector<int> prompt_tokens, int s_src) {
  const int64_t id = next_share_id_++;
  CrossShare share;
  share.key = prompt_hash(prompt_tokens);
  // A causal share owns no cross blocks and nothing to encode: born ready,
  // so needs_cross_init() is always false for decoder-only sequences.
  share.ready = (s_src == 0);
  const size_t per_layer =
      cross_blocks_for(s_src) / static_cast<size_t>(num_layers_);
  share.blocks.resize(static_cast<size_t>(num_layers_));
  for (auto& layer : share.blocks) {
    for (size_t i = 0; i < per_layer; ++i) layer.push_back(alloc_block());
  }
  if (options_.enable_prefix_sharing && !prompt_tokens.empty()) {
    prompt_index_.emplace(share.key, id);
  }
  share.prompt = std::move(prompt_tokens);
  shares_.emplace(id, std::move(share));
  return id;
}

void KvCachePool::unref_share(int64_t share_id) {
  CrossShare& share = shares_.at(share_id);
  TT_CHECK_GT(share.refs, 0);
  if (--share.refs > 0) return;
  for (const auto& layer : share.blocks) {
    for (const int b : layer) unref_block(b);
  }
  const auto [begin, end] = prompt_index_.equal_range(share.key);
  for (auto it = begin; it != end; ++it) {
    if (it->second == share_id) {
      prompt_index_.erase(it);
      break;
    }
  }
  shares_.erase(share_id);
}

std::unique_ptr<SequenceKv> KvCachePool::admit_with_share(int64_t seq_id,
                                                          int s_src,
                                                          int max_new_tokens,
                                                          int64_t share_id,
                                                          bool created_share) {
  CrossShare& share = shares_.at(share_id);
  std::unique_ptr<SequenceKv> seq(
      new SequenceKv(this, seq_id, s_src, max_new_tokens));
  seq->share_id_ = share_id;
  ++share.refs;
  if (!share.ready && !share.creator_live) {
    // First live admit of this prompt (or the previous creator released
    // before projecting cross K/V): this sequence owes the init.
    share.creator_live = true;
    seq->cross_creator_ = true;
  }
  if (!created_share) ++prefix_hits_;
  ++active_;

  seq->self_blocks_.resize(static_cast<size_t>(num_layers_));
  make_room(static_cast<size_t>(num_layers_));
  for (auto& layer : seq->self_blocks_) layer.push_back(alloc_block());
  live_.insert(seq.get());
  return seq;
}

size_t KvCachePool::blocks_for_admit_now(
    const std::vector<int>& prompt_tokens) const {
  return blocks_for_admit_now(prompt_tokens, plan_share(prompt_tokens));
}

size_t KvCachePool::blocks_for_admit_now(const std::vector<int>& prompt_tokens,
                                         const SharePlan& plan) const {
  // What admit() materializes immediately: cross blocks unless the prompt
  // is resident, plus the first self block of every layer.
  size_t now = static_cast<size_t>(num_layers_);
  if (plan.share_id < 0) {
    now += cross_blocks_for(static_cast<int>(prompt_tokens.size()));
  }
  return now;
}

bool KvCachePool::can_admit_now(const std::vector<int>& prompt_tokens,
                                size_t headroom_blocks) const {
  return can_admit_now(prompt_tokens, plan_share(prompt_tokens),
                       headroom_blocks);
}

bool KvCachePool::can_admit_now(const std::vector<int>& prompt_tokens,
                                const SharePlan& plan,
                                size_t headroom_blocks) const {
  return charged_blocks() + blocks_for_admit_now(prompt_tokens, plan) +
             headroom_blocks <=
         max_blocks();
}

bool KvCachePool::can_readmit_now(const std::vector<int>& prompt_tokens,
                                  int token_rows,
                                  size_t headroom_blocks) const {
  // blocks_for_admit_now already counts the first self block per layer;
  // the remaining replay rows add the blocks beyond it.
  const size_t rows = static_cast<size_t>(std::max(token_rows, 1));
  const size_t replay_extra =
      static_cast<size_t>(num_layers_) *
      (ceil_div(rows, static_cast<size_t>(options_.block_tokens)) - 1);
  return can_admit_now(prompt_tokens, headroom_blocks + replay_extra);
}

std::unique_ptr<SequenceKv> KvCachePool::admit(
    int64_t seq_id, const std::vector<int>& prompt_tokens,
    int max_new_tokens) {
  // Resolve the share once: the same lookup decides both the marginal
  // demand (shared prompts cost no cross blocks) and the mapping.
  return admit(seq_id, prompt_tokens, max_new_tokens,
               plan_share(prompt_tokens));
}

std::unique_ptr<SequenceKv> KvCachePool::admit(
    int64_t seq_id, const std::vector<int>& prompt_tokens, int max_new_tokens,
    const SharePlan& plan) {
  TT_CHECK_MSG(can_admit_now(prompt_tokens, plan, 0),
               "KV pool out of blocks admitting sequence " << seq_id);
  const bool created = plan.share_id < 0;
  const int64_t share_id =
      created ? create_share(prompt_tokens,
                             static_cast<int>(prompt_tokens.size()))
              : plan.share_id;
  return admit_with_share(seq_id, static_cast<int>(prompt_tokens.size()),
                          max_new_tokens, share_id, created);
}

// ---------------------------------------------------------------------------
// Causal (decoder-only) admission over the radix tier
// ---------------------------------------------------------------------------

KvCachePool::CausalPlan KvCachePool::plan_causal(
    const std::vector<int>& fed_tokens) const {
  CausalPlan plan;
  if (!options_.enable_radix_tree || fed_tokens.empty()) return plan;
  // Cap at size - 1: the final fed token's step must run live (its logits
  // seed the next token), so a fully cached history still replays one row.
  const auto match = radix_->match(fed_tokens,
                                   static_cast<int>(fed_tokens.size()) - 1);
  plan.prefix_rows = match.rows;
  plan.chain = match.chain;
  return plan;
}

size_t KvCachePool::blocks_for_causal(int prompt_len,
                                      int max_new_tokens) const {
  TT_CHECK_GE(prompt_len, 1);
  return self_blocks_for(prompt_len + max_new_tokens);
}

size_t KvCachePool::blocks_for_causal_now(const CausalPlan& plan) const {
  // One fresh self block per layer for the first live row, plus the chain
  // nodes whose bytes currently sit in the evictable tier: adopting those
  // pins them, moving them into the charged set.
  size_t now = static_cast<size_t>(num_layers_);
  for (const auto* node : plan.chain) {
    if (node->pins == 0) now += static_cast<size_t>(num_layers_);
  }
  return now;
}

bool KvCachePool::can_admit_causal_now(const CausalPlan& plan,
                                       size_t headroom_blocks) const {
  return charged_blocks() + blocks_for_causal_now(plan) + headroom_blocks <=
         max_blocks();
}

bool KvCachePool::can_readmit_causal_now(const CausalPlan& plan,
                                         int token_rows,
                                         size_t headroom_blocks) const {
  // blocks_for_causal_now covers the first block past the prefix; replay
  // rows beyond it add the rest.
  const size_t rows = std::max(static_cast<size_t>(std::max(token_rows, 1)),
                               static_cast<size_t>(plan.prefix_rows) + 1);
  const size_t replay_extra =
      static_cast<size_t>(num_layers_) *
      (ceil_div(rows, static_cast<size_t>(options_.block_tokens)) -
       static_cast<size_t>(plan.chain.size()) - 1);
  return can_admit_causal_now(plan, headroom_blocks + replay_extra);
}

std::unique_ptr<SequenceKv> KvCachePool::admit_causal(
    int64_t seq_id, const std::vector<int>& prompt_tokens, int max_new_tokens,
    const CausalPlan& plan) {
  TT_CHECK_GE(prompt_tokens.size(), 1u);
  TT_CHECK_MSG(can_admit_causal_now(plan),
               "KV pool out of blocks admitting causal sequence " << seq_id);
  const int total_rows =
      static_cast<int>(prompt_tokens.size()) + max_new_tokens;
  // The share is empty (s_src 0): nothing to encode, no cross blocks, but
  // keeping the share object lets causal sequences reuse the whole
  // seq2seq lifecycle (release, invariants) unchanged.
  const int64_t share_id = create_share({}, /*s_src=*/0);
  std::unique_ptr<SequenceKv> seq(
      new SequenceKv(this, seq_id, /*s_src=*/0, total_rows));
  seq->causal_ = true;
  seq->share_id_ = share_id;
  ++shares_.at(share_id).refs;
  ++active_;
  seq->self_blocks_.resize(static_cast<size_t>(num_layers_));
  // Pin before making room: the chain must never be evicted out from
  // under the admit that is adopting it.
  attach_radix(*seq, plan);
  make_room(static_cast<size_t>(num_layers_));
  for (auto& layer : seq->self_blocks_) layer.push_back(alloc_block());
  live_.insert(seq.get());
  return seq;
}

bool KvCachePool::can_resume_causal(const SequenceKv& seq,
                                    const CausalPlan& plan, int token_rows,
                                    size_t headroom_blocks) const {
  TT_CHECK(seq.parked_);
  TT_CHECK(seq.causal_);
  const size_t rows = std::max(static_cast<size_t>(std::max(token_rows, 1)),
                               static_cast<size_t>(plan.prefix_rows) + 1);
  size_t demand =
      static_cast<size_t>(num_layers_) *
      (ceil_div(rows, static_cast<size_t>(options_.block_tokens)) -
       static_cast<size_t>(plan.chain.size()));
  for (const auto* node : plan.chain) {
    if (node->pins == 0) demand += static_cast<size_t>(num_layers_);
  }
  return charged_blocks() + demand + headroom_blocks <= max_blocks();
}

void KvCachePool::resume_causal(SequenceKv& seq, const CausalPlan& plan) {
  TT_CHECK(!seq.released_);
  TT_CHECK(seq.causal_);
  TT_CHECK_MSG(can_resume_causal(seq, plan, plan.prefix_rows + 1),
               "KV pool out of blocks resuming causal sequence " << seq.id_);
  seq.parked_ = false;
  --parked_;
  attach_radix(seq, plan);
  make_room(static_cast<size_t>(num_layers_));
  for (auto& layer : seq.self_blocks_) layer.push_back(alloc_block());
  tracker_.on_resume();
}

void KvCachePool::attach_radix(SequenceKv& seq, const CausalPlan& plan) {
  TT_CHECK(seq.radix_chain_.empty());
  TT_CHECK_EQ(seq.prefix_rows_, 0);
  if (plan.chain.empty()) return;
  TT_CHECK_EQ(static_cast<size_t>(plan.prefix_rows),
              plan.chain.size() * static_cast<size_t>(options_.block_tokens));
  radix_->pin_chain(plan.chain);
  seq.radix_chain_ = plan.chain;
  seq.prefix_rows_ = plan.prefix_rows;
  for (int layer = 0; layer < num_layers_; ++layer) {
    auto& blocks = seq.self_blocks_[static_cast<size_t>(layer)];
    for (const auto* node : plan.chain) {
      const int b = node->blocks[static_cast<size_t>(layer)];
      ref_block(b);
      blocks.push_back(b);
    }
  }
  ++radix_hits_;
  radix_hit_rows_ += static_cast<size_t>(plan.prefix_rows);
}

void KvCachePool::detach_radix(SequenceKv& seq) {
  if (!seq.radix_chain_.empty()) radix_->unpin_chain(seq.radix_chain_);
  seq.radix_chain_.clear();
  seq.prefix_rows_ = 0;
}

void KvCachePool::donate_radix(const SequenceKv& seq,
                               const std::vector<int>& fed_tokens) {
  if (!options_.enable_radix_tree) return;
  TT_CHECK(seq.causal_);
  TT_CHECK(!seq.parked_);
  const int bt = options_.block_tokens;
  const int full_rows =
      std::min(static_cast<int>(fed_tokens.size()), seq.capacity_tokens());
  BlockRadixTree::Node* node = nullptr;
  for (int first = 0; first + bt <= full_rows; first += bt) {
    const int* chunk = fed_tokens.data() + first;
    BlockRadixTree::Node* child = radix_->find_child(node, chunk);
    if (child == nullptr) {
      // New chunk: the tree takes its own reference on the sequence's
      // blocks, so they survive the sequence's release as evictable cache.
      std::vector<int> layer_blocks(static_cast<size_t>(num_layers_));
      const size_t idx = static_cast<size_t>(first / bt);
      for (int layer = 0; layer < num_layers_; ++layer) {
        const int b = seq.self_blocks_[static_cast<size_t>(layer)][idx];
        ref_block(b);
        layer_blocks[static_cast<size_t>(layer)] = b;
      }
      child = radix_->insert_child(node, chunk, std::move(layer_blocks));
    }
    node = child;
  }
}

void KvCachePool::drop_radix_cache() {
  std::vector<int> freed;
  while (radix_ && radix_->evict_lru(&freed)) ++radix_evictions_;
  for (const int b : freed) unref_block(b);
  sweep_empty_slabs();
}

size_t KvCachePool::charged_blocks() const {
  if (radix_ == nullptr) return blocks_in_use_;
  // Discount only tier bytes that eviction would actually hand back to the
  // free list: blocks of unpinned nodes held by nothing but the tree. A
  // donated block still held by a live sequence (the donor's own handle
  // until release, or another adopter's chain) frees nothing when its node
  // is evicted — counting it as headroom would let admission gates pass and
  // then blow the byte cap when make_room runs dry. Unpinned nodes never
  // have pinned descendants (chains pin root-first), so every block
  // counted here is genuinely reachable by LRU leaf eviction.
  size_t reclaimable = 0;
  radix_->for_each([&](const BlockRadixTree::Node& n) {
    if (n.pins > 0) return;
    for (const int b : n.blocks) {
      if (block_refs_[static_cast<size_t>(b)] == 1) ++reclaimable;
    }
  });
  return blocks_in_use_ - std::min(blocks_in_use_, reclaimable);
}

void KvCachePool::make_room(size_t fresh) {
  if (radix_ == nullptr) return;
  // Freed blocks go back on the free list (not swept): the allocation this
  // call is making room for reuses them directly, without slab churn.
  std::vector<int> freed;
  while (blocks_in_use_ + fresh > max_blocks() && radix_->evict_lru(&freed)) {
    for (const int b : freed) unref_block(b);
    freed.clear();
    ++radix_evictions_;
  }
}

void KvCachePool::preempt(SequenceKv& seq) {
  TT_CHECK(!seq.released_);
  TT_CHECK_MSG(!seq.parked_, "double preempt of sequence " << seq.id_);
  TT_CHECK_MSG(!seq.needs_cross_init(),
               "preempting sequence " << seq.id_ << " before cross init");
  const size_t before = blocks_in_use_;
  // Drop every self reference; only the victim's unshared storage frees.
  // An adopted radix prefix is surrendered too (unpinned back into the
  // evictable tier); resume re-plans against the tree, so a prefix that
  // survives eviction until then is re-adopted instead of replayed.
  detach_radix(seq);
  for (auto& layer : seq.self_blocks_) {
    for (const int b : layer) unref_block(b);
    layer.clear();
  }
  seq.parked_ = true;
  ++parked_;
  tracker_.on_preempt((before - blocks_in_use_) * block_bytes());
  sweep_empty_slabs();
}

bool KvCachePool::can_resume(const SequenceKv& seq, int token_rows,
                             size_t headroom_blocks) const {
  TT_CHECK(seq.parked_);
  const size_t rows = static_cast<size_t>(std::max(token_rows, 1));
  const size_t replay_blocks =
      static_cast<size_t>(num_layers_) *
      ceil_div(rows, static_cast<size_t>(options_.block_tokens));
  return charged_blocks() + replay_blocks + headroom_blocks <= max_blocks();
}

void KvCachePool::resume(SequenceKv& seq) {
  TT_CHECK(!seq.released_);
  TT_CHECK_MSG(can_resume(seq),
               "KV pool out of blocks resuming sequence " << seq.id_);
  seq.parked_ = false;
  --parked_;
  make_room(static_cast<size_t>(num_layers_));
  for (auto& layer : seq.self_blocks_) layer.push_back(alloc_block());
  tracker_.on_resume();
}

bool KvCachePool::try_ensure_token(SequenceKv& seq, int t) {
  TT_CHECK(!seq.released_);
  TT_CHECK_MSG(!seq.parked_,
               "growing preempted sequence " << seq.id_ << " before resume");
  TT_CHECK_GE(t, 0);
  TT_CHECK_LT(t, seq.max_new_);
  // Adopted radix rows are shared history: rewriting one would corrupt
  // every other adopter. The caller decodes from prefix_rows() onward.
  if (seq.causal_) TT_CHECK_GE(t, seq.prefix_rows_);
  const int bt = options_.block_tokens;
  const size_t need = static_cast<size_t>(t / bt) + 1;
  // Count the new blocks this grow would materialize, so exhaustion is
  // detected before any state changes.
  size_t fresh = 0;
  for (const auto& blocks : seq.self_blocks_) {
    if (blocks.size() < need) fresh += need - blocks.size();
  }
  if (fresh > 0 && blocks_in_use_ + fresh > max_blocks()) {
    // Reclaim evictable radix nodes before giving up: cached bytes are a
    // lower tier than live growth.
    make_room(fresh);
    if (blocks_in_use_ + fresh > max_blocks()) return false;
  }
  for (auto& blocks : seq.self_blocks_) {
    while (blocks.size() < need) blocks.push_back(alloc_block());
    // Row t is about to be written, so the block receiving it must be
    // exclusively owned: shared blocks (an adopted radix prefix) lie below
    // prefix_rows(), and donation to the tree happens only at retire.
    TT_CHECK_EQ(block_refs_[static_cast<size_t>(blocks[need - 1])], 1);
  }
  return true;
}

void KvCachePool::release(SequenceKv& seq) {
  TT_CHECK(!seq.released_);
  detach_radix(seq);
  for (auto& layer : seq.self_blocks_) {
    for (const int b : layer) unref_block(b);
    layer.clear();
  }
  if (seq.cross_creator_ && !shares_.at(seq.share_id_).ready) {
    // The creator died before projecting cross K/V; let a later admit of
    // the same prompt claim the init instead of decoding garbage.
    shares_.at(seq.share_id_).creator_live = false;
  }
  unref_share(seq.share_id_);
  --active_;
  if (seq.parked_) --parked_;
  live_.erase(&seq);
  seq.released_ = true;
  sweep_empty_slabs();
}

void KvCachePool::note_waste() {
  // Resident footprint: the slabs currently malloc'ed.
  const size_t resident = tracker_.stats().current_device_bytes;
  const size_t live = blocks_in_use_ * block_bytes();
  if (resident > live) {
    peak_waste_bytes_ = std::max(peak_waste_bytes_, resident - live);
  }
}

int KvCachePool::alloc_block() {
  if (free_blocks_.empty()) {
    // Reuse a swept slab slot if one exists, else append a new slab.
    size_t slab_idx = slabs_.size();
    for (size_t i = 0; i < slabs_.size(); ++i) {
      if (slabs_[i].buffer.empty()) {
        slab_idx = i;
        break;
      }
    }
    if (slab_idx == slabs_.size()) {
      slabs_.emplace_back();
      block_refs_.resize(slabs_.size() *
                             static_cast<size_t>(options_.blocks_per_slab),
                         0);
    }
    Slab& slab = slabs_[slab_idx];
    if (options_.slab_budget != nullptr) {
      // Never fires for callers that respected the capacity gates: every
      // admission/growth check runs against max_blocks(), which already
      // counts the budget's free headroom in whole slabs, and nothing else
      // runs between that check and this charge (pools sharing a budget
      // are driven from one worker at a time).
      TT_CHECK_MSG(
          options_.slab_budget->try_acquire(budget_client_, slab_bytes()),
          "shared slab budget exhausted under an ungated allocation");
    }
    slab.buffer = AlignedBuffer(slab_bytes());
    slab.live_blocks = 0;
    tracker_.on_malloc(slab_bytes());
    if (options_.max_bytes > 0) {
      TT_CHECK_LE(tracker_.stats().current_device_bytes, options_.max_bytes);
    }
    for (int i = 0; i < options_.blocks_per_slab; ++i) {
      free_blocks_.push_back(static_cast<int>(slab_idx) *
                                 options_.blocks_per_slab +
                             i);
    }
  }
  const int block_id = free_blocks_.back();
  free_blocks_.pop_back();
  TT_CHECK_EQ(block_refs_[static_cast<size_t>(block_id)], 0);
  block_refs_[static_cast<size_t>(block_id)] = 1;
  ++blocks_in_use_;
  peak_blocks_in_use_ = std::max(peak_blocks_in_use_, blocks_in_use_);
  ++slabs_[static_cast<size_t>(block_id / options_.blocks_per_slab)]
        .live_blocks;
  note_waste();
  return block_id;
}

void KvCachePool::ref_block(int block_id) {
  TT_CHECK_GT(block_refs_[static_cast<size_t>(block_id)], 0);
  ++block_refs_[static_cast<size_t>(block_id)];
}

void KvCachePool::unref_block(int block_id) {
  int& refs = block_refs_[static_cast<size_t>(block_id)];
  TT_CHECK_GT(refs, 0);
  if (--refs > 0) return;
  Slab& slab = slabs_[static_cast<size_t>(block_id / options_.blocks_per_slab)];
  TT_CHECK_GT(slab.live_blocks, 0);
  --slab.live_blocks;
  --blocks_in_use_;
  free_blocks_.push_back(block_id);
  note_waste();
}

float* KvCachePool::block_ptr(int block_id) {
  Slab& slab = slabs_[static_cast<size_t>(block_id / options_.blocks_per_slab)];
  TT_CHECK(!slab.buffer.empty());
  return reinterpret_cast<float*>(slab.buffer.data()) +
         static_cast<size_t>(block_id % options_.blocks_per_slab) *
             block_floats_;
}

const float* KvCachePool::block_ptr(int block_id) const {
  return const_cast<KvCachePool*>(this)->block_ptr(block_id);
}

void KvCachePool::sweep_empty_slabs() {
  bool swept = false;
  std::vector<bool> freed(slabs_.size(), false);
  for (size_t i = 0; i < slabs_.size(); ++i) {
    Slab& slab = slabs_[i];
    if (!slab.buffer.empty() && slab.live_blocks == 0) {
      slab.buffer = AlignedBuffer();
      tracker_.on_free(slab_bytes());
      if (options_.slab_budget != nullptr) {
        options_.slab_budget->release(budget_client_, slab_bytes());
      }
      freed[i] = true;
      swept = true;
    }
  }
  if (!swept) return;
  std::erase_if(free_blocks_, [&](int b) {
    return freed[static_cast<size_t>(b / options_.blocks_per_slab)];
  });
  note_waste();
}

int KvCachePool::num_slabs() const {
  int n = 0;
  for (const auto& slab : slabs_) {
    if (!slab.buffer.empty()) ++n;
  }
  return n;
}

void KvCachePool::check_invariants() const {
  // Reconstruct every block's expected refcount from first principles: one
  // reference per holding sequence (self) plus one per share (cross).
  std::vector<int> expected(block_refs_.size(), 0);
  std::unordered_map<const BlockRadixTree::Node*, int> expected_pins;
  int parked = 0;
  for (const SequenceKv* seq : live_) {
    TT_CHECK(!seq->released_);
    TT_CHECK(shares_.find(seq->share_id_) != shares_.end());
    if (seq->parked_) {
      // A parked sequence surrendered its self blocks and its radix chain;
      // it holds only its cross share until resume.
      ++parked;
      for (const auto& layer : seq->self_blocks_) TT_CHECK(layer.empty());
      TT_CHECK(seq->radix_chain_.empty());
      TT_CHECK_EQ(seq->prefix_rows_, 0);
    }
    for (const auto& layer : seq->self_blocks_) {
      for (const int b : layer) ++expected[static_cast<size_t>(b)];
    }
    // An adopted chain is pinned once per holder, block-aligned, and its
    // node blocks are exactly the sequence's leading self blocks.
    TT_CHECK_EQ(static_cast<size_t>(seq->prefix_rows_),
                seq->radix_chain_.size() *
                    static_cast<size_t>(options_.block_tokens));
    for (size_t i = 0; i < seq->radix_chain_.size(); ++i) {
      const BlockRadixTree::Node* node = seq->radix_chain_[i];
      ++expected_pins[node];
      for (int layer = 0; layer < num_layers_; ++layer) {
        TT_CHECK_EQ(node->blocks[static_cast<size_t>(layer)],
                    seq->self_blocks_[static_cast<size_t>(layer)][i]);
      }
    }
  }
  TT_CHECK_EQ(parked, parked_);
  if (radix_ != nullptr) {
    radix_->check_invariants();
    radix_->for_each([&](const BlockRadixTree::Node& node) {
      const auto it = expected_pins.find(&node);
      TT_CHECK_EQ(node.pins, it == expected_pins.end() ? 0 : it->second);
      for (const int b : node.blocks) ++expected[static_cast<size_t>(b)];
    });
  }
  size_t share_refs = 0;
  for (const auto& [id, share] : shares_) {
    TT_CHECK_GT(share.refs, 0);
    share_refs += static_cast<size_t>(share.refs);
    for (const auto& layer : share.blocks) {
      for (const int b : layer) ++expected[static_cast<size_t>(b)];
    }
  }
  TT_CHECK_EQ(share_refs, live_.size());
  TT_CHECK_EQ(static_cast<size_t>(active_), live_.size());

  size_t unique = 0;
  for (size_t b = 0; b < expected.size(); ++b) {
    TT_CHECK_MSG(expected[b] == block_refs_[b],
                 "block " << b << " refcount " << block_refs_[b]
                          << " != held references " << expected[b]);
    if (expected[b] > 0) ++unique;
  }
  TT_CHECK_EQ(unique, blocks_in_use_);
  TT_CHECK_LE(blocks_in_use_, max_blocks());

  const size_t per_slab = static_cast<size_t>(options_.blocks_per_slab);
  std::vector<int> slab_live(slabs_.size(), 0);
  for (size_t b = 0; b < expected.size(); ++b) {
    if (expected[b] > 0) ++slab_live[b / per_slab];
  }
  for (size_t i = 0; i < slabs_.size(); ++i) {
    TT_CHECK_EQ(slab_live[i], slabs_[i].live_blocks);
    if (slabs_[i].buffer.empty()) TT_CHECK_EQ(slab_live[i], 0);
  }

  std::vector<bool> in_free(block_refs_.size(), false);
  for (const int b : free_blocks_) {
    const size_t idx = static_cast<size_t>(b);
    TT_CHECK_MSG(!in_free[idx], "block " << b << " on the free list twice");
    in_free[idx] = true;
    TT_CHECK_EQ(block_refs_[idx], 0);
    TT_CHECK(!slabs_[idx / per_slab].buffer.empty());
  }
  for (size_t b = 0; b < block_refs_.size(); ++b) {
    if (block_refs_[b] == 0 && !slabs_[b / per_slab].buffer.empty()) {
      TT_CHECK_MSG(in_free[b], "free block " << b << " leaked off the list");
    }
  }
  for (const auto& [key, id] : prompt_index_) {
    const auto it = shares_.find(id);
    TT_CHECK(it != shares_.end());
    TT_CHECK_EQ(it->second.key, key);
  }
}

}  // namespace turbo::genserve
