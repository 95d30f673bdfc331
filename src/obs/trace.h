// Step-level tracing: typed spans in a lock-free, fixed-capacity ring.
//
// The serving stack now has five interacting mechanisms (iteration-level
// scheduling, prefix sharing, paged decode, preempt-and-requeue,
// multi-model slab borrowing); a p99 regression cannot be attributed to
// queueing vs. prefill vs. preemption churn from coarse aggregates alone.
// Following PerFlow's pass-based bottleneck analysis and Orca's
// iteration-level view, the engines record one span per *phase per step*
// (plus per-sequence lifecycle events) and the analysis happens offline
// over a drained span stream (obs/passes.h) — no sampling, no wall-clock
// guessing.
//
// Design constraints, in order:
//  1. The fused-step hot path must not notice tracing when it is off: the
//     recording sites are gated on one branch (Tracer::enabled), and no
//     clock is read on the disabled path.
//  2. Recording must never block serving when it is on: TraceRing is
//     lock-free (writers claim slots by CAS and publish with a per-slot
//     seqlock), overwrites oldest spans when full, and drops a span
//     outright in the rare case two writers lap onto one slot mid-write —
//     tracing sheds load, serving never does.
//  3. Draining must be safe while writers run: snapshot() validates every
//     slot's seqlock stamp before and after the copy, so a drained span is
//     never torn; spans being overwritten concurrently are skipped. The
//     payload copy itself goes through relaxed word-sized atomics, keeping
//     the race-free contract literal (and the ring TSan-clean) rather than
//     "benign".
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

namespace turbo::obs {

// Span taxonomy. Engine-level phase spans (seq == -1) and encode jobs tile
// one scheduler iteration; other sequence-level spans (seq >= 0) mark
// lifecycle transitions.
enum class SpanKind : uint8_t {
  kAdmit = 0,        // phase: batch formation | seq: enqueue -> admitted
  kEncodePrefill,    // phase: one deferred encode job (seq = the sequence
                     // encoded, batch = 1, tokens = source length)
  kSchedule,         // phase: growth + grow-or-preempt (prepare_step)
  kDecodeStep,       // phase: the fused decode step (batch, tokens)
  kPreempt,          // seq event: victim parked (tokens = parked so far)
  kResume,           // seq span: parked -> re-admitted (tokens = replayed)
  kEvict,            // seq event: parked cross share dropped
  kReclaim,          // cross-model: budget shed (bytes; model = starved,
                     // peer = donor)
  kStream,           // phase: argmax + callbacks + retire | seq: first token
  kRadixHit,         // seq event: admit/resume adopted a cached radix
                     // prefix (tokens = prefix rows skipped)
  kRadixEvict,       // pool event: radix-tier LRU eviction(s) reclaimed
                     // blocks (tokens = evictions this step)
  kPrefillChunk,     // seq event: a multi-row prefill/replay chunk ran in
                     // the fused step (tokens = rows in the chunk)
  kRoute,            // seq event: router placed the request on a replica
                     // (model = bundle, peer = chosen replica label,
                     // batch = replica index, tokens = SloClass,
                     // bytes = 1 when the denial fallback was taken)
  kCount,            // number of kinds (not a span)
};

inline constexpr int kSpanKinds = static_cast<int>(SpanKind::kCount);

// Stable short name ("admit", "prefill", "schedule", "decode", ...).
const char* span_kind_name(SpanKind kind);
// Inverse of span_kind_name; returns false on an unknown name.
bool span_kind_from_name(std::string_view name, SpanKind* out);

inline constexpr size_t kTraceNameLen = 24;  // truncated model labels

// One recorded span. Trivially copyable by design: the ring publishes and
// drains spans through word-sized atomic copies.
struct TraceSpan {
  SpanKind kind = SpanKind::kAdmit;
  int32_t model_version = 0;
  int64_t seq = -1;          // sequence (request) id; -1 = engine phase span
  int64_t iteration = 0;     // engine step() call the span belongs to
  int32_t batch = 0;         // decode/schedule: batch size; admit: admitted
  int32_t tokens = 0;        // decode: tokens emitted; resume: replayed; ...
  uint64_t bytes = 0;        // reclaim: slab bytes freed
  uint64_t start_ticks = 0;  // monotonic ns (obs::now_ticks clock)
  uint64_t end_ticks = 0;    // == start_ticks for instant events
  char model[kTraceNameLen] = {};  // owning model label ("name:vN")
  char peer[kTraceNameLen] = {};   // reclaim: donor model label
};
static_assert(std::is_trivially_copyable_v<TraceSpan>);

inline double span_ms(const TraceSpan& s) {
  return static_cast<double>(s.end_ticks - s.start_ticks) * 1e-6;
}

// Monotonic timestamp in nanoseconds. One clock for every engine of a
// process, so multi-model timelines line up without translation.
inline uint64_t now_ticks() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Copy a label into a fixed span name field, truncating to fit.
void copy_name(char (&dst)[kTraceNameLen], std::string_view src);

// Ownership: owns its slot array; shared by engines via shared_ptr (the
// multi-model server hands one ring to every engine so the timeline is
// global).
// Thread-safety: record() is lock-free and safe from any number of
// threads; snapshot() is safe concurrently with record() from any thread
// and never returns a torn span. capacity()/total_recorded()/dropped()
// are safe anywhere.
// Invariants: at most capacity() spans are resident; record() never
// blocks and never waits — when the ring laps a slot another writer is
// still filling, the newer span is dropped and counted instead;
// snapshot() returns fully-published spans in record order (oldest
// first).
class TraceRing {
 public:
  // `capacity` is rounded up to a power of two, minimum 2.
  explicit TraceRing(size_t capacity = 1 << 15);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  // Lock-free append with overwrite-oldest semantics.
  void record(const TraceSpan& span);

  // Consistent drain: every returned span was fully published and is
  // returned exactly as written, oldest ticket first. Spans concurrently
  // being overwritten are skipped, not torn. Non-destructive.
  std::vector<TraceSpan> snapshot() const;

  size_t capacity() const { return slots_.size(); }
  // Tickets issued over the ring's lifetime (recorded + dropped).
  uint64_t total_recorded() const {
    return head_.load(std::memory_order_relaxed);
  }
  // Spans abandoned because the ring lapped onto a slot mid-write.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  // Slot seqlock encoding: 0 = never written; 2t+1 = ticket t mid-write;
  // 2t+2 = ticket t published. A reader accepts a slot only when it
  // observes 2t+2 for the ticket it expects, before and after the copy.
  static constexpr size_t kSpanWords = (sizeof(TraceSpan) + 7) / 8;
  struct Slot {
    std::atomic<uint64_t> stamp{0};
    std::array<std::atomic<uint64_t>, kSpanWords> words{};
  };

  std::vector<Slot> slots_;
  size_t mask_;
  std::atomic<uint64_t> head_{0};
  std::atomic<uint64_t> dropped_{0};
};

// Per-engine recording handle: a ring reference plus the engine's model
// identity, stamped onto every span. Default-constructed tracers are
// disabled; every recording site is one `if (tracer)` branch away from
// free when tracing is off.
//
// Thread-safety: span()/instant() are as safe as TraceRing::record (the
// identity fields are immutable after construction); set_iteration is
// owner-thread only, like the engine step loop that calls it.
class Tracer {
 public:
  Tracer() = default;
  Tracer(std::shared_ptr<TraceRing> ring, std::string_view model,
         int32_t version);

  bool enabled() const { return ring_ != nullptr; }
  explicit operator bool() const { return enabled(); }

  // The iteration stamped on subsequent spans (the server sets it once per
  // step() call that has work, starved calls included; scheduler-side
  // events inherit it).
  void set_iteration(int64_t iteration) { iteration_ = iteration; }
  int64_t iteration() const { return iteration_; }

  void span(SpanKind kind, uint64_t start_ticks, uint64_t end_ticks,
            int64_t seq = -1, int32_t batch = 0, int32_t tokens = 0,
            uint64_t bytes = 0);
  void instant(SpanKind kind, int64_t seq, int32_t tokens = 0);

  const std::shared_ptr<TraceRing>& ring() const { return ring_; }

 private:
  std::shared_ptr<TraceRing> ring_;
  int64_t iteration_ = 0;
  int32_t version_ = 0;
  char model_[kTraceNameLen] = {};
};

// Engine tracing configuration (GenServerOptions::trace).
struct TraceConfig {
  // Master switch: when false (default) no ring exists and every recording
  // site reduces to one never-taken branch.
  bool enabled = false;
  // Ring capacity when the engine creates its own ring.
  size_t capacity = 1 << 15;
  // Share an existing ring instead (multi-model serving: one ring, global
  // timeline). Implies enabled.
  std::shared_ptr<TraceRing> ring;
};

}  // namespace turbo::obs
