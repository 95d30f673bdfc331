// Serving-framework request/response records.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace turbo::serving {

struct Request {
  int64_t id = 0;
  int length = 0;            // sequence length (tokens)
  double arrival_s = 0.0;    // arrival time at the message queue
  std::vector<int> tokens;   // optional payload (real-execution paths)
};

struct Response {
  int64_t request_id = 0;
  double finish_s = 0.0;
  double latency_ms = 0.0;
  int batch_size = 0;        // batch the request was served in
  int padded_length = 0;     // padded length of that batch
};

// One generation (seq2seq decode) request for the iteration-level serving
// path in src/genserve: encode `src_tokens`, then decode autoregressively
// until EOS or `max_new_tokens`.
struct GenerationRequest {
  int64_t id = 0;
  std::vector<int> src_tokens;
  int max_new_tokens = 32;
  int bos_id = 1;
  int eos_id = 2;
  // Preemption weight: when the KV pool runs out mid-decode,
  // lower-priority sequences are preempted first (see
  // GenSchedulerOptions::victim_policy).
  int priority = 0;
  // Multi-model routing (genserve::MultiModelGenerationServer). `model`
  // names the registered bundle to decode with; empty routes to the
  // server's default model (the first registered name unless overridden).
  // `model_version` pins an exact registered version; <= 0 resolves to the
  // latest version live at submit time — later registrations move the
  // "latest" route, but a sequence never migrates once admitted. The
  // single-model GenerationServer ignores both fields.
  std::string model;
  int model_version = 0;
};

struct GenerationResponse {
  int64_t request_id = 0;
  std::vector<int> tokens;   // generated tokens, excluding BOS and EOS
  int steps = 0;             // decode steps consumed (== tokens fed)
  int src_len = 0;
  bool hit_max_len = false;  // stopped by max_new_tokens, not EOS
  double latency_ms = 0.0;   // admission -> completion, server clock
};

// Streaming hook: invoked once per decoded token, in decode order, from
// the serving thread. Every decoded token is streamed, including a
// terminating EOS (whose call carries is_last = true); a sequence stopped
// by max_new_tokens instead carries is_last on its final content token.
using TokenCallback =
    std::function<void(int64_t request_id, int token, int step, bool is_last)>;

}  // namespace turbo::serving
