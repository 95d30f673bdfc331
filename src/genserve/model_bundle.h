// One servable seq2seq model: the unit the multi-model generation server
// registers, routes to, and pins.
//
// A bundle packages everything one decoder configuration needs to serve —
// encoder, step-batched decoder, config, and its per-model admission
// CostTable — under a (name, version) identity. Bundles live in a
// BundleRegistry (the generation-side instantiation of the paper's §2.2
// model version management) and are handed around by shared_ptr: an engine
// serving a bundle pins it, so hot unregistration never pulls weights out
// from under in-flight sequences — the bundle dies when the last engine
// drains.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "model/config.h"
#include "model/decoder.h"
#include "model/encoder.h"
#include "serving/cost_table.h"
#include "serving/model_registry.h"

namespace turbo::genserve {

// Ownership: owns its encoder/decoder via shared_ptr (several engines of
// the same bundle may share them). Thread-safety: immutable after
// construction by convention. The decoder's step() is const over a
// caller-owned workspace, but one EncoderModel must only be driven from
// one thread at a time (forward() replans its allocator and ping-pongs
// private hidden buffers) — the serving layer guarantees this by stepping
// every engine, replicas included, from one thread.
struct ModelBundle {
  std::string name;
  int version = 1;
  model::ModelConfig config;
  // Null for decoder-only bundles: a causal LM has no encoder, its prompt
  // is prefilled through the decoder's step loop.
  std::shared_ptr<model::EncoderModel> encoder;
  std::shared_ptr<model::Seq2SeqDecoder> decoder;
  // Per-model admission dictionary. Engines *copy* it at attach time so
  // each engine's observe() feedback (measured fused-step latencies)
  // converges against its own traffic, not a sibling's.
  std::optional<serving::CostTable> cost_table;

  bool decoder_only() const { return config.decoder_only; }

  std::string label() const {
    return name + ":v" + std::to_string(version);
  }
};

// Builds a bundle with freshly initialized encoder/decoder weights drawn
// from `seed` (the same construction path GenerationServer's single-model
// constructor uses, so a bundle-backed engine with the same seed is
// bit-identical to it).
std::shared_ptr<ModelBundle> make_bundle(std::string name, int version,
                                         const model::ModelConfig& config,
                                         uint64_t seed = 42);

// Decoder-only (GPT-style) bundle: forces config.decoder_only and builds no
// encoder. Engines serving it run the causal-LM path — radix prefix
// sharing over the KV pool, prompt prefill through the fused step loop.
std::shared_ptr<ModelBundle> make_decoder_only_bundle(
    std::string name, int version, model::ModelConfig config,
    uint64_t seed = 42);

// name -> version -> bundle; resolve() implements the request-routing
// convention (model_version <= 0 = latest, positive = pinned).
using BundleRegistry = serving::VersionedRegistry<ModelBundle>;

}  // namespace turbo::genserve
