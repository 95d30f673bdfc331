// Binary model checkpoints.
//
// The serving framework's model-version management (paper §2.2) needs
// durable weights: this module writes/reads a self-describing little-endian
// container — magic, format version, the ModelConfig, then named tensors.
// A GEMM weight is written as its row-major [k, n] tensor (unpacked on save,
// packed again on load). Round-trips are bit-exact.
#pragma once

#include <string>

#include "model/weights.h"

namespace turbo::model {

// Serialize config + weights. Throws CheckError on I/O failure.
void save_encoder(const std::string& path, const ModelConfig& config,
                  const EncoderWeights& weights);

struct LoadedEncoder {
  ModelConfig config;
  EncoderWeights weights;
};

// Load a checkpoint written by save_encoder. Throws CheckError on a
// missing file, bad magic, or truncated tensor data.
LoadedEncoder load_encoder(const std::string& path);

}  // namespace turbo::model
