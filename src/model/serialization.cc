#include "model/serialization.h"

#include <cstdint>
#include <fstream>

#include "common/check.h"

namespace turbo::model {

namespace {

constexpr uint32_t kMagic = 0x54555242;  // "TURB"
constexpr uint32_t kFormatVersion = 1;

void write_u32(std::ostream& out, uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void write_i32(std::ostream& out, int32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
uint32_t read_u32(std::istream& in) {
  uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  TT_CHECK_MSG(in.good(), "truncated checkpoint");
  return v;
}
int32_t read_i32(std::istream& in) {
  int32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  TT_CHECK_MSG(in.good(), "truncated checkpoint");
  return v;
}

void write_string(std::ostream& out, const std::string& s) {
  write_u32(out, static_cast<uint32_t>(s.size()));
  out.write(s.data(), static_cast<long>(s.size()));
}
std::string read_string(std::istream& in) {
  const uint32_t n = read_u32(in);
  TT_CHECK_LE(n, 1u << 20);
  std::string s(n, '\0');
  in.read(s.data(), n);
  TT_CHECK_MSG(in.good(), "truncated checkpoint");
  return s;
}

void write_tensor(std::ostream& out, const std::string& name,
                  const Tensor& t) {
  write_string(out, name);
  write_u32(out, static_cast<uint32_t>(t.shape().ndim()));
  for (int i = 0; i < t.shape().ndim(); ++i) {
    write_i32(out, static_cast<int32_t>(t.shape()[i]));
  }
  out.write(reinterpret_cast<const char*>(t.data<float>()),
            static_cast<long>(t.bytes()));
}

Tensor read_tensor(std::istream& in, const std::string& expected_name) {
  const std::string name = read_string(in);
  TT_CHECK_MSG(name == expected_name, "checkpoint tensor order mismatch: got "
                                          << name << ", expected "
                                          << expected_name);
  const uint32_t ndim = read_u32(in);
  TT_CHECK_LE(ndim, 8u);
  std::vector<int64_t> dims;
  for (uint32_t i = 0; i < ndim; ++i) dims.push_back(read_i32(in));
  Tensor t = Tensor::owned(Shape(dims));
  in.read(reinterpret_cast<char*>(t.data<float>()),
          static_cast<long>(t.bytes()));
  TT_CHECK_MSG(in.good(), "truncated tensor data for " << expected_name);
  return t;
}

// A GEMM weight is stored as the row-major tensor it was packed from:
// saving unpacks it and loading packs it again, so the format does not
// depend on the panel layout.
void write_tensor(std::ostream& out, const std::string& name,
                  const kernels::PackedWeight& w) {
  write_tensor(out, name, w.unpack());
}

void read_into(std::istream& in, const std::string& name, Tensor& t) {
  t = read_tensor(in, name);
}

void read_into(std::istream& in, const std::string& name,
               kernels::PackedWeight& w) {
  const Tensor t = read_tensor(in, name);
  TT_CHECK_MSG(t.shape().ndim() == 2, "checkpoint weight " << name
                                                           << " is not 2-D");
  w = kernels::PackedWeight::pack(t.data<float>(),
                                  static_cast<int>(t.shape()[0]),
                                  static_cast<int>(t.shape()[1]));
}

// Name/weight pairs of one encoder layer, in a fixed order shared by the
// writer and the reader. `Layer` is EncoderLayerWeights, const or not.
template <typename Layer, typename Fn>
void for_each_layer_tensor(Layer& w, Fn&& fn) {
  fn("qkv_weight", w.qkv_weight);
  fn("qkv_bias", w.qkv_bias);
  fn("attn_out_weight", w.attn_out_weight);
  fn("attn_out_bias", w.attn_out_bias);
  fn("ln1_gamma", w.ln1_gamma);
  fn("ln1_beta", w.ln1_beta);
  fn("inter_weight", w.inter_weight);
  fn("inter_bias", w.inter_bias);
  fn("out_weight", w.out_weight);
  fn("out_bias", w.out_bias);
  fn("ln2_gamma", w.ln2_gamma);
  fn("ln2_beta", w.ln2_beta);
}

}  // namespace

void save_encoder(const std::string& path, const ModelConfig& config,
                  const EncoderWeights& weights) {
  std::ofstream out(path, std::ios::binary);
  TT_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  write_u32(out, kMagic);
  write_u32(out, kFormatVersion);
  write_string(out, config.name);
  write_i32(out, config.num_layers);
  write_i32(out, config.hidden);
  write_i32(out, config.heads);
  write_i32(out, config.intermediate);
  write_i32(out, config.vocab);
  write_i32(out, config.max_pos);
  write_i32(out, config.share_layer_weights ? 1 : 0);
  write_i32(out, config.tensor_core_gemm ? 1 : 0);

  // Embedding block.
  const EmbeddingWeights& emb = weights.embedding;
  write_tensor(out, "word", emb.word);
  write_tensor(out, "position", emb.position);
  write_tensor(out, "emb_ln_gamma", emb.ln_gamma);
  write_tensor(out, "emb_ln_beta", emb.ln_beta);

  write_u32(out, static_cast<uint32_t>(weights.layers.size()));
  for (const EncoderLayerWeights& layer : weights.layers) {
    for_each_layer_tensor(layer, [&](const char* name, const auto& t) {
      write_tensor(out, name, t);
    });
  }
  TT_CHECK_MSG(out.good(), "write failure on " << path);
}

LoadedEncoder load_encoder(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  TT_CHECK_MSG(in.good(), "cannot open " << path);
  TT_CHECK_MSG(read_u32(in) == kMagic, "bad checkpoint magic in " << path);
  TT_CHECK_MSG(read_u32(in) == kFormatVersion,
               "unsupported checkpoint version in " << path);

  LoadedEncoder loaded;
  loaded.config.name = read_string(in);
  loaded.config.num_layers = read_i32(in);
  loaded.config.hidden = read_i32(in);
  loaded.config.heads = read_i32(in);
  loaded.config.intermediate = read_i32(in);
  loaded.config.vocab = read_i32(in);
  loaded.config.max_pos = read_i32(in);
  loaded.config.share_layer_weights = read_i32(in) != 0;
  loaded.config.tensor_core_gemm = read_i32(in) != 0;

  loaded.weights.embedding.word = read_tensor(in, "word");
  loaded.weights.embedding.position = read_tensor(in, "position");
  loaded.weights.embedding.ln_gamma = read_tensor(in, "emb_ln_gamma");
  loaded.weights.embedding.ln_beta = read_tensor(in, "emb_ln_beta");

  const uint32_t num_layer_sets = read_u32(in);
  TT_CHECK_LE(num_layer_sets, 1000u);
  loaded.weights.layers.resize(num_layer_sets);
  for (auto& layer : loaded.weights.layers) {
    for_each_layer_tensor(layer, [&](const char* name, auto& t) {
      read_into(in, name, t);
    });
  }
  return loaded;
}

}  // namespace turbo::model
