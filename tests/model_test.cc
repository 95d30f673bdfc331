#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "model/classifier.h"
#include "model/decoder.h"
#include "model/encoder.h"

namespace turbo::model {
namespace {

Tensor make_ids(Rng& rng, int batch, int seq, int vocab) {
  Tensor ids = Tensor::owned(Shape{batch, seq}, DType::kI32);
  auto tokens = rng.token_ids(batch * seq, vocab);
  std::copy(tokens.begin(), tokens.end(), ids.data<int32_t>());
  return ids;
}

// NaN when any element differs by NaN (std::max would drop it), so a NaN
// on either side fails every bound.
float max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.numel(), b.numel());
  float worst = 0.0f;
  for (int64_t i = 0; i < a.numel(); ++i) {
    const float d = std::abs(a.data<float>()[i] - b.data<float>()[i]);
    if (!(d <= worst)) worst = d;
  }
  return worst;
}

// ----------------------------------------------------- fused vs reference --

class EncoderEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EncoderEquivalence, PlannedFusedPipelineMatchesNaiveReference) {
  const auto [batch, seq] = GetParam();
  EncoderModel model(ModelConfig::tiny(2, 64, 4, 128, 100), 7);
  Rng rng(static_cast<uint64_t>(batch * 100 + seq));
  Tensor ids = make_ids(rng, batch, seq, 100);

  Tensor fused = model.forward(ids);
  Tensor reference = model.forward_reference(ids);
  EXPECT_LT(max_abs_diff(fused, reference), 5e-3f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, EncoderEquivalence,
                         ::testing::Values(std::make_tuple(1, 4),
                                           std::make_tuple(1, 33),
                                           std::make_tuple(3, 17),
                                           std::make_tuple(4, 64)));

TEST(Encoder, DeterministicAcrossCalls) {
  EncoderModel model(ModelConfig::tiny(), 7);
  Rng rng(1);
  Tensor ids = make_ids(rng, 2, 10, 100);
  Tensor a = model.forward(ids);
  Tensor b = model.forward(ids);
  EXPECT_EQ(max_abs_diff(a, b), 0.0f);
}

TEST(Encoder, VariableLengthSequenceNoReplanningCrash) {
  // The paper's central serving scenario: lengths change every request.
  EncoderModel model(ModelConfig::tiny(), 3);
  Rng rng(2);
  for (int len : {5, 64, 9, 128, 3, 50}) {
    Tensor ids = make_ids(rng, 1, len, 100);
    Tensor out = model.forward(ids);
    EXPECT_EQ(out.shape()[1], len);
    for (int64_t i = 0; i < out.numel(); ++i) {
      ASSERT_FALSE(std::isnan(out.data<float>()[i])) << "len " << len;
    }
  }
  // Planner re-ran per request and its cost was measured.
  EXPECT_GT(model.last_planning_us(), 0.0);
}

TEST(Encoder, PaddingWithMaskMatchesUnpaddedRun) {
  // Zero-padding + attention masking must not change a request's result —
  // this is what makes batched variable-length serving semantically sound.
  EncoderModel model(ModelConfig::tiny(2, 32, 2, 64, 50), 11);
  Rng rng(5);
  const int real_len = 6, padded_len = 16;
  Tensor short_ids = make_ids(rng, 1, real_len, 50);

  Tensor padded_ids = Tensor::zeros(Shape{1, padded_len}, DType::kI32);
  std::copy(short_ids.data<int32_t>(), short_ids.data<int32_t>() + real_len,
            padded_ids.data<int32_t>());
  std::vector<int> valid{real_len};

  Tensor unpadded = model.forward(short_ids);
  Tensor padded = model.forward(padded_ids, &valid);

  // Compare the real positions only.
  const int H = model.config().hidden;
  float worst = 0.0f;
  for (int s = 0; s < real_len; ++s) {
    for (int h = 0; h < H; ++h) {
      const float d =
          std::abs(unpadded.at({0, s, h}) - padded.at({0, s, h}));
      if (!(d <= worst)) worst = d;  // a NaN stays the worst
    }
  }
  EXPECT_LT(worst, 5e-3f);
}

TEST(Encoder, BatchedRequestsMatchIndividualRuns) {
  EncoderModel model(ModelConfig::tiny(2, 32, 2, 64, 50), 13);
  Rng rng(6);
  const int S = 12, B = 3;
  std::vector<Tensor> singles;
  Tensor batch_ids = Tensor::owned(Shape{B, S}, DType::kI32);
  for (int b = 0; b < B; ++b) {
    Tensor one = make_ids(rng, 1, S, 50);
    std::copy(one.data<int32_t>(), one.data<int32_t>() + S,
              batch_ids.data<int32_t>() + static_cast<long>(b) * S);
    singles.push_back(model.forward(one));
  }
  Tensor batched = model.forward(batch_ids);
  const int H = model.config().hidden;
  for (int b = 0; b < B; ++b) {
    for (int s = 0; s < S; ++s) {
      for (int h = 0; h < H; ++h) {
        ASSERT_NEAR(batched.at({b, s, h}), singles[static_cast<size_t>(b)].at({0, s, h}),
                    5e-3f);
      }
    }
  }
}

TEST(Encoder, AlbertSharesOneLayerWeightSet) {
  ModelConfig cfg = ModelConfig::tiny(4, 32, 2, 64, 50);
  cfg.share_layer_weights = true;
  EncoderModel model(cfg, 17);
  EXPECT_EQ(model.weights().layers.size(), 1u);
  // Still runs the full depth.
  Rng rng(7);
  Tensor ids = make_ids(rng, 1, 8, 50);
  EXPECT_NO_THROW(model.forward(ids));
}

TEST(Encoder, AllocatorFootprintTracksRequestSize) {
  EncoderModel model(ModelConfig::tiny(2, 64, 4, 128, 100), 19);
  Rng rng(8);
  model.forward(make_ids(rng, 1, 128, 100));
  const size_t big = model.allocator().stats().current_device_bytes;
  model.forward(make_ids(rng, 1, 4, 100));
  const size_t small = model.allocator().stats().current_device_bytes;
  EXPECT_LE(small, big);
}

// -------------------------------------------------------------- classifier --

TEST(Classifier, ShapesAndDeterminism) {
  SequenceClassifier clf(ModelConfig::tiny(), 4, 23);
  Rng rng(9);
  Tensor ids = make_ids(rng, 2, 10, 100);
  Tensor logits = clf.classify(ids);
  EXPECT_EQ(logits.shape(), (Shape{2, 4}));
  const auto labels1 = clf.predict(ids);
  const auto labels2 = clf.predict(ids);
  EXPECT_EQ(labels1, labels2);
  for (int label : labels1) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 4);
  }
}

TEST(Classifier, RejectsDegenerateClassCount) {
  EXPECT_THROW(SequenceClassifier(ModelConfig::tiny(), 1, 1), CheckError);
}

// ----------------------------------------------------------------- decoder --

ModelConfig decoder_cfg() { return ModelConfig::tiny(2, 32, 2, 64, 40); }

Tensor random_memory(Rng& rng, int s_src, int hidden) {
  Tensor m = Tensor::owned(Shape{s_src, hidden});
  rng.fill_uniform(m.data<float>(), static_cast<size_t>(m.numel()), -1.0f,
                   1.0f);
  return m;
}

TEST(Decoder, GreedyDecodingDeterministic) {
  Seq2SeqDecoder dec(decoder_cfg(), 29);
  Rng rng(10);
  Tensor memory = random_memory(rng, 7, 32);
  const auto a = dec.decode(memory, 12, /*bos=*/1, /*eos=*/2, 1);
  const auto b = dec.decode(memory, 12, 1, 2, 1);
  EXPECT_EQ(a.tokens, b.tokens);
  EXPECT_EQ(a.log_prob, b.log_prob);
}

TEST(Decoder, BeamSearchNeverWorseThanGreedy) {
  Seq2SeqDecoder dec(decoder_cfg(), 29);
  Rng rng(11);
  for (int trial = 0; trial < 4; ++trial) {
    Tensor memory = random_memory(rng, 5 + trial * 3, 32);
    const auto greedy = dec.decode(memory, 10, 1, 2, 1);
    const auto beam = dec.decode(memory, 10, 1, 2, 4);
    EXPECT_GE(beam.log_prob, greedy.log_prob - 1e-6);
  }
}

TEST(Decoder, RespectsMaxLength) {
  Seq2SeqDecoder dec(decoder_cfg(), 31);
  Rng rng(12);
  Tensor memory = random_memory(rng, 6, 32);
  const auto hyp = dec.decode(memory, 5, 1, 2, 2);
  // BOS + at most 5 generated tokens.
  EXPECT_LE(hyp.tokens.size(), 6u);
  EXPECT_EQ(hyp.tokens[0], 1);
}

TEST(Decoder, OutputTokensWithinVocab) {
  Seq2SeqDecoder dec(decoder_cfg(), 37);
  Rng rng(13);
  Tensor memory = random_memory(rng, 9, 32);
  const auto hyp = dec.decode(memory, 8, 1, 2, 3);
  for (int t : hyp.tokens) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, decoder_cfg().vocab);
  }
}

TEST(Decoder, SensitiveToMemoryContent) {
  Seq2SeqDecoder dec(decoder_cfg(), 41);
  Rng rng1(14), rng2(15);
  const auto a = dec.decode(random_memory(rng1, 8, 32), 10, 1, 2, 2);
  const auto b = dec.decode(random_memory(rng2, 8, 32), 10, 1, 2, 2);
  // Different encoder memories should (generically) give different outputs.
  EXPECT_TRUE(a.tokens != b.tokens || a.log_prob != b.log_prob);
}

TEST(Decoder, LogProbNonPositive) {
  Seq2SeqDecoder dec(decoder_cfg(), 43);
  Rng rng(16);
  const auto hyp = dec.decode(random_memory(rng, 4, 32), 6, 1, 2, 2);
  EXPECT_LE(hyp.log_prob, 0.0);
}

}  // namespace
}  // namespace turbo::model
