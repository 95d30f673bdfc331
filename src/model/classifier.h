// Sequence-classification head: BERT pooler (tanh of the projected [CLS]
// position) plus a linear classifier. The model behind the paper's serving
// experiments ("a BERT-based service used to classify a paragraph of
// text", §6.3).
#pragma once

#include "kernels/gemm.h"
#include "model/encoder.h"

namespace turbo::model {

class SequenceClassifier {
 public:
  SequenceClassifier(ModelConfig config, int num_classes, uint64_t seed = 42);

  // ids: [B, S]. Returns logits [B, num_classes].
  Tensor classify(const Tensor& ids,
                  const std::vector<int>* valid_lens = nullptr);

  // Argmax labels for convenience.
  std::vector<int> predict(const Tensor& ids,
                           const std::vector<int>* valid_lens = nullptr);

  EncoderModel& encoder() { return encoder_; }
  int num_classes() const { return num_classes_; }

 private:
  EncoderModel encoder_;
  int num_classes_;
  kernels::PackedWeight pooler_weight_;      // [H, H]
  Tensor pooler_bias_;                       // [H]
  kernels::PackedWeight classifier_weight_;  // [H, C]
  Tensor classifier_bias_;                   // [C]
};

}  // namespace turbo::model
