#include "model/classifier.h"

#include <algorithm>

#include "kernels/elementwise.h"
#include "kernels/gemm.h"

namespace turbo::model {

SequenceClassifier::SequenceClassifier(ModelConfig config, int num_classes,
                                       uint64_t seed)
    : encoder_(std::move(config), seed), num_classes_(num_classes) {
  TT_CHECK_GT(num_classes, 1);
  Rng rng(seed ^ 0xc1a55f1e);
  const int H = encoder_.config().hidden;
  pooler_weight_ = random_weight(rng, H, H);
  pooler_bias_ = Tensor::zeros(Shape{H});
  classifier_weight_ = random_weight(rng, H, num_classes);
  classifier_bias_ = Tensor::zeros(Shape{num_classes});
}

Tensor SequenceClassifier::classify(const Tensor& ids,
                                    const std::vector<int>* valid_lens) {
  const int B = static_cast<int>(ids.shape()[0]);
  const int S = static_cast<int>(ids.shape()[1]);
  const int H = encoder_.config().hidden;

  Tensor hidden = encoder_.forward(ids, valid_lens);

  // Pool the first-token representation of every sequence.
  Tensor cls = Tensor::owned(Shape{B, H});
  for (int b = 0; b < B; ++b) {
    const float* src =
        hidden.data<float>() + static_cast<long>(b) * S * H;
    std::copy(src, src + H, cls.data<float>() + static_cast<long>(b) * H);
  }
  Tensor pooled = Tensor::owned(Shape{B, H});
  kernels::gemm(cls.data<float>(), pooler_weight_, pooled.data<float>(), B);
  kernels::add_bias(pooled.data<float>(), pooler_bias_.data<float>(), B, H);
  kernels::tanh(pooled.data<float>(), pooled.numel());

  Tensor logits = Tensor::owned(Shape{B, num_classes_});
  kernels::gemm(pooled.data<float>(), classifier_weight_, logits.data<float>(),
                B);
  kernels::add_bias(logits.data<float>(), classifier_bias_.data<float>(), B,
                    num_classes_);
  return logits;
}

std::vector<int> SequenceClassifier::predict(
    const Tensor& ids, const std::vector<int>* valid_lens) {
  Tensor logits = classify(ids, valid_lens);
  const int B = static_cast<int>(logits.shape()[0]);
  std::vector<int> labels(static_cast<size_t>(B));
  for (int b = 0; b < B; ++b) {
    const float* row =
        logits.data<float>() + static_cast<long>(b) * num_classes_;
    int best = 0;
    for (int c = 1; c < num_classes_; ++c) {
      if (row[c] > row[best]) best = c;
    }
    labels[static_cast<size_t>(b)] = best;
  }
  return labels;
}

}  // namespace turbo::model
