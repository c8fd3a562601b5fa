// Activation functions for the classification head.  The paper's Table II
// lists "Sigmoid" as the activation of its multinomial logistic regression;
// we provide both the numerically standard softmax head and the paper's
// literal per-class sigmoid head, selectable in LogisticRegressionConfig.
#pragma once

#include <span>

namespace eefei::ml {

enum class Activation {
  kSoftmax,  // standard multinomial LR (softmax + cross-entropy)
  kSigmoid,  // per-class sigmoid head (one-vs-all, as printed in Table II)
};

/// In-place numerically stable softmax over `logits`.
void softmax_inplace(std::span<double> logits);

/// In-place elementwise logistic sigmoid.
void sigmoid_inplace(std::span<double> logits);

/// The head `activation` in place: softmax_inplace or sigmoid_inplace.
void activate_inplace(Activation activation, std::span<double> logits);

/// Scalar sigmoid with clamping to avoid overflow in exp.
[[nodiscard]] double sigmoid(double x);

/// log(sum(exp(logits))) computed stably; used by the loss.
[[nodiscard]] double log_sum_exp(std::span<const double> logits);

}  // namespace eefei::ml
