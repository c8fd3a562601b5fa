#include "ml/activations.h"

#include <algorithm>
#include <cmath>

namespace eefei::ml {

void softmax_inplace(std::span<double> logits) {
  if (logits.empty()) return;
  const double mx = *std::max_element(logits.begin(), logits.end());
  double sum = 0.0;
  for (double& v : logits) {
    v = std::exp(v - mx);
    sum += v;
  }
  const double inv = 1.0 / sum;
  for (double& v : logits) v *= inv;
}

double sigmoid(double x) {
  // Clamp to keep exp in range; sigmoid saturates far before ±40 anyway.
  x = std::clamp(x, -40.0, 40.0);
  return 1.0 / (1.0 + std::exp(-x));
}

void sigmoid_inplace(std::span<double> logits) {
  for (double& v : logits) v = sigmoid(v);
}

void activate_inplace(Activation activation, std::span<double> logits) {
  if (activation == Activation::kSoftmax) {
    softmax_inplace(logits);
  } else {
    sigmoid_inplace(logits);
  }
}

double log_sum_exp(std::span<const double> logits) {
  if (logits.empty()) return -INFINITY;
  const double mx = *std::max_element(logits.begin(), logits.end());
  double sum = 0.0;
  for (const double v : logits) sum += std::exp(v - mx);
  return mx + std::log(sum);
}

}  // namespace eefei::ml
