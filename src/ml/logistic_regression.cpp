#include "ml/logistic_regression.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "ml/kernels.h"
#include "ml/simd.h"

namespace eefei::ml {

namespace {
constexpr double kProbFloor = 1e-12;  // avoids log(0) on saturated heads
}

void lr_accumulate_row_loss(Activation activation, const double* probs,
                            int label, std::size_t num_classes,
                            double& loss_sum) {
  if (activation == Activation::kSoftmax) {
    // Multinomial cross-entropy: −log p_y.
    loss_sum -= std::log(
        std::max(probs[static_cast<std::size_t>(label)], kProbFloor));
    return;
  }
  // One-vs-all binary cross-entropy summed over classes.
  for (std::size_t j = 0; j < num_classes; ++j) {
    const double p = std::clamp(probs[j], kProbFloor, 1.0 - kProbFloor);
    const double y = (static_cast<std::size_t>(label) == j) ? 1.0 : 0.0;
    loss_sum -= y * std::log(p) + (1.0 - y) * std::log(1.0 - p);
  }
}

void lr_forward_rows(const LogisticRegressionConfig& config,
                     const double* params, const double* x, std::size_t n,
                     double* probs, std::size_t probs_stride) {
  const std::size_t d = config.input_dim;
  const std::size_t c = config.num_classes;
  const double* b = params + d * c;
  for (std::size_t s = 0; s < n; ++s) {
    std::copy(b, b + c, probs + s * probs_stride);
  }
  simd::kernels().accumulate_rows_tiled(x, n, d, c, params, probs,
                                        probs_stride);
  for (std::size_t s = 0; s < n; ++s) {
    activate_inplace(config.activation, {probs + s * probs_stride, c});
  }
}

LogisticRegression::LogisticRegression(LogisticRegressionConfig config,
                                       Rng* init_rng)
    : config_(config),
      params_(config.input_dim * config.num_classes + config.num_classes,
              0.0) {
  assert(config_.input_dim > 0 && config_.num_classes >= 2);
  if (config_.init_stddev > 0.0 && init_rng != nullptr) {
    for (double& p : params_) {
      p = init_rng->normal(0.0, config_.init_stddev);
    }
  }
}

void LogisticRegression::forward_row(const double* x, double* out) const {
  const std::size_t d = config_.input_dim;
  const std::size_t c = config_.num_classes;
  const double* w = params_.data();          // d × c row-major
  const double* b = params_.data() + d * c;  // c
  for (std::size_t j = 0; j < c; ++j) out[j] = b[j];
  accumulate_rows(x, d, c, w, out);
  activate_inplace(config_.activation, {out, c});
}

void LogisticRegression::accumulate_row_loss(const double* probs, int label,
                                             double& loss_sum) const {
  lr_accumulate_row_loss(config_.activation, probs, label,
                         config_.num_classes, loss_sum);
}

double LogisticRegression::penalty() const {
  if (config_.l2_lambda <= 0.0) return 0.0;
  double sq = 0.0;
  for (const double p : params_) sq += p * p;
  return 0.5 * config_.l2_lambda * sq;
}

double LogisticRegression::loss_and_gradient(const BatchView& batch,
                                             std::span<double> grad,
                                             Workspace& ws) {
  assert(batch.valid());
  assert(batch.feature_dim == config_.input_dim);
  assert(grad.size() == params_.size());
  const std::size_t n = batch.size();
  const std::size_t d = config_.input_dim;
  const std::size_t c = config_.num_classes;

  std::fill(grad.begin(), grad.end(), 0.0);
  double* gw = grad.data();
  double* gb = grad.data() + d * c;

  // One fused pass per example: forward, loss, then gradient accumulation,
  // all while the row's probabilities are hot in registers/L1.  The loss
  // sum and both gradient accumulators visit examples in the same
  // ascending order as the unfused two-pass version, so the result is
  // bit-identical to it.  For both softmax+CE and sigmoid+BCE the error
  // signal is (p − y) — that identity is what lets the two heads share
  // this gradient code.
  const auto probs = Workspace::ensure(ws.probs, c);
  double loss_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* x = batch.features.data() + i * d;
    double* err = probs.data();
    forward_row(x, err);
    accumulate_row_loss(err, batch.labels[i], loss_sum);
    err[static_cast<std::size_t>(batch.labels[i])] -= 1.0;  // p − y
    accumulate_outer(x, d, c, err, gw);
    for (std::size_t j = 0; j < c; ++j) gb[j] += err[j];
  }
  const double loss = loss_sum / static_cast<double>(n) + penalty();

  const double inv_n = 1.0 / static_cast<double>(n);
  for (double& g : grad) g *= inv_n;
  if (config_.l2_lambda > 0.0) {
    for (std::size_t i = 0; i < grad.size(); ++i) {
      grad[i] += config_.l2_lambda * params_[i];
    }
  }
  return loss;
}

EvalSums LogisticRegression::evaluate_sums(const BatchView& batch,
                                           Workspace& ws) const {
  assert(batch.valid());
  assert(batch.feature_dim == config_.input_dim);
  const std::size_t n = batch.size();
  const std::size_t d = config_.input_dim;
  const std::size_t c = config_.num_classes;

  // A chunk of rows at a time through the whole-batch forward, then loss
  // and argmax per row in ascending order: the per-row loop's sequence.
  const auto probs = Workspace::ensure(ws.probs, std::min(n, kEvalChunk) * c);
  EvalSums sums;
  sums.samples = n;
  for (std::size_t s0 = 0; s0 < n; s0 += kEvalChunk) {
    const std::size_t m = std::min(kEvalChunk, n - s0);
    lr_forward_rows(config_, params_.data(), batch.features.data() + s0 * d,
                    m, probs.data(), c);
    for (std::size_t i = 0; i < m; ++i) {
      const double* row = probs.data() + i * c;
      const int label = batch.labels[s0 + i];
      accumulate_row_loss(row, label, sums.loss_sum);
      const std::size_t argmax = static_cast<std::size_t>(
          std::max_element(row, row + c) - row);
      if (argmax == static_cast<std::size_t>(label)) ++sums.correct;
    }
  }
  return sums;
}

int LogisticRegression::predict(std::span<const double> features,
                                Workspace& ws) const {
  assert(features.size() == config_.input_dim);
  const auto probs = Workspace::ensure(ws.probs, config_.num_classes);
  forward_row(features.data(), probs.data());
  return static_cast<int>(
      std::max_element(probs.begin(), probs.end()) - probs.begin());
}

std::unique_ptr<Model> LogisticRegression::clone() const {
  return std::make_unique<LogisticRegression>(*this);
}

}  // namespace eefei::ml
