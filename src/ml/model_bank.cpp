#include "ml/model_bank.h"

#include <algorithm>
#include <cassert>

#include "ml/simd.h"

namespace eefei::ml {

namespace {

constexpr std::size_t kSlotAlign = kTensorAlignment / sizeof(double);

std::size_t round_up(std::size_t n, std::size_t multiple) {
  return (n + multiple - 1) / multiple * multiple;
}

void ensure_doubles(AlignedVector& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(n);
}

}  // namespace

void ModelBank::configure(const LogisticRegressionConfig& config) {
  assert(config.input_dim > 0 && config.num_classes >= 2);
  config_ = config;
  param_count_ = config.input_dim * config.num_classes + config.num_classes;
  param_stride_ = round_up(param_count_, kSlotAlign);
  probs_stride_ = round_up(config.num_classes, kSlotAlign);
  ensure_doubles(grad_, param_count_);
}

double ModelBank::penalty(const double* params) const {
  if (config_.l2_lambda <= 0.0) return 0.0;
  double sq = 0.0;
  for (std::size_t i = 0; i < param_count_; ++i) sq += params[i] * params[i];
  return 0.5 * config_.l2_lambda * sq;
}

void ModelBank::train(std::span<const double> global, std::span<Task> tasks) {
  assert(global.size() == param_count_);
  const std::size_t k = tasks.size();
  if (k == 0) return;
  const std::size_t d = config_.input_dim;
  const std::size_t c = config_.num_classes;
  const std::size_t wc = d * c;  // bias offset within a parameter slot
  const simd::KernelTable& kt = simd::kernels();

  std::size_t max_n = 0;
  for (const Task& t : tasks) {
    assert(t.batch.valid());
    assert(t.batch.feature_dim == d);
    max_n = std::max(max_n, t.batch.size());
  }
  ensure_doubles(params_, k * param_stride_);
  ensure_doubles(probs_, max_n * probs_stride_);
  for (std::size_t i = 0; i < k; ++i) {
    std::copy(global.begin(), global.end(), params_.data() + i * param_stride_);
  }

  double* grad_t = grad_.data();  // grad_t[j·d + kk] ≡ dW[kk·c + j]
  double* gb = grad_t + wc;
  double* probs = probs_.data();

  // Forward over every sample at `params`, then the row loss into
  // loss_sum, ascending s.
  auto forward = [&](const Task& task, const double* params,
                     double& loss_sum) {
    const std::size_t n = task.batch.size();
    lr_forward_rows(config_, params, task.batch.features.data(), n, probs,
                    probs_stride_);
    for (std::size_t s = 0; s < n; ++s) {
      lr_accumulate_row_loss(config_.activation, probs + s * probs_stride_,
                             task.batch.labels[s], c, loss_sum);
    }
  };

  // Model-major sweep: each model runs its whole local problem before the
  // next starts, so its parameter slot and the gradient stay cache-hot.
  // Per epoch the serial reference's exact sequence — zeroed gradient,
  // ascending-sample forward/backward, mean + penalty loss, mean-scaled
  // gradient, L2 term, params −= lr·grad — re-phased per the header's
  // determinism argument.
  for (std::size_t i = 0; i < k; ++i) {
    Task& task = tasks[i];
    const std::size_t n = task.batch.size();
    const double* x = task.batch.features.data();
    double* params = params_.data() + i * param_stride_;
    const double inv_n = 1.0 / static_cast<double>(n);

    for (std::size_t e = 0; e < task.epochs; ++e) {
      std::fill(grad_t, grad_t + param_count_, 0.0);
      double loss_sum = 0.0;
      forward(task, params, loss_sum);
      for (std::size_t s = 0; s < n; ++s) {
        probs[s * probs_stride_ +
              static_cast<std::size_t>(task.batch.labels[s])] -= 1.0;  // p − y
      }

      // Backward: every sample into the transposed weight gradient, then
      // the bias rows, each ascending in s.
      kt.accumulate_outer_transposed(x, n, d, c, probs, probs_stride_,
                                     grad_t);
      for (std::size_t s = 0; s < n; ++s) {
        const double* row = probs + s * probs_stride_;
        for (std::size_t j = 0; j < c; ++j) gb[j] += row[j];
      }

      const double loss = loss_sum / static_cast<double>(n) + penalty(params);
      if (e == 0) task.initial_loss = loss;
      const double lambda = config_.l2_lambda;
      const double lr = task.learning_rate;
      auto step = [&](std::size_t p, double g) {
        g *= inv_n;
        if (lambda > 0.0) g += lambda * params[p];
        params[p] -= lr * g;
      };
      for (std::size_t kk = 0; kk < d; ++kk) {
        for (std::size_t j = 0; j < c; ++j) {
          step(kk * c + j, grad_t[j * d + kk]);
        }
      }
      for (std::size_t j = 0; j < c; ++j) step(wc + j, gb[j]);
    }

    // Final evaluation at the trained parameters — the serial reference's
    // model.evaluate(batch).
    double loss_sum = 0.0;
    forward(task, params, loss_sum);
    task.final_loss = loss_sum / static_cast<double>(n) + penalty(params);
    if (task.epochs == 0) task.initial_loss = task.final_loss;
  }
}

}  // namespace eefei::ml
