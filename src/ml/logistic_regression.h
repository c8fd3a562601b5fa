// Multinomial logistic regression, the model of the paper's prototype
// (Table II: 784 → 10, SGD lr 0.01, decay 0.99).  Supports the standard
// softmax head and the paper's literal sigmoid head.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "ml/activations.h"
#include "ml/model.h"

namespace eefei::ml {

struct LogisticRegressionConfig {
  std::size_t input_dim = 784;
  std::size_t num_classes = 10;
  Activation activation = Activation::kSoftmax;
  double l2_lambda = 0.0;  // optional ridge penalty
  /// Stddev of the random init; 0 gives the all-zero init (convex problem,
  /// so zero init is fine and makes runs exactly reproducible).
  double init_stddev = 0.0;
};

/// Adds the data loss of one example (given its forward-pass probabilities;
/// no mean, no L2) onto `loss_sum`, term-by-term in class order.  Shared by
/// LogisticRegression and ml::ModelBank so the two paths cannot diverge —
/// the batched trainer's bit-identity to the serial model depends on both
/// running this exact expression sequence.
void lr_accumulate_row_loss(Activation activation, const double* probs,
                            int label, std::size_t num_classes,
                            double& loss_sum);

/// Forward of the n row-major feature rows `x` at `params` ([W | b]):
/// row s of `probs` (rows `probs_stride` apart) gets the bias, the
/// whole-batch accumulate_rows_tiled contraction, then the activation —
/// per row the bits of the per-row forward (bias, accumulate_rows,
/// activation).  Shared by LogisticRegression::evaluate_sums and
/// ml::ModelBank.
void lr_forward_rows(const LogisticRegressionConfig& config,
                     const double* params, const double* x, std::size_t n,
                     double* probs, std::size_t probs_stride);

class LogisticRegression final : public Model {
 public:
  explicit LogisticRegression(LogisticRegressionConfig config,
                              Rng* init_rng = nullptr);

  [[nodiscard]] std::span<double> parameters() override { return params_; }
  [[nodiscard]] std::span<const double> parameters() const override {
    return params_;
  }

  using Model::evaluate;
  using Model::loss_and_gradient;
  using Model::predict;

  double loss_and_gradient(const BatchView& batch, std::span<double> grad,
                           Workspace& ws) override;
  [[nodiscard]] EvalSums evaluate_sums(const BatchView& batch,
                                       Workspace& ws) const override;
  [[nodiscard]] double penalty() const override;
  [[nodiscard]] int predict(std::span<const double> features,
                            Workspace& ws) const override;
  [[nodiscard]] std::unique_ptr<Model> clone() const override;

  [[nodiscard]] const LogisticRegressionConfig& config() const {
    return config_;
  }

  /// Weight block of the flat parameter vector, row-major
  /// (input_dim × num_classes).
  [[nodiscard]] std::span<const double> weights() const {
    return {params_.data(), config_.input_dim * config_.num_classes};
  }
  /// Bias block (num_classes).
  [[nodiscard]] std::span<const double> bias() const {
    return {params_.data() + config_.input_dim * config_.num_classes,
            config_.num_classes};
  }

 private:
  /// Fused GEMM+bias+activation for one example: writes the num_classes
  /// probabilities into `out` (fully overwritten).  loss_and_gradient and
  /// predict run on it; evaluate_sums runs the same sequence a chunk of
  /// rows at a time through accumulate_rows_tiled.
  void forward_row(const double* x, double* out) const;

  /// Adds the data loss of one example (given its forward-pass
  /// probabilities; no mean, no L2 — see EvalSums) onto `loss_sum`.
  /// Appends term-by-term to the running accumulator so the summation
  /// order — and therefore every bit — matches the pre-fusion
  /// whole-batch loss loop.
  void accumulate_row_loss(const double* probs, int label,
                           double& loss_sum) const;

  LogisticRegressionConfig config_;
  // Layout: [W row-major (input_dim × num_classes) | bias (num_classes)].
  std::vector<double> params_;
};

}  // namespace eefei::ml
