// Declarative model specification + factory for the paper's Table II
// model.  The spec is a plain value (copyable config), which keeps
// ClientConfig/FeiSystemConfig serializable-by-assignment.
#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.h"
#include "ml/logistic_regression.h"
#include "ml/model.h"

namespace eefei::ml {

struct ModelSpec {
  std::size_t input_dim = 784;
  std::size_t num_classes = 10;
  Activation activation = Activation::kSoftmax;
  double l2_lambda = 0.0;
  double init_stddev = 0.0;     // random init (0 = zero init)
  std::uint64_t init_seed = 1;  // seed of the random init

  [[nodiscard]] LogisticRegressionConfig lr_config() const {
    LogisticRegressionConfig cfg;
    cfg.input_dim = input_dim;
    cfg.num_classes = num_classes;
    cfg.activation = activation;
    cfg.l2_lambda = l2_lambda;
    cfg.init_stddev = init_stddev;
    return cfg;
  }

  [[nodiscard]] std::size_t parameter_count() const {
    return input_dim * num_classes + num_classes;
  }
};

/// Builds a fresh model per the spec.  Construction is deterministic:
/// two models from the same spec start with identical parameters.
[[nodiscard]] inline std::unique_ptr<Model> make_model(
    const ModelSpec& spec) {
  if (spec.init_stddev > 0.0) {
    Rng rng(spec.init_seed);
    return std::make_unique<LogisticRegression>(spec.lr_config(), &rng);
  }
  return std::make_unique<LogisticRegression>(spec.lr_config());
}

}  // namespace eefei::ml
