#include "ml/logistic_regression.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "ml/kernels.h"
#include "ml/model_spec.h"

namespace eefei::ml {
namespace {

// Tiny 2-feature, 3-class fixture with a known-separable layout.
struct Fixture {
  std::vector<double> features;
  std::vector<int> labels;

  Fixture() {
    Rng rng(3);
    for (int c = 0; c < 3; ++c) {
      for (int i = 0; i < 30; ++i) {
        // Class centroids at (0,0), (4,0), (0,4).
        const double cx = (c == 1) ? 4.0 : 0.0;
        const double cy = (c == 2) ? 4.0 : 0.0;
        features.push_back(cx + rng.normal(0.0, 0.5));
        features.push_back(cy + rng.normal(0.0, 0.5));
        labels.push_back(c);
      }
    }
  }

  [[nodiscard]] BatchView view() const { return {features, labels, 2}; }
};

LogisticRegressionConfig small_config(Activation act = Activation::kSoftmax) {
  LogisticRegressionConfig cfg;
  cfg.input_dim = 2;
  cfg.num_classes = 3;
  cfg.activation = act;
  return cfg;
}

TEST(LogisticRegression, ParameterLayout) {
  LogisticRegression model(small_config());
  EXPECT_EQ(model.parameter_count(), 2u * 3u + 3u);
  EXPECT_EQ(model.weights().size(), 6u);
  EXPECT_EQ(model.bias().size(), 3u);
  for (const double p : model.parameters()) EXPECT_DOUBLE_EQ(p, 0.0);
}

TEST(LogisticRegression, RandomInit) {
  auto cfg = small_config();
  cfg.init_stddev = 0.1;
  Rng rng(1);
  LogisticRegression model(cfg, &rng);
  double norm = 0;
  for (const double p : model.parameters()) norm += p * p;
  EXPECT_GT(norm, 0.0);
}

TEST(LogisticRegression, InitialLossIsLogNumClasses) {
  LogisticRegression model(small_config());
  const Fixture fx;
  const auto eval = model.evaluate(fx.view());
  EXPECT_NEAR(eval.loss, std::log(3.0), 1e-12);
}

// Central-difference gradient check: the core correctness test.
TEST(LogisticRegression, GradientMatchesFiniteDifferences) {
  auto cfg = small_config();
  cfg.init_stddev = 0.3;
  Rng rng(5);
  LogisticRegression model(cfg, &rng);
  const Fixture fx;
  std::vector<double> grad(model.parameter_count());
  model.loss_and_gradient(fx.view(), grad);

  const double h = 1e-6;
  auto params = model.parameters();
  for (std::size_t i = 0; i < params.size(); i += 2) {  // subsample
    const double orig = params[i];
    params[i] = orig + h;
    const double up = model.evaluate(fx.view()).loss;
    params[i] = orig - h;
    const double down = model.evaluate(fx.view()).loss;
    params[i] = orig;
    const double numeric = (up - down) / (2.0 * h);
    EXPECT_NEAR(grad[i], numeric, 1e-5) << "param " << i;
  }
}

TEST(LogisticRegression, GradientMatchesFiniteDifferencesSigmoidHead) {
  auto cfg = small_config(Activation::kSigmoid);
  cfg.init_stddev = 0.3;
  Rng rng(6);
  LogisticRegression model(cfg, &rng);
  const Fixture fx;
  std::vector<double> grad(model.parameter_count());
  model.loss_and_gradient(fx.view(), grad);

  const double h = 1e-6;
  auto params = model.parameters();
  for (std::size_t i = 0; i < params.size(); i += 3) {
    const double orig = params[i];
    params[i] = orig + h;
    const double up = model.evaluate(fx.view()).loss;
    params[i] = orig - h;
    const double down = model.evaluate(fx.view()).loss;
    params[i] = orig;
    const double numeric = (up - down) / (2.0 * h);
    EXPECT_NEAR(grad[i], numeric, 1e-5) << "param " << i;
  }
}

TEST(LogisticRegression, GradientMatchesFiniteDifferencesWithL2) {
  auto cfg = small_config();
  cfg.init_stddev = 0.3;
  cfg.l2_lambda = 0.01;
  Rng rng(7);
  LogisticRegression model(cfg, &rng);
  const Fixture fx;
  std::vector<double> grad(model.parameter_count());
  model.loss_and_gradient(fx.view(), grad);
  const double h = 1e-6;
  auto params = model.parameters();
  for (std::size_t i = 1; i < params.size(); i += 3) {
    const double orig = params[i];
    params[i] = orig + h;
    const double up = model.evaluate(fx.view()).loss;
    params[i] = orig - h;
    const double down = model.evaluate(fx.view()).loss;
    params[i] = orig;
    EXPECT_NEAR(grad[i], (up - down) / (2.0 * h), 1e-5);
  }
}

TEST(LogisticRegression, GradientDescentLearnsSeparableData) {
  LogisticRegression model(small_config());
  const Fixture fx;
  std::vector<double> grad(model.parameter_count());
  auto params = model.parameters();
  double prev_loss = 1e9;
  for (int step = 0; step < 300; ++step) {
    const double loss = model.loss_and_gradient(fx.view(), grad);
    EXPECT_LE(loss, prev_loss + 1e-9) << "full-batch GD must not diverge";
    prev_loss = loss;
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i] -= 0.1 * grad[i];
    }
  }
  const auto eval = model.evaluate(fx.view());
  EXPECT_GT(eval.accuracy, 0.97);
  EXPECT_LT(eval.loss, 0.35);
}

TEST(LogisticRegression, PredictMatchesEvaluateArgmax) {
  auto cfg = small_config();
  cfg.init_stddev = 0.5;
  Rng rng(8);
  LogisticRegression model(cfg, &rng);
  const Fixture fx;
  std::size_t correct_evaluate = 0;
  for (std::size_t i = 0; i < fx.labels.size(); ++i) {
    const std::span<const double> x(fx.features.data() + i * 2, 2);
    if (model.predict(x) == fx.labels[i]) ++correct_evaluate;
  }
  const auto eval = model.evaluate(fx.view());
  EXPECT_NEAR(eval.accuracy,
              static_cast<double>(correct_evaluate) /
                  static_cast<double>(fx.labels.size()),
              1e-12);
}

TEST(LogisticRegression, EvaluateSumsMatchesPerRowReferenceBitwise) {
  // evaluate_sums runs its forward a chunk of rows at a time through the
  // whole-batch kernel; the reference is the per-row sequence it replaced:
  // bias, accumulate_rows, activation, row loss, argmax.  n lands below,
  // on and off the 8-sample lane group and across the 256-row chunk; d has
  // a d%4 tail and zeroed blocks.
  constexpr std::size_t kDim = 30;
  constexpr std::size_t kClasses = 10;
  for (const Activation act : {Activation::kSoftmax, Activation::kSigmoid}) {
    LogisticRegressionConfig cfg;
    cfg.input_dim = kDim;
    cfg.num_classes = kClasses;
    cfg.activation = act;
    cfg.init_stddev = 0.3;
    Rng rng(21);
    const LogisticRegression model(cfg, &rng);
    for (const std::size_t n : {1, 7, 8, 9, 256, 300}) {
      std::vector<double> features(n * kDim);
      std::vector<int> labels(n);
      for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t k = 0; k < kDim; ++k) {
          const bool blank = (k / 4 + s) % 3 == 0;
          features[s * kDim + k] = blank ? 0.0 : rng.uniform(-1.0, 1.0);
        }
        labels[s] = static_cast<int>(rng.uniform_index(kClasses));
      }
      const BatchView batch{features, labels, kDim};

      EvalSums want;
      want.samples = n;
      std::vector<double> row(kClasses);
      for (std::size_t s = 0; s < n; ++s) {
        std::copy(model.bias().begin(), model.bias().end(), row.begin());
        accumulate_rows(features.data() + s * kDim, kDim, kClasses,
                        model.weights().data(), row.data());
        activate_inplace(act, row);
        lr_accumulate_row_loss(act, row.data(), labels[s], kClasses,
                               want.loss_sum);
        const auto argmax = std::max_element(row.begin(), row.end());
        if (argmax - row.begin() == labels[s]) ++want.correct;
      }

      Workspace ws;
      const EvalSums got = model.evaluate_sums(batch, ws);
      EXPECT_EQ(0, std::memcmp(&got.loss_sum, &want.loss_sum, sizeof(double)))
          << "n=" << n << " got " << got.loss_sum << " want " << want.loss_sum;
      EXPECT_EQ(got.correct, want.correct) << "n=" << n;
      EXPECT_EQ(got.samples, n);
    }
  }
}

TEST(LogisticRegression, CloneIsDeepCopy) {
  auto cfg = small_config();
  cfg.init_stddev = 0.2;
  Rng rng(9);
  LogisticRegression model(cfg, &rng);
  auto copy = model.clone();
  // Mutate the original; the clone must be unaffected.
  model.parameters()[0] += 100.0;
  EXPECT_NE(model.parameters()[0], copy->parameters()[0]);
}

TEST(LogisticRegression, SigmoidHeadAlsoLearns) {
  LogisticRegression model(small_config(Activation::kSigmoid));
  const Fixture fx;
  std::vector<double> grad(model.parameter_count());
  auto params = model.parameters();
  for (int step = 0; step < 400; ++step) {
    model.loss_and_gradient(fx.view(), grad);
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i] -= 0.1 * grad[i];
    }
  }
  EXPECT_GT(model.evaluate(fx.view()).accuracy, 0.95);
}

TEST(ModelSpec, ParameterCountMatchesFactory) {
  ModelSpec spec;
  spec.input_dim = 10;
  spec.num_classes = 4;
  const auto model = make_model(spec);
  EXPECT_EQ(model->parameter_count(), 10u * 4u + 4u);
  EXPECT_EQ(spec.parameter_count(), model->parameter_count());
}

TEST(ModelSpec, FactoryIsDeterministic) {
  // A seeded random init: two models from one spec start bit-identical.
  ModelSpec spec;
  spec.input_dim = 8;
  spec.num_classes = 3;
  spec.init_stddev = 0.3;
  spec.init_seed = 9;
  const auto a = make_model(spec);
  const auto b = make_model(spec);
  const auto pa = a->parameters();
  const auto pb = b->parameters();
  ASSERT_EQ(pa.size(), pb.size());
  EXPECT_NE(pa[0], 0.0);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i], pb[i]);
  }
}

}  // namespace
}  // namespace eefei::ml
