// The serial reference for ml::ModelBank's determinism contract: one
// client's local round trained alone, one full-batch step of
// LogisticRegression::loss_and_gradient and w −= lr·g per epoch at the
// paper's round-t rate lr0 · decay^t, then one evaluation for the final
// loss.  ModelBank::train must reproduce it memcmp-equal for every model.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "fl/client.h"
#include "ml/logistic_regression.h"

namespace eefei::reference {

inline fl::LocalTrainResult train_serial(const fl::Client& client,
                                         std::span<const double> global,
                                         std::size_t epochs,
                                         std::size_t round) {
  const fl::ClientConfig& cfg = client.config();
  ml::LogisticRegression model(cfg.model.lr_config());
  const auto params = model.parameters();
  std::copy(global.begin(), global.end(), params.begin());
  const double lr = cfg.sgd.learning_rate *
                    std::pow(cfg.sgd.decay, static_cast<double>(round));
  const ml::BatchView batch = client.local_batch();

  fl::LocalTrainResult result;
  result.client = client.id();
  result.epochs_run = epochs;
  result.samples_used = batch.size();
  std::vector<double> grad(params.size());
  for (std::size_t e = 0; e < epochs; ++e) {
    const double loss = model.loss_and_gradient(batch, grad);
    if (e == 0) result.initial_loss = loss;
    for (std::size_t i = 0; i < params.size(); ++i) params[i] -= lr * grad[i];
  }
  result.final_loss = model.evaluate(batch).loss;
  if (epochs == 0) result.initial_loss = result.final_loss;
  result.params.assign(params.begin(), params.end());
  return result;
}

}  // namespace eefei::reference
