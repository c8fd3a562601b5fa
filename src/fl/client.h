// FL client — the model-training role of one edge server: its local shard
// (or the sample_limit prefix of it) and its training config.  The
// coordinator trains every selected client's E epochs of full-batch
// gradient descent (the paper's prototype, §VI-A) through ml::ModelBank.
// A Client is an immutable value that draws no randomness, so a
// ClientPool may build one on each access.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "ml/model_spec.h"
#include "ml/optimizer.h"

namespace eefei::fl {

using ClientId = std::size_t;

struct LocalTrainResult {
  ClientId client = 0;
  std::vector<double> params;   // locally updated ω_{k,t}
  double initial_loss = 0.0;    // loss at the received global model
  double final_loss = 0.0;      // loss after E epochs
  std::size_t epochs_run = 0;   // E
  std::size_t samples_used = 0; // n_k
  /// false when the update was lost before aggregation (upload failure /
  /// straggler deadline) — the energy was still spent on training.
  bool aggregated = true;
};

struct ClientConfig {
  ml::ModelSpec model;
  ml::SgdConfig sgd;
  /// Cap on local samples per round (n_k).  0 means the full shard.
  std::size_t sample_limit = 0;
};

class Client {
 public:
  /// `shard` must outlive the client.
  Client(ClientId id, const data::Shard* shard, ClientConfig config);

  [[nodiscard]] ClientId id() const { return id_; }
  [[nodiscard]] std::size_t num_samples() const;
  [[nodiscard]] const ClientConfig& config() const { return config_; }

  /// Local loss F_k(ω) at the given parameters (Eq. 1) — used by tests and
  /// by the convergence-constant calibration.
  [[nodiscard]] double local_loss(std::span<const double> params) const;

  /// The batch a round trains on: the full shard, or its sample_limit
  /// prefix — what the coordinator hands to ml::ModelBank.
  [[nodiscard]] ml::BatchView local_batch() const;

 private:
  ClientId id_;
  const data::Shard* shard_;
  ClientConfig config_;
};

}  // namespace eefei::fl
