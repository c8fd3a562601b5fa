// Batched multi-model trainer for the fleet hot loop.  A ModelBank stacks
// K logistic-regression models' parameters in one 64-byte-aligned arena
// and runs every epoch's forward/backward pass through the whole-batch
// kernel-table entries (ml/simd.h), which read the batch's row-major
// features in place — nothing is packed or copied per round.  Models are
// swept in order (model-major, so one model's ~d·c weights and gradient
// stay cache-hot across its whole local problem, exactly like the serial
// client) while the batch axis of each kernel call is the model's samples:
//
//   - forward: lr_forward_rows (shared with LogisticRegression's
//     evaluation), one accumulate_rows_tiled over all n rows — on AVX-512
//     one sample per zmm lane in groups of 8, elsewhere 4 samples per tile
//     sharing each weight-block load;
//   - backward: accumulate_outer_transposed into a c×d transposed gradient
//     whose register-resident blocks see every sample before being stored;
//     the update step reads it back transposed, once per epoch.
//
// Determinism contract: train() is memcmp-equal to running the serial
// reference — tests/serial_reference.h: E full-batch steps of
// LogisticRegression::loss_and_gradient and w −= lr·g, then evaluate —
// once per model, for any K, any model order, any thread count and every
// SIMD backend.  The
// argument, piece by piece:
//
//   - Models are independent and trained in order: no pass reads another
//     model's state.
//   - Per model the op order is the serial one re-phased: the serial fused
//     loop runs forward(s), loss(s), outer(s), bias(s) per sample; the
//     bank runs all forwards, then the loss/error row sweep, then all
//     outers, then all bias adds — each phase ascending in s.  Every
//     accumulator (loss_sum, weight gradient, bias gradient) is touched by
//     exactly one phase and receives the identical additive sequence in
//     the identical order, and the forward reads parameters that no phase
//     writes, so the bits cannot move.  The whole-batch kernels give every
//     accumulator the plain kernels' sequence (simd.h), and the transposed
//     gradient is read back by exact copies.
//   - The update is the serial element sequence g·(1/n), + λ·w, w −= lr·g,
//     fused per element — no step reads another element's result.
//   - The learning rate is the caller's, constant across the epochs, as
//     in the reference.
//
// tests/test_model_bank.cpp pins all of this, plus the allocation-free
// steady state: buffers only grow, so repeated rounds of stable shape
// never touch the heap.
#pragma once

#include <cstddef>
#include <span>

#include "ml/aligned.h"
#include "ml/logistic_regression.h"
#include "ml/model.h"

namespace eefei::ml {

class ModelBank {
 public:
  /// One model's local training problem for a round.
  struct Task {
    BatchView batch;             // the model's full local batch
    std::size_t epochs = 0;      // E
    double learning_rate = 0.0;  // round-t rate, constant across epochs
    double initial_loss = 0.0;   // out: loss at the received parameters
    double final_loss = 0.0;     // out: loss after `epochs` steps
  };

  /// Binds the bank to a model shape.  Cheap when the shape is unchanged;
  /// changing shapes regrows the arenas.
  void configure(const LogisticRegressionConfig& config);

  /// No-op, kept so existing callers compile: feature rows are read in
  /// place, so there is no packed copy left to cache across rounds.
  void set_pack_cache(bool /*enabled*/) {}

  /// Trains every task from the shared `global` parameters ([W | b],
  /// length parameter_count()) and fills the per-task loss outputs.
  /// Trained parameters land in params_of(i).
  void train(std::span<const double> global, std::span<Task> tasks);

  /// Trained parameters of task i after train().
  [[nodiscard]] std::span<const double> params_of(std::size_t i) const {
    return {params_.data() + i * param_stride_, param_count_};
  }

  [[nodiscard]] std::size_t parameter_count() const { return param_count_; }
  [[nodiscard]] const LogisticRegressionConfig& config() const {
    return config_;
  }

 private:
  [[nodiscard]] double penalty(const double* params) const;

  LogisticRegressionConfig config_;
  std::size_t param_count_ = 0;
  std::size_t param_stride_ = 0;  // slot stride, 64-byte multiple
  std::size_t probs_stride_ = 0;

  // Per-model parameter slots (K × param_stride_), then the scratch of the
  // model in flight: its gradient [transposed W (c × d) | bias (c)] and its
  // per-sample activation rows (max_n × probs_stride_).
  AlignedVector params_;
  AlignedVector grad_;
  AlignedVector probs_;
};

}  // namespace eefei::ml
