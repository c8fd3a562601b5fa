// Model abstraction shared by the FL layer.  A model exposes parameter
// access (for FedAvg aggregation and network transfer), gradient computation
// and loss/accuracy evaluation over a batch of row-major features.
//
// All hot-path entry points are threaded through a reusable Workspace so
// steady-state training performs zero heap allocations: the workspace's
// buffers grow on first use and are reused afterwards.  Every model also
// owns an internal scratch workspace behind the convenience overloads, so
// single-threaded callers keep the old allocation-free-after-warmup API.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "ml/aligned.h"

namespace eefei {
class ThreadPool;
}

namespace eefei::ml {

/// A borrowed view of a training batch: `n` examples of `feature_dim`
/// row-major features plus integer class labels.
struct BatchView {
  std::span<const double> features;  // n * feature_dim
  std::span<const int> labels;       // n
  std::size_t feature_dim = 0;

  [[nodiscard]] std::size_t size() const { return labels.size(); }
  [[nodiscard]] bool valid() const {
    return feature_dim > 0 && features.size() == labels.size() * feature_dim;
  }
  /// The contiguous sub-batch [begin, begin + count).
  [[nodiscard]] BatchView slice(std::size_t begin, std::size_t count) const {
    return {features.subspan(begin * feature_dim, count * feature_dim),
            labels.subspan(begin, count), feature_dim};
  }
};

/// Loss + accuracy of one evaluation pass.
struct EvalResult {
  double loss = 0.0;
  double accuracy = 0.0;
  std::size_t samples = 0;
};

/// Partial evaluation sums over a (sub-)batch: the raw data-term loss sum
/// (no mean, no regularization penalty) plus the correct-prediction count.
/// Partials from disjoint chunks combine exactly, which is what makes the
/// sharded evaluation bit-identical for any thread count.
struct EvalSums {
  double loss_sum = 0.0;
  std::size_t correct = 0;
  std::size_t samples = 0;

  EvalSums& operator+=(const EvalSums& other) {
    loss_sum += other.loss_sum;
    correct += other.correct;
    samples += other.samples;
    return *this;
  }
};

/// Reusable scratch buffers for forward/backward passes.  Buffers only ever
/// grow, so a warmed workspace makes repeated calls allocation-free.  A
/// workspace may be shared across models but never across threads.  Storage
/// is 64-byte aligned (ml/aligned.h) so kernels start on lane boundaries.
/// The buffer never grows with the batch: it holds one row of class
/// activations, or at most kEvalChunk rows in
/// LogisticRegression::evaluate_sums, so a workspace stays cache-resident.
struct Workspace {
  AlignedVector probs;  // class activations (one row, or an eval chunk)

  /// Grows `buf` to at least `n` and returns the first `n` elements
  /// (contents unspecified — kernels fully overwrite their spans).
  static std::span<double> ensure(AlignedVector& buf, std::size_t n) {
    if (buf.size() < n) buf.resize(n);
    return {buf.data(), n};
  }
};

class Model {
 public:
  virtual ~Model() = default;

  /// Flattened trainable parameters (mutable view for the optimizer and
  /// for FedAvg writes).
  [[nodiscard]] virtual std::span<double> parameters() = 0;
  [[nodiscard]] virtual std::span<const double> parameters() const = 0;
  [[nodiscard]] std::size_t parameter_count() const {
    return const_cast<const Model*>(this)->parameters().size();
  }

  /// Computes mean loss over the batch and writes the mean gradient into
  /// `grad` (zeroed by the implementation). Returns the loss.
  virtual double loss_and_gradient(const BatchView& batch,
                                   std::span<double> grad, Workspace& ws) = 0;

  /// Raw data-term sums over the batch (see EvalSums).  Thread-safe for
  /// concurrent calls on one model as long as each call has its own
  /// workspace — parameters are only read.
  [[nodiscard]] virtual EvalSums evaluate_sums(const BatchView& batch,
                                               Workspace& ws) const = 0;

  /// Regularization penalty added on top of the mean data loss (0 when the
  /// model has no regularizer).
  [[nodiscard]] virtual double penalty() const { return 0.0; }

  /// Predicted class of a single example.
  [[nodiscard]] virtual int predict(std::span<const double> features,
                                    Workspace& ws) const = 0;

  /// Deep copy (used to snapshot the global model per round).  The clone
  /// starts with a fresh, empty scratch workspace: only parameters are part
  /// of the clone/serialize contract, never scratch state.
  [[nodiscard]] virtual std::unique_ptr<Model> clone() const = 0;

  /// Loss + accuracy without touching gradients.
  [[nodiscard]] EvalResult evaluate(const BatchView& batch,
                                    Workspace& ws) const {
    return finish_eval(evaluate_sums(batch, ws));
  }

  /// Combines chunk partials into the final loss/accuracy (adds the
  /// regularization penalty once).
  [[nodiscard]] EvalResult finish_eval(const EvalSums& sums) const {
    EvalResult r;
    r.samples = sums.samples;
    if (sums.samples > 0) {
      const auto n = static_cast<double>(sums.samples);
      r.loss = sums.loss_sum / n + penalty();
      r.accuracy = static_cast<double>(sums.correct) / n;
    }
    return r;
  }

  // Convenience overloads backed by the model's internal scratch workspace.
  // Allocation-free once warm, but NOT safe to call concurrently on one
  // model — concurrent callers must pass their own Workspace.
  double loss_and_gradient(const BatchView& batch, std::span<double> grad) {
    return loss_and_gradient(batch, grad, scratch_);
  }
  [[nodiscard]] EvalResult evaluate(const BatchView& batch) const {
    return evaluate(batch, scratch_);
  }
  [[nodiscard]] int predict(std::span<const double> features) const {
    return predict(features, scratch_);
  }

 protected:
  Model() = default;
  // Copies of a model share parameters, never scratch state: the copy
  // starts cold.  Keeps clone() cheap and the serialize contract (params
  // only) intact.
  Model(const Model&) noexcept {}
  Model& operator=(const Model&) noexcept { return *this; }

 private:
  mutable Workspace scratch_;
};

/// Chunk size of the sharded evaluation.  Fixed (never derived from the
/// thread count) so the reduction tree — and therefore every bit of the
/// result — is independent of how many workers score the chunks.  Also the
/// most rows LogisticRegression::evaluate_sums forwards at once.
inline constexpr std::size_t kEvalChunk = 256;

/// Sharded, deterministically-reduced evaluation.  The batch is split into
/// fixed-size chunks whose EvalSums are combined in chunk order, so the
/// result is bit-identical whether chunks are scored serially (`pool` null)
/// or across a thread pool.  `workspaces` is resized to the chunk count and
/// reused across calls.
[[nodiscard]] EvalResult evaluate_sharded(const Model& model,
                                          const BatchView& batch,
                                          ThreadPool* pool,
                                          std::vector<Workspace>& workspaces);

}  // namespace eefei::ml
