// Batched multi-model trainer for the fleet hot loop.  A ModelBank stacks
// K logistic-regression models' parameters in one 64-byte-aligned arena
// and runs every epoch's forward/backward pass through the whole-batch
// kernel-table entries (ml/simd.h), which read the batch's row-major
// features in place — nothing is packed or copied per round.  Models are
// trained model-major (one model's ~d·c weights and gradient stay
// cache-hot across its whole local problem, exactly like the serial
// client) while the batch axis of each kernel call is the model's samples:
//
//   - forward: lr_forward_rows (shared with LogisticRegression's
//     evaluation), accumulate_rows_tiled over the rows — on AVX-512 one
//     sample per zmm lane in groups of 8, elsewhere 4 samples per tile
//     sharing each weight-block load;
//   - backward: accumulate_outer_transposed into a c×d transposed gradient
//     whose register-resident blocks see every sample before being stored;
//     the update step reads it back transposed, once per epoch.
//
// Pooled schedule: train(global, tasks, pool) runs on the calling thread
// (party 0) plus up to pool->size() − 1 helpers; with W = pool->size()
// there are never more than W parties.  The first K − (K mod W) models are
// whole-model items, claimed dynamically in contiguous chunks: at least
// one per party, at most 16 per party, each carrying at least 2^15 of
// work n·d·c·(E + 1), so a party that starts late strands no work.  Each
// of the K mod W leftover models is then trained by all parties together:
// per epoch its forward is split by samples (whole groups of 8), its
// backward and weight step by feature strips (16 k wide, on the 4-block
// grid), and party 0 alone runs the loss reduction and the bias gradient
// and step in between.  Leftover models whose per-epoch work is too small
// to repay the hand-offs train as whole-model items instead.  Parties stay
// resident for the whole call and advance phases through atomics; a phase
// ends when its items are done, so a helper that never gets a worker
// blocks nothing, and party 0 can run every phase alone.
//
// Side job: train(global, tasks, pool, side_job) runs side_job exactly
// once, on the calling thread, inside the same thread budget: party 0
// publishes the call's first phase (the whole-model phase, or else the
// first split model's first forward), runs the job while the helpers claim
// items, then claims what is left; serially, the job runs before any
// training.  The job must touch nothing the bank reads or writes — the
// bank, the tasks or their batches — so it cannot move a bit of the
// training.  An exception from it propagates once training has finished.
//
// Determinism contract: train() is memcmp-equal to running the serial
// reference — tests/serial_reference.h: E full-batch steps of
// LogisticRegression::loss_and_gradient and w −= lr·g, then evaluate —
// once per model, for any K, any model order, any pool size and every
// SIMD backend.  The argument, piece by piece:
//
//   - Models are independent: no pass reads another model's state, so
//     which party trains a whole model, in which chunk, cannot matter.
//     The side job touches no bank state, so running it only delays when
//     party 0 starts claiming.
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
//   - A team changes only which thread computes an element, never an
//     element's sequence: a forward row is a function of its own sample;
//     a k strip on the 4-block grid gives each gradient element the whole
//     call's sequence (simd.h); loss_sum and the bias gradient stay on
//     party 0 in ascending (s, j); and every phase reads only what the
//     phases before it finished.
//   - The update is the serial element sequence g·(1/n), + λ·w, w −= lr·g,
//     fused per element — no step reads another element's result, so the
//     bias step may run before the weight steps and strips in any order.
//     The L2 penalty of the loss is summed before either step.
//   - The learning rate is the caller's, constant across the epochs, as
//     in the reference.
//
// tests/test_model_bank.cpp pins all of this, plus the allocation-free
// serial steady state: buffers only grow, so repeated rounds of stable
// shape never touch the heap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "ml/aligned.h"
#include "ml/logistic_regression.h"
#include "ml/model.h"

namespace eefei {
class ThreadPool;
}  // namespace eefei

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
  /// length parameter_count()) on the calling thread and fills the
  /// per-task loss outputs.  Trained parameters land in params_of(i).
  void train(std::span<const double> global, std::span<Task> tasks) {
    train(global, tasks, nullptr);
  }

  /// As above, on the calling thread plus up to pool->size() − 1 helpers
  /// from `pool` (see the pooled schedule above), and runs `side_job`
  /// (when non-empty) once on the calling thread while the helpers train
  /// (see the side job above).  nullptr or a one-worker pool trains
  /// serially.  Bit-identical for every pool.  Safe to call from inside
  /// one of the pool's own tasks, and from several threads at once on
  /// distinct banks.
  void train(std::span<const double> global, std::span<Task> tasks,
             ThreadPool* pool, const std::function<void()>& side_job = {});

  /// Trained parameters of task i after train().
  [[nodiscard]] std::span<const double> params_of(std::size_t i) const {
    return {params_.data() + i * param_stride_, param_count_};
  }

  [[nodiscard]] std::size_t parameter_count() const { return param_count_; }
  [[nodiscard]] const LogisticRegressionConfig& config() const {
    return config_;
  }

 private:
  /// One party's buffers: a gradient [transposed W (c × d) | bias (c)]
  /// and per-sample activation rows (max_n × probs_stride_).  Party 0's
  /// are also the team's while it trains a split model.
  struct Scratch {
    AlignedVector grad;
    AlignedVector probs;
  };

  enum class Kind : std::uint8_t { kWhole, kForward, kBackward };

  /// One phase of the pooled schedule: `items` disjoint work items.
  struct Phase {
    Kind kind = Kind::kWhole;
    std::size_t items = 0;
    std::span<Task> tasks;
    std::size_t whole = 0;  // kWhole: models order_[0, whole), `items` chunks
    std::size_t model = 0;  // kForward/kBackward: the split model
  };

  struct Team;  // the parties' shared state, model_bank.cpp

  [[nodiscard]] double* slot(std::size_t i) {
    return params_.data() + i * param_stride_;
  }
  [[nodiscard]] double penalty(const double* params) const;

  void forward(const Task& task, const double* params, std::size_t s0,
               std::size_t s1, double* probs) const;
  [[nodiscard]] double loss_sum(const Task& task, double* probs,
                                bool to_error) const;
  void epoch_head(Task& task, double* params, std::size_t epoch,
                  double* probs, double* gb) const;
  void backward_step(const Task& task, double* params, const double* probs,
                     double* gt, std::size_t k0, std::size_t k1) const;
  void finish(Task& task, const double* params, double* probs) const;
  void train_whole(Task& task, double* params, Scratch& scratch) const;

  void run_item(const Phase& phase, std::size_t party, std::size_t item);
  void run_phase(Team* team, const Phase& phase);
  void train_split(Team* team, std::span<Task> tasks, std::size_t model,
                   std::size_t parties);
  void claim(Team& team, std::uint64_t phase_seq, std::size_t party);
  static void help(const std::shared_ptr<Team>& team);

  LogisticRegressionConfig config_;
  std::size_t param_count_ = 0;
  std::size_t param_stride_ = 0;  // slot stride, 64-byte multiple
  std::size_t probs_stride_ = 0;

  AlignedVector params_;            // K × param_stride_ parameter slots
  std::vector<Scratch> scratch_;    // one per party
  std::vector<std::size_t> order_;  // whole-model task indices, then split
  /// The call's side job until the first phase has run it.
  const std::function<void()>* side_job_ = nullptr;
};

}  // namespace eefei::ml
