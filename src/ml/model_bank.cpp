#include "ml/model_bank.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <exception>
#include <thread>
#include <utility>

#include "common/thread_pool.h"
#include "ml/simd.h"

namespace eefei::ml {

namespace {

constexpr std::size_t kSlotAlign = kTensorAlignment / sizeof(double);

/// A split model's forward items cover whole groups of 8 samples (the
/// AVX-512 sample-lane group); its backward items cover feature strips of
/// 16 (two AVX-512 8-k groups, on every backend's 4-block grid).
constexpr std::size_t kSampleGroup = 8;
constexpr std::size_t kFeatureStrip = 16;

/// Per-epoch work n·d·c below which a leftover model trains whole instead
/// of split.  A split epoch pays two phase hand-offs (a few µs); at the
/// fleet shape (n = 50, d = 144, c = 10: 72 000) an epoch costs ~20 µs and
/// splitting it measured slower (bench_micro BM_ModelBankTrain), at the
/// paper shape (250·784·10 ≈ 2·10⁶) ~0.4 ms and splitting pays.
constexpr std::size_t kSplitMinWork = std::size_t{1} << 18;

/// Whole-model items are chunks of at least this much work n·d·c·(E + 1)
/// — a claim is one contended atomic, well under a µs — and at most
/// kChunksPerParty per party.  More chunks than parties let a party that
/// starts late (a helper waiting for a worker, party 0 running the side
/// job) find work left instead of stranding a fixed share.  At the
/// fault-path fleet shape (K = 2200, n = 4, d = 16, c = 10, E = 1) that is
/// 32 chunks on 2 parties.
constexpr std::size_t kChunkMinWork = std::size_t{1} << 15;
constexpr std::size_t kChunksPerParty = 16;

std::size_t round_up(std::size_t n, std::size_t multiple) {
  return (n + multiple - 1) / multiple * multiple;
}

void ensure_doubles(AlignedVector& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(n);
}

/// Item i of `items` near-equal parts of [0, n) in units of `unit`.
std::pair<std::size_t, std::size_t> part(std::size_t n, std::size_t unit,
                                         std::size_t items, std::size_t i) {
  const std::size_t units = (n + unit - 1) / unit;
  return {std::min(n, unit * (units * i / items)),
          std::min(n, unit * (units * (i + 1) / items))};
}

/// The serial element update: g·(1/n), + λ·w, w −= lr·g.
inline void sgd_step(double& w, double g, double inv_n, double lambda,
                     double lr) {
  g *= inv_n;
  if (lambda > 0.0) g += lambda * w;
  w -= lr * g;
}

/// Waiting party: spins briefly, then yields, since phases are microseconds
/// apart but a waiting party must not keep a core another thread needs.
class Backoff {
 public:
  void pause() {
    if (++spins_ > 64) std::this_thread::yield();
  }

 private:
  unsigned spins_ = 0;
};

}  // namespace

/// What the parties of one pooled train() call share.  Helpers hold it by
/// shared_ptr because one may start after the call has returned; they
/// touch `bank` and `phase` only between join() and leave(), and the call
/// does not return while a helper is joined.
struct ModelBank::Team {
  static constexpr std::uint32_t kClosed = 1u << 31;

  /// (phase sequence << 32) | items of that phase not yet claimed.
  std::atomic<std::uint64_t> work{0};
  /// Items of the current phase finished.
  std::atomic<std::uint32_t> done{0};
  /// kClosed once party 0 is finished | helpers joined and not yet left.
  std::atomic<std::uint32_t> members{0};
  std::atomic<std::size_t> next_party{1};

  ModelBank* bank = nullptr;
  /// Written by party 0 only while no item is claimed or running.
  Phase phase;
  std::uint64_t phase_seq = 0;  // party 0's

  bool join() {
    std::uint32_t m = members.load(std::memory_order_acquire);
    do {
      if ((m & kClosed) != 0) return false;
    } while (!members.compare_exchange_weak(m, m + 1,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire));
    return true;
  }
  void leave() { members.fetch_sub(1, std::memory_order_release); }
  [[nodiscard]] bool closed() const {
    return (members.load(std::memory_order_acquire) & kClosed) != 0;
  }
  /// Party 0: no helper joins after this, and it returns once every
  /// joined helper has left.
  void close() {
    members.fetch_or(kClosed, std::memory_order_acq_rel);
    Backoff backoff;
    while ((members.load(std::memory_order_acquire) & ~kClosed) != 0) {
      backoff.pause();
    }
  }
};

void ModelBank::configure(const LogisticRegressionConfig& config) {
  assert(config.input_dim > 0 && config.num_classes >= 2);
  config_ = config;
  param_count_ = config.input_dim * config.num_classes + config.num_classes;
  param_stride_ = round_up(param_count_, kSlotAlign);
  probs_stride_ = round_up(config.num_classes, kSlotAlign);
}

double ModelBank::penalty(const double* params) const {
  if (config_.l2_lambda <= 0.0) return 0.0;
  double sq = 0.0;
  for (std::size_t i = 0; i < param_count_; ++i) sq += params[i] * params[i];
  return 0.5 * config_.l2_lambda * sq;
}

// Forward of rows [s0, s1) at `params` into their activation rows.
void ModelBank::forward(const Task& task, const double* params,
                        std::size_t s0, std::size_t s1, double* probs) const {
  lr_forward_rows(config_, params,
                  task.batch.features.data() + s0 * config_.input_dim,
                  s1 - s0, probs + s0 * probs_stride_, probs_stride_);
}

// Data loss summed over the rows, ascending s; with `to_error` each row
// then becomes its error p − y (after its own loss term read it).
double ModelBank::loss_sum(const Task& task, double* probs,
                           bool to_error) const {
  double sum = 0.0;
  for (std::size_t s = 0; s < task.batch.size(); ++s) {
    double* row = probs + s * probs_stride_;
    const int label = task.batch.labels[s];
    lr_accumulate_row_loss(config_.activation, row, label,
                           config_.num_classes, sum);
    if (to_error) row[static_cast<std::size_t>(label)] -= 1.0;
  }
  return sum;
}

// The part of an epoch between its forward and its backward: the loss
// (initial_loss at epoch 0), the rows' errors, then the bias gradient,
// ascending s, and the bias step.  The penalty reads the parameters
// before either step.
void ModelBank::epoch_head(Task& task, double* params, std::size_t epoch,
                           double* probs, double* gb) const {
  const std::size_t n = task.batch.size();
  const std::size_t c = config_.num_classes;
  const double sum = loss_sum(task, probs, /*to_error=*/true);
  std::fill(gb, gb + c, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    const double* row = probs + s * probs_stride_;
    for (std::size_t j = 0; j < c; ++j) gb[j] += row[j];
  }
  const double loss = sum / static_cast<double>(n) + penalty(params);
  if (epoch == 0) task.initial_loss = loss;
  const double inv_n = 1.0 / static_cast<double>(n);
  double* b = params + config_.input_dim * c;
  for (std::size_t j = 0; j < c; ++j) {
    sgd_step(b[j], gb[j], inv_n, config_.l2_lambda, task.learning_rate);
  }
}

// Backward of every sample into the transposed gradient's k strip
// [k0, k1), then the step of weight rows [k0, k1).
void ModelBank::backward_step(const Task& task, double* params,
                              const double* probs, double* gt,
                              std::size_t k0, std::size_t k1) const {
  const std::size_t n = task.batch.size();
  const std::size_t d = config_.input_dim;
  const std::size_t c = config_.num_classes;
  for (std::size_t j = 0; j < c; ++j) {
    std::fill(gt + j * d + k0, gt + j * d + k1, 0.0);
  }
  simd::kernels().accumulate_outer_transposed(
      task.batch.features.data() + k0, n, k1 - k0, d, c, probs,
      probs_stride_, gt + k0);
  const double inv_n = 1.0 / static_cast<double>(n);
  const double lambda = config_.l2_lambda;
  const double lr = task.learning_rate;
  for (std::size_t kk = k0; kk < k1; ++kk) {
    for (std::size_t j = 0; j < c; ++j) {
      sgd_step(params[kk * c + j], gt[j * d + kk], inv_n, lambda, lr);
    }
  }
}

// The serial reference's final model.evaluate(batch), after the forward
// of every row at the trained parameters.
void ModelBank::finish(Task& task, const double* params, double* probs) const {
  task.final_loss =
      loss_sum(task, probs, /*to_error=*/false) /
          static_cast<double>(task.batch.size()) +
      penalty(params);
  if (task.epochs == 0) task.initial_loss = task.final_loss;
}

void ModelBank::train_whole(Task& task, double* params,
                            Scratch& scratch) const {
  const std::size_t n = task.batch.size();
  const std::size_t d = config_.input_dim;
  double* gt = scratch.grad.data();  // gt[j·d + kk] ≡ dW[kk·c + j]
  double* probs = scratch.probs.data();
  for (std::size_t e = 0; e < task.epochs; ++e) {
    forward(task, params, 0, n, probs);
    epoch_head(task, params, e, probs, gt + d * config_.num_classes);
    backward_step(task, params, probs, gt, 0, d);
  }
  forward(task, params, 0, n, probs);
  finish(task, params, probs);
}

void ModelBank::run_item(const Phase& phase, std::size_t party,
                         std::size_t item) {
  if (phase.kind == Kind::kWhole) {
    const auto [begin, end] = part(phase.whole, 1, phase.items, item);
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t m = order_[i];
      train_whole(phase.tasks[m], slot(m), scratch_[party]);
    }
    return;
  }
  // A split model's phases work in party 0's scratch.
  const Task& task = phase.tasks[phase.model];
  double* params = slot(phase.model);
  Scratch& team = scratch_[0];
  if (phase.kind == Kind::kForward) {
    const auto [s0, s1] =
        part(task.batch.size(), kSampleGroup, phase.items, item);
    forward(task, params, s0, s1, team.probs.data());
  } else {
    const auto [k0, k1] =
        part(config_.input_dim, kFeatureStrip, phase.items, item);
    backward_step(task, params, team.probs.data(), team.grad.data(), k0, k1);
  }
}

// Claims and runs items of phase `phase_seq` until none is left unclaimed
// or a later phase has been published.
void ModelBank::claim(Team& team, std::uint64_t phase_seq,
                      std::size_t party) {
  std::uint64_t w = team.work.load(std::memory_order_acquire);
  while ((w >> 32) == phase_seq && (w & 0xffffffffu) != 0) {
    if (!team.work.compare_exchange_weak(w, w - 1, std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      continue;
    }
    // The claim holds the phase open, so its descriptor is stable here.
    const std::size_t items = team.phase.items;
    run_item(team.phase, party, items - (w & 0xffffffffu));
    team.done.fetch_add(1, std::memory_order_release);
    w = team.work.load(std::memory_order_acquire);
  }
}

// Party 0: publishes `phase`, runs the pending side job (the first phase
// of a call only), works on the phase, and returns when every item is done
// — by whichever party claimed it.  Without a team it runs the side job,
// then the items in order.
void ModelBank::run_phase(Team* team, const Phase& phase) {
  const auto run_side_job = [this] {
    if (const auto* job = std::exchange(side_job_, nullptr)) (*job)();
  };
  if (team == nullptr) {
    run_side_job();
    for (std::size_t i = 0; i < phase.items; ++i) run_item(phase, 0, i);
    return;
  }
  team->phase = phase;
  team->done.store(0, std::memory_order_relaxed);
  const std::uint64_t seq = ++team->phase_seq;
  team->work.store(seq << 32 | phase.items, std::memory_order_release);
  run_side_job();
  claim(*team, seq, 0);
  Backoff backoff;
  while (team->done.load(std::memory_order_acquire) != phase.items) {
    backoff.pause();
  }
}

void ModelBank::train_split(Team* team, std::span<Task> tasks,
                            std::size_t model, std::size_t parties) {
  Task& task = tasks[model];
  double* params = slot(model);
  Scratch& mine = scratch_[0];
  const std::size_t d = config_.input_dim;
  // One item per party.  Party 0 claims first, so it keeps item 0's rows
  // and strips in its cache from epoch to epoch.
  const Phase fwd{Kind::kForward,
                  std::min(parties, (task.batch.size() + kSampleGroup - 1) /
                                        kSampleGroup),
                  tasks, 0, model};
  const Phase bwd{Kind::kBackward,
                  std::min(parties, (d + kFeatureStrip - 1) / kFeatureStrip),
                  tasks, 0, model};
  for (std::size_t e = 0; e < task.epochs; ++e) {
    run_phase(team, fwd);
    epoch_head(task, params, e, mine.probs.data(),
               mine.grad.data() + d * config_.num_classes);
    run_phase(team, bwd);
  }
  run_phase(team, fwd);
  finish(task, params, mine.probs.data());
}

void ModelBank::help(const std::shared_ptr<Team>& team) {
  if (!team->join()) return;
  const std::size_t party =
      team->next_party.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t seen = 0;
  Backoff backoff;
  for (;;) {
    const std::uint64_t seq =
        team->work.load(std::memory_order_acquire) >> 32;
    if (seq != seen) {
      seen = seq;
      team->bank->claim(*team, seq, party);
      backoff = Backoff{};
    } else if (team->closed()) {
      break;
    } else {
      backoff.pause();
    }
  }
  team->leave();
}

void ModelBank::train(std::span<const double> global, std::span<Task> tasks,
                      ThreadPool* pool, const std::function<void()>& side_job) {
  assert(global.size() == param_count_);
  const std::size_t k = tasks.size();
  if (k == 0) {
    if (side_job) side_job();
    return;
  }
  const std::size_t d = config_.input_dim;
  const std::size_t c = config_.num_classes;

  std::size_t max_n = 0;
  for (const Task& t : tasks) {
    assert(t.batch.valid());
    assert(t.batch.feature_dim == d);
    max_n = std::max(max_n, t.batch.size());
  }
  ensure_doubles(params_, k * param_stride_);
  for (std::size_t i = 0; i < k; ++i) {
    std::copy(global.begin(), global.end(), slot(i));
  }

  // The schedule: the first K − (K mod W) models and any leftover too
  // small to split are whole-model items, claimed in chunks; the other
  // leftover models are split across every party.
  const std::size_t workers = pool != nullptr ? pool->size() : 1;
  const std::size_t leftover = k % workers;
  order_.clear();
  for (std::size_t i = 0; i < k - leftover; ++i) order_.push_back(i);
  const auto splits = [&](std::size_t i) {
    return tasks[i].batch.size() * d * c >= kSplitMinWork;
  };
  for (std::size_t i = k - leftover; i < k; ++i) {
    if (!splits(i)) order_.push_back(i);
  }
  const std::size_t whole = order_.size();
  for (std::size_t i = k - leftover; i < k; ++i) {
    if (splits(i)) order_.push_back(i);
  }
  // Parties never outnumber the pool's workers, whatever the chunk count.
  const std::size_t parties = whole < k ? workers : std::min(whole, workers);
  std::size_t work = 0;
  for (std::size_t i = 0; i < whole; ++i) {
    const Task& t = tasks[order_[i]];
    work += t.batch.size() * d * c * (t.epochs + 1);
  }
  const std::size_t chunks =
      std::clamp(work / kChunkMinWork, std::min(whole, parties),
                 std::min(whole, kChunksPerParty * parties));

  if (scratch_.size() < parties) scratch_.resize(parties);
  for (std::size_t p = 0; p < parties; ++p) {
    ensure_doubles(scratch_[p].grad, param_count_);
    ensure_doubles(scratch_[p].probs, max_n * probs_stride_);
  }

  std::shared_ptr<Team> team;
  if (parties > 1) {
    team = std::make_shared<Team>();
    team->bank = this;
    for (std::size_t p = 1; p < parties; ++p) {
      pool->post([team] { help(team); });
    }
  }
  // The first phase published runs the side job.  A throwing side job
  // must not unwind past helpers still joined to the team: training
  // finishes first, then the exception propagates.
  std::exception_ptr side_failure;
  const std::function<void()> guarded = [&] {
    try {
      side_job();
    } catch (...) {
      side_failure = std::current_exception();
    }
  };
  side_job_ = side_job ? &guarded : nullptr;
  if (whole > 0) run_phase(team.get(), {Kind::kWhole, chunks, tasks, whole});
  for (std::size_t i = whole; i < k; ++i) {
    train_split(team.get(), tasks, order_[i], parties);
  }
  assert(side_job_ == nullptr);
  if (team) team->close();
  if (side_failure) std::rethrow_exception(side_failure);
}

}  // namespace eefei::ml
