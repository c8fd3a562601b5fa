// FL coordinator — drives the FedAvg loop of the paper's Fig. 1:
// select 𝒦_t, dispatch ω_t, collect ω_{k,t} after E local epochs,
// aggregate (Eq. 2), evaluate, repeat until the accuracy/loss target or
// the round cap T_max is reached.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "fl/aggregator.h"
#include "fl/checkpoint.h"
#include "fl/client.h"
#include "fl/client_pool.h"
#include "fl/selection.h"
#include "fl/training_record.h"
#include "ml/model_bank.h"
#include "ml/serialize.h"

namespace eefei::fl {

struct CoordinatorConfig {
  std::size_t clients_per_round = 10;  // K
  std::size_t local_epochs = 40;       // E
  std::size_t max_rounds = 500;        // hard cap on T
  /// Stop when test accuracy reaches this (nullopt disables).
  std::optional<double> target_accuracy;
  AggregationRule aggregation = AggregationRule::kUniformMean;
  /// Evaluate every this many rounds (1 = every round).
  std::size_t eval_every = 1;
  /// Worker threads for local training (ml::ModelBank's pooled schedule)
  /// and sharded test-set evaluation.  0 or 1 = run serially; a count matching
  /// the process-wide shared pool borrows it instead of spawning threads.
  /// Results are bit-identical for any value (independent models, a
  /// split model's per-element op order kept, deterministic chunked
  /// reduction).
  std::size_t threads = 0;
  /// Lossy-upload extension: quantize each uploaded model to this many
  /// bits per parameter (4/8/16).  0 or 32 = exact float upload.
  unsigned upload_quant_bits = 0;
  /// Failure injection: probability an update is lost before aggregation
  /// (upload failure / straggler past deadline).  At least one update per
  /// round always survives so the round can aggregate.
  double update_drop_probability = 0.0;
  std::uint64_t drop_seed = 99;
  /// Fault tolerance: select this many EXTRA servers beyond K each round
  /// (K′ = K + overselect), so the round can still aggregate K-ish updates
  /// when links fail or stragglers miss the deadline.
  std::size_t overselect = 0;
  /// Autosave a TrainingCheckpoint to the registered sink every this many
  /// completed rounds (0 = off).
  std::size_t checkpoint_every = 0;
  /// No-op, kept so existing callers compile (see
  /// ml::ModelBank::set_pack_cache): the bank no longer packs feature rows.
  bool pack_cache = false;
};

struct TrainingOutcome {
  TrainingRecord record;
  std::vector<double> final_params;
  bool reached_target = false;
  std::size_t rounds_run = 0;         // T actually executed this run
  std::size_t total_local_epochs = 0; // Σ_t Σ_{k∈𝒦_t} E

  /// Checkpoint of ω and the round count where this run stopped.
  /// `first_round` is the absolute index of this run's first round.  A
  /// resume restarts the selection and drop streams at their seeds, so
  /// with K < N it trains other cohorts than the uninterrupted run would;
  /// only round-robin selection or K = N continues that run.
  [[nodiscard]] TrainingCheckpoint checkpoint(
      std::size_t first_round = 0) const {
    return {final_params, first_round + rounds_run};
  }
};

/// Per-round observer, e.g. for the energy ledger: called after each
/// aggregation with the round record and the per-client updates.
using RoundObserver = std::function<void(
    const RoundRecord&, std::span<const LocalTrainResult>)>;

/// What a fault-injecting UpdateFilter reports back for one round; the
/// coordinator copies it into the RoundRecord.
struct RoundFaultStats {
  std::size_t retries = 0;           // failed attempts that were retried
  std::size_t aborted_updates = 0;   // lost to exhausted links / crashes
  std::size_t straggler_drops = 0;   // arrived after the round deadline
  std::size_t crashed_servers = 0;   // selected servers down or crashed
};

/// An UpdateFilter's view of a round's updates.  The filter runs while the
/// updates train, so it reads only what the round fixes before training —
/// each update's n_k and E (its client is the filter's `selected[i]`) —
/// and may veto an update.  Parameters and losses are not reachable
/// through it.
class PendingUpdates {
 public:
  PendingUpdates() = default;
  explicit PendingUpdates(std::span<LocalTrainResult> updates)
      : updates_(updates) {}

  [[nodiscard]] std::size_t size() const { return updates_.size(); }
  [[nodiscard]] std::size_t samples_used(std::size_t i) const {
    return updates_[i].samples_used;
  }
  [[nodiscard]] std::size_t epochs_run(std::size_t i) const {
    return updates_[i].epochs_run;
  }
  /// Update i does not reach the coordinator this round.
  void veto(std::size_t i) { updates_[i].aggregated = false; }

 private:
  std::span<LocalTrainResult> updates_;
};

/// Pre-aggregation hook: decides which updates actually reach the
/// coordinator this round (link failures, deadline stragglers, crashed
/// servers) by vetoing them.  The simulation layer installs this to run
/// its timing/energy model, so lost updates never influence ω.  An
/// update's fate depends only on what PendingUpdates exposes, so the
/// coordinator runs the filter on the calling thread while the pool's
/// helpers train the round (ml::ModelBank's side job): it must touch
/// nothing the training reads — the clients' batches or the bank.  A round
/// may end with zero survivors — the coordinator then skips aggregation
/// and keeps ω unchanged.
using UpdateFilter = std::function<RoundFaultStats(
    std::size_t round, std::span<const ClientId> selected,
    PendingUpdates updates)>;

/// Receives periodic checkpoint autosaves (see
/// CoordinatorConfig::checkpoint_every).
using CheckpointSink = std::function<void(const TrainingCheckpoint&)>;

class Coordinator {
 public:
  /// `clients` and `test_set` must outlive the coordinator.  The policy is
  /// owned.  The global model starts at the zero vector (convex problem).
  Coordinator(const std::vector<Client>* clients,
              const data::Dataset* test_set,
              CoordinatorConfig config,
              std::unique_ptr<SelectionPolicy> policy);

  /// Client-pool seam: the coordinator only ever needs "how many clients"
  /// and "give me client k", so any ClientPool works — a dense view over a
  /// materialized vector, or a pool that builds clients on access for
  /// virtual million-server populations.  `pool` must outlive the
  /// coordinator.
  Coordinator(const ClientPool* pool, const data::Dataset* test_set,
              CoordinatorConfig config,
              std::unique_ptr<SelectionPolicy> policy);

  /// Runs the federated loop.  Fails if there are no clients, K = 0, or a
  /// round's selected clients disagree on model shape or sgd schedule.
  [[nodiscard]] Result<TrainingOutcome> run();

  void set_round_observer(RoundObserver observer) {
    observer_ = std::move(observer);
  }

  void set_update_filter(UpdateFilter filter) {
    update_filter_ = std::move(filter);
  }

  void set_checkpoint_sink(CheckpointSink sink) {
    checkpoint_sink_ = std::move(sink);
  }

  /// Replaces the initial global parameters (default: a freshly
  /// constructed model per the clients' spec).
  void set_initial_params(std::vector<double> params);

  /// Resumes from a checkpoint: restores ω and continues the round
  /// numbering (so lr decay and round-indexed selection line up with the
  /// original run).  max_rounds then means "this many MORE rounds".
  void resume_from(const TrainingCheckpoint& checkpoint);

  [[nodiscard]] const CoordinatorConfig& config() const { return config_; }

 private:
  /// Local training for one round: one lookup per selected client, then
  /// one pooled ModelBank call over all of them, with the update filter
  /// (if any) as the bank's side job; its stats land in `fault_stats`.
  /// Fails — before training and filtering — when the selected clients
  /// disagree on model shape or sgd schedule.
  [[nodiscard]] Status train_round(std::span<const double> global,
                                   std::span<const ClientId> selected,
                                   std::size_t round,
                                   std::vector<LocalTrainResult>& updates,
                                   RoundFaultStats& fault_stats);

  /// Pool for this config's thread count: null for serial, the shared
  /// process-wide pool when sizes match, else a lazily-created pool owned
  /// by (and reused across run() calls of) this coordinator.
  [[nodiscard]] ThreadPool* acquire_pool();

  /// Evaluation model matching the clients' spec, created once and reused
  /// by every evaluation round.
  [[nodiscard]] ml::Model& eval_model();

  /// Owns the dense view when constructed from a raw vector<Client>.
  std::unique_ptr<DenseClientPool> owned_clients_view_;
  const ClientPool* clients_;
  const data::Dataset* test_set_;
  CoordinatorConfig config_;
  std::unique_ptr<SelectionPolicy> policy_;
  RoundObserver observer_;
  UpdateFilter update_filter_;
  CheckpointSink checkpoint_sink_;
  std::optional<std::vector<double>> initial_params_;
  std::size_t start_round_ = 0;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;
  /// Shared download payload: ω_t is serialized into this reusable blob
  /// once per round and every selected client's download references it,
  /// instead of one serialization (and allocation) per client.
  ml::ModelBlob round_payload_;
  std::unique_ptr<ml::Model> eval_model_;
  std::vector<ml::Workspace> eval_workspaces_;
  /// The round's bank and task list, reused across rounds so steady-state
  /// training is allocation-free inside the bank.
  ml::ModelBank bank_;
  std::vector<ml::ModelBank::Task> tasks_;
};

}  // namespace eefei::fl
