#include "fl/coordinator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "ml/model_spec.h"
#include "ml/quantize.h"
#include "obs/telemetry.h"

namespace eefei::fl {

Coordinator::Coordinator(const std::vector<Client>* clients,
                         const data::Dataset* test_set,
                         CoordinatorConfig config,
                         std::unique_ptr<SelectionPolicy> policy)
    : owned_clients_view_(std::make_unique<DenseClientPool>(clients)),
      clients_(owned_clients_view_.get()),
      test_set_(test_set),
      config_(config),
      policy_(std::move(policy)) {
  assert(clients != nullptr);
  assert(test_set_ != nullptr);
  assert(policy_ != nullptr);
}

Coordinator::Coordinator(const ClientPool* pool, const data::Dataset* test_set,
                         CoordinatorConfig config,
                         std::unique_ptr<SelectionPolicy> policy)
    : clients_(pool),
      test_set_(test_set),
      config_(config),
      policy_(std::move(policy)) {
  assert(clients_ != nullptr);
  assert(test_set_ != nullptr);
  assert(policy_ != nullptr);
}

void Coordinator::set_initial_params(std::vector<double> params) {
  initial_params_ = std::move(params);
}

void Coordinator::resume_from(const TrainingCheckpoint& checkpoint) {
  initial_params_ = checkpoint.params;
  start_round_ = checkpoint.rounds_completed;
}

Result<TrainingOutcome> Coordinator::run() {
  if (clients_->empty()) {
    return Error::invalid_argument("coordinator: no clients");
  }
  if (config_.clients_per_round == 0) {
    return Error::invalid_argument("coordinator: K must be >= 1");
  }
  if (config_.max_rounds == 0) {
    return Error::invalid_argument("coordinator: max_rounds must be >= 1");
  }
  if (config_.eval_every == 0) {
    return Error::invalid_argument("coordinator: eval_every must be >= 1");
  }

  // ω_0 comes from a freshly constructed model: the all-zero vector for
  // the paper's (convex) logistic regression unless the spec asks for a
  // random init.
  const auto init_model = ml::make_model(clients_->client(0).config().model);
  const std::size_t param_count = init_model->parameter_count();
  std::vector<double> global(init_model->parameters().begin(),
                             init_model->parameters().end());
  if (initial_params_.has_value()) {
    if (initial_params_->size() != param_count) {
      return Error::invalid_argument(
          "coordinator: initial params size mismatch");
    }
    global = *initial_params_;
  }

  ml::Model& evaluator = eval_model();
  ThreadPool* pool = acquire_pool();

  // Host-side wall-time distributions, resolved once per run.  Null when
  // telemetry is off; the clock reads below are gated on these handles, so
  // untraced runs pay nothing.
  obs::QuantileSketch* sk_train_wall = nullptr;
  obs::QuantileSketch* sk_eval_wall = nullptr;
  obs::Tracer* wall_clock_src = nullptr;
  if (obs::Telemetry* tel = obs::telemetry()) {
    sk_train_wall = &tel->metrics.sketch("fl.train.wall_ns");
    sk_eval_wall = &tel->metrics.sketch("fl.eval.wall_ns");
    wall_clock_src = &tel->tracer;
  }

  TrainingOutcome outcome;
  std::size_t cumulative_epochs = 0;
  Rng drop_rng(config_.drop_seed);
  std::vector<double> client_average(param_count, 0.0);
  // Reused across rounds, so each update keeps its parameter buffer.
  std::vector<LocalTrainResult> updates;

  for (std::size_t t = start_round_; t < start_round_ + config_.max_rounds;
       ++t) {
    // Fault tolerance: over-select K′ = K + overselect so the round can
    // lose updates to links/deadlines and still aggregate about K of them.
    const auto selected = policy_->select(
        clients_->size(), config_.clients_per_round + config_.overselect, t);
    assert(!selected.empty());

    // Shared download payload: serialize ω_t exactly once per round into a
    // reusable buffer.  The K client downloads all reference this one blob
    // (bytes down = blob × K), where the naive path would serialize — and
    // allocate — per client.  Clients still train on the double-precision
    // span: the float32 blob is the wire representation, and feeding its
    // roundtrip into training would change the trajectory.
    ml::serialize_parameters_into(global, round_payload_);
    if (obs::Telemetry* tel = obs::telemetry()) {
      tel->metrics.counter("fl.payload.bytes_serialized")
          .add(static_cast<double>(round_payload_.size_bytes()));
      tel->metrics.counter("fl.payload.bytes_down")
          .add(static_cast<double>(round_payload_.size_bytes() *
                                   selected.size()));
    }

    // Local training — every client trains from ω_t at the round-t lr —
    // and, beside it, the simulation-layer filter, which decides which
    // updates survive their link/deadline/crash fate before aggregation.
    updates.resize(selected.size());
    RoundFaultStats fault_stats;
    {
      const std::uint64_t t0 =
          sk_train_wall != nullptr ? wall_clock_src->wall_now_ns() : 0;
      obs::Tracer::WallSpan span(
          obs::tracer(), "fl.train", "host.fl",
          {{"round", static_cast<double>(t)},
           {"clients", static_cast<double>(selected.size())}});
      if (const auto st =
              train_round(global, selected, t, updates, fault_stats);
          !st.ok()) {
        return st.error();
      }
      if (sk_train_wall != nullptr) {
        sk_train_wall->record(
            static_cast<double>(wall_clock_src->wall_now_ns() - t0));
      }
    }

    // Lossy-upload extension: each update crosses the wire quantized.
    if (config_.upload_quant_bits != 0 && config_.upload_quant_bits != 32) {
      for (auto& u : updates) {
        if (const auto st =
                ml::quantize_roundtrip(u.params, config_.upload_quant_bits);
            !st.ok()) {
          return st.error();
        }
      }
    }

    // Failure injection: drop (still-surviving) updates with the configured
    // probability.  Without a filter, at least one update per round always
    // survives so aggregation is defined; with a filter a round may
    // legitimately end empty.
    if (config_.update_drop_probability > 0.0) {
      std::vector<std::size_t> eligible;
      eligible.reserve(updates.size());
      for (std::size_t i = 0; i < updates.size(); ++i) {
        if (updates[i].aggregated) eligible.push_back(i);
      }
      for (const std::size_t i : eligible) {
        updates[i].aggregated =
            !drop_rng.bernoulli(config_.update_drop_probability);
      }
      const bool any_survivor =
          std::any_of(updates.begin(), updates.end(),
                      [](const LocalTrainResult& u) { return u.aggregated; });
      if (!any_survivor && !eligible.empty()) {
        updates[eligible[drop_rng.uniform_index(eligible.size())]]
            .aggregated = true;
      }
    }
    // Aggregate over the surviving updates, in place: aggregate() skips the
    // ones a filter or the drop roll cleared.
    const auto survivor_count = static_cast<std::size_t>(
        std::count_if(updates.begin(), updates.end(),
                      [](const LocalTrainResult& u) { return u.aggregated; }));
    if (survivor_count > 0) {
      if (const auto st =
              aggregate(updates, config_.aggregation, client_average);
          !st.ok()) {
        return st.error();
      }
      // ω_{t+1} = the aggregated average (Eq. 2), written as ω −= ω − avg
      // rather than ω = avg: the two can differ in the last bit, and every
      // pinned trajectory was recorded with this form.
      for (std::size_t i = 0; i < param_count; ++i) {
        global[i] -= global[i] - client_average[i];
      }
    }
    // else: every update was lost this round — ω carries over unchanged.

    cumulative_epochs += config_.local_epochs;
    outcome.total_local_epochs += config_.local_epochs * selected.size();

    RoundRecord record;
    record.round = t;
    record.clients_selected = selected.size();
    record.updates_aggregated = survivor_count;
    record.local_epochs = config_.local_epochs;
    record.cumulative_local_epochs = cumulative_epochs;
    record.payload_bytes = round_payload_.size_bytes();
    record.selected = selected;
    record.retries = fault_stats.retries;
    record.aborted_updates = fault_stats.aborted_updates;
    record.straggler_drops = fault_stats.straggler_drops;
    record.crashed_servers = fault_stats.crashed_servers;
    double mean_local = 0.0;
    for (const auto& u : updates) mean_local += u.final_loss;
    record.mean_local_loss = mean_local / static_cast<double>(updates.size());

    // The final round is forced to evaluate; with a resumed run the loop
    // ends at start_round_ + max_rounds, not max_rounds.
    const bool eval_round = (t % config_.eval_every == 0) ||
                            (t + 1 == start_round_ + config_.max_rounds);
    if (eval_round) {
      const std::uint64_t t0 =
          sk_eval_wall != nullptr ? wall_clock_src->wall_now_ns() : 0;
      obs::Tracer::WallSpan span(obs::tracer(), "fl.eval", "host.fl",
                                 {{"round", static_cast<double>(t)}});
      auto params = evaluator.parameters();
      std::copy(global.begin(), global.end(), params.begin());
      const auto eval = ml::evaluate_sharded(evaluator, test_set_->view(),
                                             pool, eval_workspaces_);
      record.global_loss = eval.loss;
      record.test_accuracy = eval.accuracy;
      if (obs::Telemetry* tel = obs::telemetry()) {
        tel->metrics.counter("fl.evals").increment();
        if (sk_eval_wall != nullptr) {
          sk_eval_wall->record(
              static_cast<double>(wall_clock_src->wall_now_ns() - t0));
        }
      }
    } else if (!outcome.record.empty()) {
      record.global_loss = outcome.record.last().global_loss;
      record.test_accuracy = outcome.record.last().test_accuracy;
    }

    if (observer_) observer_(record, updates);
    outcome.record.add(record);
    outcome.rounds_run = t + 1 - start_round_;
    if (obs::Telemetry* tel = obs::telemetry()) {
      tel->metrics.counter("fl.rounds").increment();
    }

    // Periodic checkpoint autosave, so a coordinator crash loses at most
    // checkpoint_every rounds of work.
    if (config_.checkpoint_every != 0 && checkpoint_sink_ &&
        outcome.rounds_run % config_.checkpoint_every == 0) {
      checkpoint_sink_(TrainingCheckpoint{global, t + 1});
      if (obs::Telemetry* tel = obs::telemetry()) {
        tel->tracer.wall_instant("fl.checkpoint", "host.fl",
                                 {{"round", static_cast<double>(t)}});
        tel->metrics.counter("fl.checkpoints").increment();
      }
    }

    if (eval_round && config_.target_accuracy.has_value() &&
        record.test_accuracy >= *config_.target_accuracy) {
      outcome.reached_target = true;
      break;
    }
  }

  outcome.final_params = std::move(global);
  return outcome;
}

Status Coordinator::train_round(std::span<const double> global,
                                std::span<const ClientId> selected,
                                std::size_t round,
                                std::vector<LocalTrainResult>& updates,
                                RoundFaultStats& fault_stats) {
  // Each selected client is looked up once, here on the calling thread:
  // the bank needs its batch, and the update everything the filter reads.
  const Client first = clients_->client(selected[0]);
  const ClientConfig& cfg0 = first.config();
  // The paper's round-t learning rate, constant across the E local epochs.
  const double lr = cfg0.sgd.learning_rate *
                    std::pow(cfg0.sgd.decay, static_cast<double>(round));

  const std::size_t k = selected.size();
  tasks_.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    const Client client = i == 0 ? first : clients_->client(selected[i]);
    assert(client.id() == selected[i]);
    // The bank trains every model with one shape and one schedule.
    const ClientConfig& cfg = client.config();
    if (cfg.model.input_dim != cfg0.model.input_dim ||
        cfg.model.num_classes != cfg0.model.num_classes ||
        cfg.model.activation != cfg0.model.activation ||
        cfg.model.l2_lambda != cfg0.model.l2_lambda ||
        cfg.sgd.learning_rate != cfg0.sgd.learning_rate ||
        cfg.sgd.decay != cfg0.sgd.decay) {
      return Error::invalid_argument(
          "coordinator: selected clients disagree on model shape or sgd "
          "schedule");
    }
    ml::ModelBank::Task& task = tasks_[i];
    task.batch = client.local_batch();
    task.epochs = config_.local_epochs;
    task.learning_rate = lr;
    LocalTrainResult& update = updates[i];
    update.client = selected[i];
    update.epochs_run = config_.local_epochs;
    update.samples_used = task.batch.size();
    update.aggregated = true;
  }
  bank_.configure(cfg0.model.lr_config());
  if (update_filter_) {
    bank_.train(global, tasks_, pool_, [&] {
      fault_stats = update_filter_(round, selected, PendingUpdates(updates));
    });
  } else {
    bank_.train(global, tasks_, pool_);
  }
  // The trained state is filled on the pool: the parameter buffers are
  // then allocated in the workers' malloc arenas, as when each worker's
  // bank filled its own.  Allocated on this thread they fragment its heap
  // (fleet_faults, K = 2200: +3.5 MB peak RSS).
  const auto collect = [&](std::size_t i) {
    const ml::ModelBank::Task& task = tasks_[i];
    const auto params = bank_.params_of(i);
    LocalTrainResult& update = updates[i];
    update.params.assign(params.begin(), params.end());
    update.initial_loss = task.initial_loss;
    update.final_loss = task.final_loss;
  };
  if (pool_ != nullptr) {
    pool_->parallel_for(k, collect);
  } else {
    for (std::size_t i = 0; i < k; ++i) collect(i);
  }
  return Status::success();
}

ThreadPool* Coordinator::acquire_pool() {
  if (config_.threads <= 1) {
    pool_ = nullptr;
  } else if (pool_ == nullptr) {
    if (config_.threads == ThreadPool::shared().size()) {
      pool_ = &ThreadPool::shared();
    } else {
      owned_pool_ = std::make_unique<ThreadPool>(config_.threads);
      pool_ = owned_pool_.get();
    }
  }
  return pool_;
}

ml::Model& Coordinator::eval_model() {
  if (!eval_model_) {
    eval_model_ = ml::make_model(clients_->client(0).config().model);
  }
  return *eval_model_;
}

}  // namespace eefei::fl
