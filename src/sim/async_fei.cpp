#include "sim/async_fei.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "ml/model_bank.h"
#include "ml/model_spec.h"
#include "ml/quantize.h"
#include "ml/serialize.h"
#include "obs/telemetry.h"
#include "sim/calendar_queue.h"

namespace eefei::sim {

std::optional<std::size_t> AsyncRunResult::updates_to_accuracy(
    double target) const {
  for (const auto& u : updates) {
    if (u.test_accuracy >= target && u.test_accuracy > 0.0) {
      return u.update + 1;
    }
  }
  return std::nullopt;
}

AsyncFeiSystem::AsyncFeiSystem(AsyncFeiConfig config)
    : config_(std::move(config)) {}

Result<AsyncRunResult> AsyncFeiSystem::run() {
  const FeiSystemConfig& base = config_.base;
  // Negated comparisons so NaN fails them: a NaN α makes ω NaN, and a
  // negative or non-finite exponent makes α_s grow with staleness.
  if (!(config_.mixing_alpha > 0.0 && config_.mixing_alpha <= 1.0)) {
    return Error::invalid_argument("async: mixing_alpha must be in (0, 1]");
  }
  if (!(std::isfinite(config_.staleness_exponent) &&
        config_.staleness_exponent >= 0.0)) {
    return Error::invalid_argument(
        "async: staleness_exponent must be finite and >= 0");
  }
  if (config_.max_updates == 0) {
    return Error::invalid_argument("async: max_updates must be >= 1");
  }
  if (config_.eval_every == 0) {
    return Error::invalid_argument("async: eval_every must be >= 1");
  }
  Population population;
  if (const auto st = population.build(population_config_for(base));
      !st.ok()) {
    return st.error();
  }
  auto& clients = population.clients();
  auto& topology = population.topology();

  const std::size_t workers =
      std::min(base.fl.clients_per_round, clients.size());
  if (workers == 0) {
    return Error::invalid_argument("async: need at least one worker");
  }

  AsyncRunResult result;
  result.ledger = energy::EnergyLedger(clients.size());

  if (obs::Tracer* tr = obs::tracer()) {
    tr->set_track_name(obs::Tracer::kCoordinatorPid, "coordinator");
    for (std::size_t k = 0; k < clients.size(); ++k) {
      tr->set_track_name(obs::Tracer::server_pid(k),
                         "edge_server_" + std::to_string(k));
    }
  }

  const auto eval_model = ml::make_model(base.model);
  std::vector<double> global(eval_model->parameters().begin(),
                             eval_model->parameters().end());

  const std::size_t param_count = base.model.parameter_count();
  // Each completed task trains as a one-task bank (every population
  // client carries base.model and base.sgd).
  ml::ModelBank bank;
  bank.configure(base.model.lr_config());
  ml::ModelBank::Task task;
  task.epochs = base.fl.local_epochs;
  net::Message msg;
  msg.payload_bytes = ml::wire_size(param_count);

  // A task completion; the model the server pulled at dispatch waits in
  // snapshots[server] (a server has at most one task in flight).
  struct Completion {
    std::size_t server = 0;
    std::size_t start_version = 0;
  };
  CalendarQueue<Completion> queue;
  std::vector<std::vector<double>> snapshots(clients.size());
  Rng jitter_rng(base.seed * 104729 + 55);
  Rng straggler_rng(base.seed * 15485863 + 57);
  auto jittered = [&](Seconds nominal) {
    if (base.timing_jitter <= 0.0) return nominal;
    const double f =
        std::max(0.5, 1.0 + jitter_rng.normal(0.0, base.timing_jitter));
    return nominal * f;
  };
  std::vector<double> persistent_slowdown(clients.size(), 1.0);
  if (base.straggler_persistent && base.straggler_fraction > 0.0) {
    for (auto& f : persistent_slowdown) {
      if (straggler_rng.bernoulli(base.straggler_fraction)) {
        f = std::max(1.0, base.straggler_slowdown);
      }
    }
  }
  auto straggler_factor = [&](std::size_t sid) {
    if (base.straggler_fraction <= 0.0) return 1.0;
    if (base.straggler_persistent) return persistent_slowdown[sid];
    return straggler_rng.bernoulli(base.straggler_fraction)
               ? std::max(1.0, base.straggler_slowdown)
               : 1.0;
  };

  std::size_t version = 0;          // bumps on every applied update
  std::size_t applied = 0;
  bool stop = false;
  std::optional<Seconds> stop_time;

  // Energy pre-charged at dispatch for a task whose completion hasn't run
  // yet.  When the run stops, tasks still in flight never complete — their
  // charges move to kAborted instead of silently counting as useful work.
  struct InFlight {
    Joules download{0.0};
    Joules training{0.0};
    Joules upload{0.0};
  };
  std::vector<std::optional<InFlight>> in_flight(clients.size());

  // First stop request wins: it pins the wall clock to the stopping
  // update's completion time and cancels everything still queued, so late
  // completions neither run nor stretch the reported makespan.
  auto request_stop = [&] {
    if (stop) return;
    stop = true;
    stop_time = queue.now();
    // clear(), not reset(): the clock must stay pinned at the stopping
    // update's completion time — stop_time and the cancelled-task instants
    // below read queue.now() after this point.
    queue.clear();
  };

  // Starts one training task for `server` from the current global model;
  // schedules its completion.
  auto dispatch = [&](std::size_t server) {
    if (stop) return;
    const std::size_t start_version = version;
    // Model download (async: no LAN serialization barrier — transfers are
    // short relative to training and overlap freely).
    const auto down = topology.lan(server).transfer(msg);
    const Seconds d = jittered(down.duration);
    // Retransmitted air time books as kRetry; only the useful share lands
    // in kDownload (and in the in-flight record, so an abort reclassifies
    // exactly what was charged there).
    const Seconds dw = down.wasted.value() > 0.0
                           ? d * (down.wasted / down.duration)
                           : Seconds{0.0};
    if (dw.value() > 0.0) {
      result.ledger.charge(
          server, energy::EnergyCategory::kRetry,
          base.profile.power(energy::EdgeState::kDownloading) * dw);
    }
    result.ledger.charge(
        server, energy::EnergyCategory::kDownload,
        base.profile.power(energy::EdgeState::kDownloading) * (d - dw));

    // Snapshot the global model NOW (the server trains on what it pulled).
    snapshots[server].assign(global.begin(), global.end());

    Seconds train = jittered(config_.base.timing.duration(
        base.fl.local_epochs, clients[server].num_samples()));
    train *= straggler_factor(server);
    result.ledger.charge(
        server, energy::EnergyCategory::kTraining,
        base.profile.power(energy::EdgeState::kTraining) * train);

    const auto up = topology.lan(server).transfer(msg);
    const Seconds u = jittered(up.duration);
    const Seconds uw = up.wasted.value() > 0.0
                           ? u * (up.wasted / up.duration)
                           : Seconds{0.0};
    if (uw.value() > 0.0) {
      result.ledger.charge(
          server, energy::EnergyCategory::kRetry,
          base.profile.power(energy::EdgeState::kUploading) * uw);
    }
    result.ledger.charge(
        server, energy::EnergyCategory::kUpload,
        base.profile.power(energy::EdgeState::kUploading) * (u - uw));

    in_flight[server] = InFlight{
        base.profile.power(energy::EdgeState::kDownloading) * (d - dw),
        base.profile.power(energy::EdgeState::kTraining) * train,
        base.profile.power(energy::EdgeState::kUploading) * (u - uw)};

    // The whole task timeline is known at dispatch (the computation runs
    // lazily at completion), so the three phase spans are recorded here.
    if (obs::Tracer* tr = obs::tracer()) {
      const std::int32_t pid = obs::Tracer::server_pid(server);
      const Seconds at = queue.now();
      tr->sim_span("downloading", "sim.phase", pid, at, d);
      tr->sim_span("training", "sim.phase", pid, at + d, train);
      tr->sim_span("uploading", "sim.phase", pid, at + d + train, u);
    }

    queue.schedule_in(d + train + u, Completion{server, start_version});
  };

  // Applies one finished task, then sends its server straight back out.
  auto complete = [&](const Completion& c, Seconds at) {
    const std::size_t server = c.server;
    in_flight[server].reset();
    // The actual computation happens lazily at completion time, using
    // the snapshot the server pulled at dispatch.
    task.batch = clients[server].local_batch();
    task.learning_rate =
        base.sgd.learning_rate *
        std::pow(base.sgd.decay, static_cast<double>(applied / workers));
    bank.train(snapshots[server], {&task, 1});
    const auto update = bank.params_of(0);

    const std::size_t staleness = version - c.start_version;
    const double alpha_s =
        config_.mixing_alpha /
        std::pow(1.0 + static_cast<double>(staleness),
                 config_.staleness_exponent);
    for (std::size_t i = 0; i < global.size(); ++i) {
      global[i] = (1.0 - alpha_s) * global[i] + alpha_s * update[i];
    }
    ++version;

    AsyncUpdateRecord rec;
    rec.update = applied;
    rec.server = server;
    rec.staleness = staleness;
    rec.mixing_weight = alpha_s;
    rec.applied_at = at;

    const bool eval_now = (applied % config_.eval_every == 0) ||
                          (applied + 1 == config_.max_updates);
    if (eval_now) {
      auto params = eval_model->parameters();
      std::copy(global.begin(), global.end(), params.begin());
      const auto eval = eval_model->evaluate(population.test_set().view());
      rec.global_loss = eval.loss;
      rec.test_accuracy = eval.accuracy;
      result.final_accuracy = eval.accuracy;
      result.final_loss = eval.loss;
      if (base.fl.target_accuracy.has_value() &&
          eval.accuracy >= *base.fl.target_accuracy) {
        result.reached_target = true;
        request_stop();
      }
    }
    if (obs::Telemetry* tel = obs::telemetry()) {
      tel->tracer.sim_instant(
          "update.applied", "sim.async", obs::Tracer::kCoordinatorPid,
          rec.applied_at,
          {{"update", static_cast<double>(rec.update)},
           {"server", static_cast<double>(server)},
           {"staleness", static_cast<double>(staleness)},
           {"alpha", alpha_s}});
      tel->metrics.counter("async.updates").increment();
    }
    result.updates.push_back(std::move(rec));
    ++applied;
    if (applied >= config_.max_updates) request_stop();
    if (!stop) dispatch(server);  // pull the fresh model, keep going
  };

  // Seed the initial worker pool with distinct servers.
  Rng pick_rng(base.seed * 7727 + 3);
  std::vector<std::size_t> ids(clients.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  pick_rng.shuffle(ids);
  for (std::size_t w = 0; w < workers; ++w) dispatch(ids[w]);

  queue.run(complete);

  // Tasks cancelled by the stop never delivered an update: their
  // pre-charged energy is lost work, not download/training/upload.
  for (std::size_t s = 0; s < in_flight.size(); ++s) {
    if (!in_flight[s].has_value()) continue;
    result.ledger.reclassify(s, energy::EnergyCategory::kDownload,
                             energy::EnergyCategory::kAborted,
                             in_flight[s]->download);
    result.ledger.reclassify(s, energy::EnergyCategory::kTraining,
                             energy::EnergyCategory::kAborted,
                             in_flight[s]->training);
    result.ledger.reclassify(s, energy::EnergyCategory::kUpload,
                             energy::EnergyCategory::kAborted,
                             in_flight[s]->upload);
    ++result.cancelled_tasks;
    if (obs::Telemetry* tel = obs::telemetry()) {
      tel->tracer.sim_instant("task.cancelled", "sim.async",
                              obs::Tracer::server_pid(s),
                              stop_time.value_or(queue.now()));
      tel->metrics.counter("async.cancelled").increment();
    }
  }

  result.updates_applied = applied;
  // The run ends at the stopping update, not at whatever cancelled
  // completion happened to drain from the queue last.
  result.wall_clock = stop_time.value_or(queue.now());
  return result;
}

}  // namespace eefei::sim
