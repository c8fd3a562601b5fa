#include "sim/fei_system.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <thread>

#include "ml/quantize.h"
#include "ml/serialize.h"
#include "obs/telemetry.h"
#include "sim/edge_server_sim.h"
#include "sim/event_queue.h"

namespace eefei::sim {

FeiSystemConfig prototype_config() {
  FeiSystemConfig cfg;
  cfg.num_servers = 20;
  cfg.samples_per_server = 3000;
  cfg.test_samples = 2000;
  cfg.model.input_dim = 784;
  cfg.model.num_classes = 10;
  cfg.sgd.learning_rate = 0.01;
  cfg.sgd.decay = 0.99;
  cfg.fl.clients_per_round = 10;
  cfg.fl.local_epochs = 40;
  cfg.fl.max_rounds = 500;
  // Train the selected servers and shard the test-set evaluation across all
  // cores by default — results are bit-identical to a serial run.
  cfg.fl.threads = std::max<std::size_t>(
      1, std::thread::hardware_concurrency());
  cfg.net.num_edge_servers = cfg.num_servers;
  // 3.4 Mbps effective LAN throughput: a congested 2.4 GHz WiFi shared by
  // 20 stations; yields e^U ≈ 0.38 J per 31.4 kB model upload, the value
  // the optimizer defaults are calibrated against (DESIGN.md).
  cfg.net.lan.rate = BitsPerSecond::from_mbps(3.4);
  cfg.net.lan.base_latency = Seconds::from_millis(2.0);
  return cfg;
}

FeiSystem::FeiSystem(FeiSystemConfig config) : config_(std::move(config)) {}

PopulationConfig population_config_for(const FeiSystemConfig& config) {
  PopulationConfig pop;
  pop.num_servers = config.num_servers;
  pop.samples_per_server = config.samples_per_server;
  pop.test_samples = config.test_samples;
  pop.data = config.data;
  pop.partition = config.partition;
  pop.dirichlet_alpha = config.dirichlet_alpha;
  pop.shards_per_client = config.shards_per_client;
  pop.model = config.model;
  pop.sgd = config.sgd;
  pop.net = config.net;
  pop.seed = config.seed;
  return pop;
}

PopulationConfig FeiSystem::population_config() const {
  return population_config_for(config_);
}

Status FeiSystem::prepare() {
  if (prepared_) return Status::success();
  if (const auto st = population_.build(population_config()); !st.ok()) {
    return st;
  }
  prepared_ = true;
  return Status::success();
}

energy::FeiEnergyModel FeiSystem::energy_model() const {
  energy::FeiEnergyModel model;
  model.samples_per_server = config_.samples_per_server;
  model.training = energy::LocalTrainingModel::from_timing(
      config_.timing, config_.profile.power(energy::EdgeState::kTraining));

  const std::size_t param_count = config_.model.parameter_count();
  const std::size_t blob_payload =
      ml::valid_quant_bits(config_.upload_quant_bits)
          ? ml::quantized_wire_size(param_count, config_.upload_quant_bits)
          : ml::wire_size(param_count);
  const Bytes blob{
      static_cast<double>(blob_payload + net::Message::kHeaderBytes)};
  model.upload = energy::UploadModel::from_link(
      blob, config_.net.lan.rate, config_.net.lan.base_latency,
      config_.profile.power(energy::EdgeState::kUploading));

  if (config_.iot_collection) {
    const net::NbIotChannel probe(config_.net.device.uplink, Rng(0));
    model.collection.rho =
        probe.expected_energy(config_.net.device.sample_bytes);
  } else {
    model.collection.rho = Joules{0.0};
  }
  return model;
}

Result<FeiRunResult> FeiSystem::run() {
  if (const auto st = prepare(); !st.ok()) return st.error();

  FeiRunResult result;
  result.ledger = energy::EnergyLedger(config_.num_servers);

  std::vector<EdgeServerSim> servers;
  servers.reserve(config_.num_servers);
  for (std::size_t k = 0; k < config_.num_servers; ++k) {
    servers.emplace_back(k, config_.profile);
  }

  // Name the trace tracks up front: one pseudo-process per edge server plus
  // the coordinator's round track (Fig. 3 layout in the Perfetto UI).
  if (obs::Tracer* tr = obs::tracer()) {
    tr->set_track_name(obs::Tracer::kCoordinatorPid, "coordinator");
    for (std::size_t k = 0; k < config_.num_servers; ++k) {
      tr->set_track_name(obs::Tracer::server_pid(k),
                         "edge_server_" + std::to_string(k));
    }
  }

  const std::size_t param_count = config_.model.parameter_count();
  // The downlink always carries the exact global model; the uplink shrinks
  // when upload quantization is on.
  net::Message down_msg;
  down_msg.payload_bytes = ml::wire_size(param_count);
  net::Message up_msg = down_msg;
  if (ml::valid_quant_bits(config_.upload_quant_bits)) {
    up_msg.payload_bytes =
        ml::quantized_wire_size(param_count, config_.upload_quant_bits);
  }

  // One queue for the whole run, drained to empty every round: its clock
  // persists across rounds (never clear()/reset() between rounds), so the
  // next round's schedule_at timestamps — always >= the last drained event
  // — continue the same monotonic timeline.
  EventQueue queue;
  Rng jitter_rng(config_.seed * 104729 + 5);
  Rng straggler_rng(config_.seed * 15485863 + 7);
  net::CsmaCell csma(config_.csma, Rng(config_.seed * 48611 + 9));
  auto jittered = [&](Seconds nominal) {
    if (config_.timing_jitter <= 0.0) return nominal;
    const double f = std::max(
        0.5, 1.0 + jitter_rng.normal(0.0, config_.timing_jitter));
    return nominal * f;
  };
  // Persistent stragglers: slow hardware keeps its handicap for the whole
  // run; transient stragglers re-roll per task.
  std::vector<double> persistent_slowdown(config_.num_servers, 1.0);
  if (config_.straggler_persistent && config_.straggler_fraction > 0.0) {
    for (auto& f : persistent_slowdown) {
      if (straggler_rng.bernoulli(config_.straggler_fraction)) {
        f = std::max(1.0, config_.straggler_slowdown);
      }
    }
  }
  auto straggler_factor = [&](std::size_t sid) {
    if (config_.straggler_fraction <= 0.0) return 1.0;
    if (config_.straggler_persistent) return persistent_slowdown[sid];
    return straggler_rng.bernoulli(config_.straggler_fraction)
               ? std::max(1.0, config_.straggler_slowdown)
               : 1.0;
  };

  Seconds clock{0.0};

  // The per-round timing/energy simulation, invoked by the coordinator
  // after each aggregation.
  auto observer = [&](const fl::RoundRecord& record,
                      std::span<const fl::LocalTrainResult> updates) {
    const Seconds round_start = clock;
    // The LAN is a single shared medium: coordinator dispatches the global
    // model to the selected servers one at a time, and later their uploads
    // contend for the same medium (FCFS queue or CSMA/CA, per config).
    Seconds lan_free = round_start;
    Seconds round_end = round_start;
    std::size_t uploads_pending = record.selected.size();

    struct UploadPlan {
      std::size_t server;
      Seconds train_end{0.0};
    };

    for (std::size_t i = 0; i < record.selected.size(); ++i) {
      const std::size_t sid = record.selected[i];
      const std::size_t n_k = updates[i].samples_used;

      // Step (1): data collection from the IoT fleet (energy only; the
      // devices push concurrently with the model dispatch).
      if (config_.iot_collection) {
        const auto collected = population_.topology().fleet(sid).collect(n_k);
        if (collected.wasted_energy.value() > 0.0) {
          // Collision/battery-death energy books as kRetry so the
          // data-collection category only carries useful uplink work.
          result.ledger.charge(sid, energy::EnergyCategory::kRetry,
                               collected.wasted_energy);
          result.ledger.charge(
              sid, energy::EnergyCategory::kDataCollection,
              collected.total_energy - collected.wasted_energy);
        } else {
          result.ledger.charge(sid, energy::EnergyCategory::kDataCollection,
                               collected.total_energy);
        }
      }

      // Step (2): model download, serialized at the coordinator.
      const auto down = population_.topology().lan(sid).transfer(down_msg);
      const Seconds d = jittered(down.duration);
      const Seconds download_start = lan_free;
      lan_free += d;
      servers[sid].run_phase(energy::EdgeState::kDownloading, download_start,
                             d);
      if (down.wasted.value() > 0.0) {
        // Retransmitted share of the jittered air time → kRetry (the same
        // split as the fleet engine, preserving cross-engine bit-identity).
        const Seconds dw = d * (down.wasted / down.duration);
        result.ledger.charge(
            sid, energy::EnergyCategory::kRetry,
            config_.profile.power(energy::EdgeState::kDownloading) * dw);
        result.ledger.charge(
            sid, energy::EnergyCategory::kDownload,
            config_.profile.power(energy::EdgeState::kDownloading) * (d - dw));
      } else {
        result.ledger.charge(
            sid, energy::EnergyCategory::kDownload,
            config_.profile.power(energy::EdgeState::kDownloading) * d);
      }

      // Step (3): local training, with optional straggler slowdown.
      Seconds t = jittered(
          config_.timing.duration(record.local_epochs, n_k));
      t *= straggler_factor(sid);
      servers[sid].run_phase(energy::EdgeState::kTraining,
                             download_start + d, t);
      result.ledger.charge(
          sid, energy::EnergyCategory::kTraining,
          config_.profile.power(energy::EdgeState::kTraining) * t);

      // Step (4): upload — completion-ordered LAN contention, resolved
      // through the event queue.
      const Seconds train_end = download_start + d + t;
      queue.schedule_at(train_end, [&, sid, train_end] {
        Seconds u{0.0};
        Seconds u_wasted{0.0};
        Seconds upload_start = train_end;
        if (config_.lan_contention == FeiSystemConfig::LanContention::kCsma) {
          // CSMA/CA: contention with the other servers still uploading is
          // folded into the transfer duration itself.
          const auto r = csma.transfer(up_msg.wire_bytes(),
                                       uploads_pending - 1);
          u = jittered(r.duration);
        } else {
          // FCFS queue at the access point.
          const auto up = population_.topology().lan(sid).transfer(up_msg);
          u = jittered(up.duration);
          if (up.wasted.value() > 0.0) {
            u_wasted = u * (up.wasted / up.duration);
          }
          upload_start = std::max(train_end, lan_free);
          const Seconds queue_wait = upload_start - train_end;
          lan_free = upload_start + u;
          if (queue_wait.value() > 0.0) {
            result.ledger.charge(
                sid, energy::EnergyCategory::kWaiting,
                config_.profile.power(energy::EdgeState::kWaiting) *
                    queue_wait);
          }
        }
        --uploads_pending;
        servers[sid].run_phase(energy::EdgeState::kUploading, upload_start,
                               u);
        if (u_wasted.value() > 0.0) {
          result.ledger.charge(
              sid, energy::EnergyCategory::kRetry,
              config_.profile.power(energy::EdgeState::kUploading) * u_wasted);
          result.ledger.charge(
              sid, energy::EnergyCategory::kUpload,
              config_.profile.power(energy::EdgeState::kUploading) *
                  (u - u_wasted));
        } else {
          result.ledger.charge(
              sid, energy::EnergyCategory::kUpload,
              config_.profile.power(energy::EdgeState::kUploading) * u);
        }
        round_end = std::max(round_end, upload_start + u);
      });
    }

    queue.run();
    clock = std::max(round_end, lan_free);

    if (config_.charge_idle_servers) {
      // Every server not busy this round idles at waiting power.
      const Seconds round_duration = clock - round_start;
      for (std::size_t sid = 0; sid < config_.num_servers; ++sid) {
        const bool selected =
            std::find(record.selected.begin(), record.selected.end(), sid) !=
            record.selected.end();
        if (!selected) {
          result.ledger.charge(
              sid, energy::EnergyCategory::kWaiting,
              config_.profile.power(energy::EdgeState::kWaiting) *
                  round_duration);
        }
      }
    }

    if (obs::Telemetry* tel = obs::telemetry()) {
      tel->tracer.sim_span(
          "round", "sim.round", obs::Tracer::kCoordinatorPid, round_start,
          clock - round_start,
          {{"round", static_cast<double>(record.round)},
           {"selected", static_cast<double>(record.selected.size())},
           {"accuracy", record.test_accuracy},
           {"loss", record.global_loss}});
      tel->metrics.counter("round.count").increment();
    }
  };

  // --- Fault-mode round simulation -------------------------------------
  // Runs the timing/energy model BEFORE aggregation (as an UpdateFilter) so
  // link failures, deadline stragglers and server crashes can veto updates.
  // Downloads are serialized at the coordinator and uploads drain FCFS in
  // training-completion order, mirroring the fault-free observer path.
  // Every phase is truncated at the round deadline: the coordinator
  // broadcasts the round abort, so no energy is spent past it.
  net::LinkFaultConfig link_faults = config_.net.link_faults;
  Rng fault_rng(link_faults.seed * 0x9e3779b97f4a7c15ULL +
                config_.seed * 7349 + 101);
  CrashProcessConfig crash_cfg = config_.crashes;
  crash_cfg.seed = crash_cfg.seed * 2862933555777941757ULL +
                   config_.seed * 977 + 3;
  CrashProcess crash_process(config_.num_servers, crash_cfg);

  auto fault_filter = [&](std::size_t round,
                          std::span<const fl::ClientId> selected,
                          std::span<fl::LocalTrainResult> updates)
      -> fl::RoundFaultStats {
    fl::RoundFaultStats stats;
    const Seconds round_start = clock;
    // Fault events land as instants on the affected server's track, next to
    // the truncated phase span they explain.
    const auto trace_fault = [](const char* name, std::size_t sid,
                                Seconds at) {
      if (obs::Tracer* tr = obs::tracer()) {
        tr->sim_instant(name, "sim.fault", obs::Tracer::server_pid(sid), at);
      }
    };
    const bool has_deadline = config_.round_deadline.value() > 0.0;
    const Seconds deadline = round_start + config_.round_deadline;
    const Watts p_down = config_.profile.power(energy::EdgeState::kDownloading);
    const Watts p_train = config_.profile.power(energy::EdgeState::kTraining);
    const Watts p_up = config_.profile.power(energy::EdgeState::kUploading);
    const Watts p_wait = config_.profile.power(energy::EdgeState::kWaiting);

    Seconds lan_free = round_start;
    Seconds round_end = round_start;
    const auto note_end = [&](Seconds at) {
      round_end = std::max(round_end, has_deadline ? std::min(at, deadline)
                                                   : at);
    };

    struct PendingUpload {
      std::size_t index = 0;
      std::size_t server = 0;
      Seconds train_end{0.0};
    };
    std::vector<PendingUpload> pending;
    pending.reserve(selected.size());

    for (std::size_t i = 0; i < selected.size(); ++i) {
      const std::size_t sid = selected[i];
      auto& u = updates[i];

      // Step (1): IoT data collection, as in the fault-free path.
      if (config_.iot_collection) {
        const auto collected = population_.topology().fleet(sid).collect(u.samples_used);
        result.ledger.charge(sid, energy::EnergyCategory::kRetry,
                             collected.wasted_energy);
        result.ledger.charge(sid, energy::EnergyCategory::kDataCollection,
                             collected.total_energy - collected.wasted_energy);
      }

      // A server still rebooting at round start never hears the dispatch.
      if (crash_process.is_down(sid, round_start)) {
        trace_fault("server.down", sid, round_start);
        u.aggregated = false;
        ++stats.crashed_servers;
        continue;
      }

      // Step (2): model download, serialized at the coordinator, with
      // link-fault retransmission + backoff.
      const Seconds download_start = lan_free;
      if (has_deadline && download_start >= deadline) {
        // The dispatch queue itself overran the deadline.
        trace_fault("deadline.drop", sid, deadline);
        u.aggregated = false;
        ++stats.straggler_drops;
        note_end(deadline);
        continue;
      }
      const Seconds d1 = jittered(
          population_.topology().lan(sid).nominal_duration(down_msg.wire_bytes()));
      const auto down = net::plan_faulty_transfer(fault_rng, link_faults,
                                                  download_start, d1);
      stats.retries += down.attempts - 1;
      lan_free = has_deadline ? std::min(down.finish, deadline) : down.finish;
      if (has_deadline && down.finish > deadline) {
        // Abandoned mid-retransmission at the deadline.
        const double frac = (deadline - download_start) /
                            (down.finish - download_start);
        const Seconds cut = down.air_time * std::clamp(frac, 0.0, 1.0);
        result.ledger.charge(sid, energy::EnergyCategory::kAborted,
                             p_down * cut);
        servers[sid].run_phase(energy::EdgeState::kDownloading,
                               download_start, cut);
        trace_fault("deadline.drop", sid, deadline);
        u.aggregated = false;
        ++stats.straggler_drops;
        note_end(deadline);
        continue;
      }
      if (!down.delivered) {
        result.ledger.charge(sid, energy::EnergyCategory::kAborted,
                             p_down * down.air_time);
        servers[sid].run_phase(energy::EdgeState::kDownloading,
                               download_start, down.air_time);
        trace_fault("update.lost", sid, down.finish);
        u.aggregated = false;
        ++stats.aborted_updates;
        note_end(down.finish);
        continue;
      }
      result.ledger.charge(sid, energy::EnergyCategory::kRetry,
                           p_down * down.wasted_air_time);
      result.ledger.charge(sid, energy::EnergyCategory::kDownload,
                           p_down * (down.air_time - down.wasted_air_time));
      servers[sid].run_phase(energy::EdgeState::kDownloading, download_start,
                             down.air_time);

      // Step (3): local training, with straggler slowdown, crash checks and
      // deadline truncation.
      const Seconds train_start = down.finish;
      Seconds t = jittered(
          config_.timing.duration(u.epochs_run, u.samples_used));
      t *= straggler_factor(sid);
      const Seconds train_end = train_start + t;
      const Seconds train_cap =
          has_deadline ? std::min(train_end, deadline) : train_end;
      if (const auto crash =
              crash_process.next_crash_in(sid, train_start, train_cap)) {
        result.ledger.charge(sid, energy::EnergyCategory::kAborted,
                             p_train * (*crash - train_start));
        servers[sid].run_phase(energy::EdgeState::kTraining, train_start,
                               *crash - train_start);
        trace_fault("server.crash", sid, *crash);
        u.aggregated = false;
        ++stats.crashed_servers;
        note_end(*crash);
        continue;
      }
      if (has_deadline && train_end > deadline) {
        result.ledger.charge(sid, energy::EnergyCategory::kAborted,
                             p_train * (deadline - train_start));
        if (deadline > train_start) {
          servers[sid].run_phase(energy::EdgeState::kTraining, train_start,
                                 deadline - train_start);
        }
        trace_fault("deadline.drop", sid, deadline);
        u.aggregated = false;
        ++stats.straggler_drops;
        note_end(deadline);
        continue;
      }
      result.ledger.charge(sid, energy::EnergyCategory::kTraining,
                           p_train * t);
      servers[sid].run_phase(energy::EdgeState::kTraining, train_start, t);
      pending.push_back({i, sid, train_end});
    }

    // Step (4): uploads drain FCFS in training-completion order over the
    // same shared medium the downloads used.
    std::sort(pending.begin(), pending.end(),
              [](const PendingUpload& a, const PendingUpload& b) {
                if (a.train_end.value() != b.train_end.value()) {
                  return a.train_end.value() < b.train_end.value();
                }
                return a.index < b.index;
              });
    for (const auto& p : pending) {
      auto& u = updates[p.index];
      const std::size_t sid = p.server;
      const Seconds upload_start = std::max(p.train_end, lan_free);
      const Seconds queue_wait_end =
          has_deadline ? std::min(upload_start, deadline) : upload_start;
      if (queue_wait_end > p.train_end) {
        result.ledger.charge(sid, energy::EnergyCategory::kWaiting,
                             p_wait * (queue_wait_end - p.train_end));
      }
      if (has_deadline && upload_start >= deadline) {
        trace_fault("deadline.drop", sid, deadline);
        u.aggregated = false;
        ++stats.straggler_drops;
        note_end(deadline);
        continue;
      }
      const Seconds u1 = jittered(
          population_.topology().lan(sid).nominal_duration(up_msg.wire_bytes()));
      const auto up = net::plan_faulty_transfer(fault_rng, link_faults,
                                                upload_start, u1);
      stats.retries += up.attempts - 1;
      lan_free = has_deadline ? std::min(up.finish, deadline) : up.finish;
      if (has_deadline && up.finish > deadline) {
        const double frac =
            (deadline - upload_start) / (up.finish - upload_start);
        const Seconds cut = up.air_time * std::clamp(frac, 0.0, 1.0);
        result.ledger.charge(sid, energy::EnergyCategory::kAborted,
                             p_up * cut);
        servers[sid].run_phase(energy::EdgeState::kUploading, upload_start,
                               cut);
        trace_fault("deadline.drop", sid, deadline);
        u.aggregated = false;
        ++stats.straggler_drops;
        note_end(deadline);
        continue;
      }
      if (!up.delivered) {
        result.ledger.charge(sid, energy::EnergyCategory::kAborted,
                             p_up * up.air_time);
        servers[sid].run_phase(energy::EdgeState::kUploading, upload_start,
                               up.air_time);
        trace_fault("update.lost", sid, up.finish);
        u.aggregated = false;
        ++stats.aborted_updates;
        note_end(up.finish);
        continue;
      }
      result.ledger.charge(sid, energy::EnergyCategory::kRetry,
                           p_up * up.wasted_air_time);
      result.ledger.charge(sid, energy::EnergyCategory::kUpload,
                           p_up * (up.air_time - up.wasted_air_time));
      servers[sid].run_phase(energy::EdgeState::kUploading, upload_start,
                             up.air_time);
      note_end(up.finish);
    }

    clock = std::max(round_end, round_start);

    if (config_.charge_idle_servers) {
      const Seconds round_duration = clock - round_start;
      for (std::size_t sid = 0; sid < config_.num_servers; ++sid) {
        const bool was_selected =
            std::find(selected.begin(), selected.end(), sid) !=
            selected.end();
        if (!was_selected) {
          result.ledger.charge(sid, energy::EnergyCategory::kWaiting,
                               p_wait * round_duration);
        }
      }
    }

    if (obs::Telemetry* tel = obs::telemetry()) {
      tel->tracer.sim_span(
          "round", "sim.round", obs::Tracer::kCoordinatorPid, round_start,
          clock - round_start,
          {{"round", static_cast<double>(round)},
           {"selected", static_cast<double>(selected.size())},
           {"retries", static_cast<double>(stats.retries)},
           {"dropped", static_cast<double>(stats.straggler_drops +
                                           stats.aborted_updates +
                                           stats.crashed_servers)}});
      tel->metrics.counter("round.count").increment();
      tel->metrics.counter("round.stragglers")
          .add(static_cast<double>(stats.straggler_drops));
      tel->metrics.counter("round.crashes")
          .add(static_cast<double>(stats.crashed_servers));
      tel->metrics.counter("round.aborted_updates")
          .add(static_cast<double>(stats.aborted_updates));
    }
    return stats;
  };

  fl::CoordinatorConfig fl_cfg = config_.fl;
  fl_cfg.upload_quant_bits = config_.upload_quant_bits;
  fl_cfg.update_drop_probability = config_.update_drop_probability;
  fl_cfg.drop_seed = config_.seed * 2654435761 + 13;
  auto policy = std::make_unique<fl::UniformRandomSelection>(
      Rng(config_.seed * 613 + 29));
  fl::Coordinator coordinator(&population_.clients(), &population_.test_set(), fl_cfg,
                              std::move(policy));
  if (fault_injection_active()) {
    if (config_.lan_contention == FeiSystemConfig::LanContention::kCsma) {
      return Error::invalid_argument(
          "fei: link fault injection models FCFS LAN contention only");
    }
    coordinator.set_update_filter(fault_filter);
  } else {
    coordinator.set_round_observer(observer);
  }
  if (config_.fl.checkpoint_every != 0) {
    coordinator.set_checkpoint_sink([&](const fl::TrainingCheckpoint& cp) {
      result.last_checkpoint = cp;
    });
  }
  if (resume_.has_value()) {
    coordinator.resume_from(*resume_);
  }

  auto outcome = coordinator.run();
  if (!outcome.ok()) return outcome.error();
  result.training = std::move(outcome).value();
  result.wall_clock = clock;
  for (const auto& r : result.training.record.all()) {
    result.total_retries += r.retries;
    result.total_aborted_updates += r.aborted_updates;
    result.total_straggler_drops += r.straggler_drops;
    result.total_crashed_servers += r.crashed_servers;
  }

  // Close every server's physical timeline at the makespan so Fig. 3-style
  // traces show the trailing idle stretch.
  for (auto& s : servers) s.idle_until(clock);
  result.timelines.reserve(servers.size());
  for (auto& s : servers) result.timelines.push_back(s.timeline());

  return result;
}

}  // namespace eefei::sim
