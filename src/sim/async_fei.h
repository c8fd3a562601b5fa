// Asynchronous FEI — a FedAsync-style extension of the paper's
// synchronous FedAvg system.
//
// The synchronous protocol makes every selected server wait for the round
// barrier (the Waiting segments of Fig. 3, pure energy loss at 3.6 W).
// In the asynchronous variant each server trains continuously: whenever a
// server finishes its E local epochs it pushes its model, the coordinator
// mixes it into the global model with a staleness-discounted weight
//
//     ω ← (1 − α_s)·ω + α_s·ω_k,   α_s = α · (1 + staleness)^(−a),
//
// and the server immediately pulls the fresh model and keeps going — no
// barrier, no waiting energy, and stragglers only slow themselves down.
//
// An EventFleetEngine preset, like FeiSystem: a task's download, training
// and upload are the engine's phase events and legs.  The async rules are
// the engine run state's run_async, async_dispatch, async_upload_done and
// cut_at_stop.  The fault, quantization, IoT and idle-charging knobs of
// FeiSystemConfig are rejected by name.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "sim/fei_system.h"

namespace eefei::sim {

struct AsyncFeiConfig {
  /// The underlying system (population, data, model, network, hardware).
  /// fl.clients_per_round is reused as the number of *concurrently
  /// training* servers; fl.local_epochs as E.
  FeiSystemConfig base;
  /// Base mixing weight α, in (0, 1].
  double mixing_alpha = 0.4;
  /// Staleness-discount exponent a, finite and >= 0 (0 = ignore staleness).
  double staleness_exponent = 0.5;
  /// Stop after this many applied updates (>= 1; the async analogue of T·K).
  std::size_t max_updates = 2000;
  /// Evaluate the global model every this many applied updates.
  std::size_t eval_every = 10;
};

struct AsyncUpdateRecord {
  std::size_t update = 0;        // sequence number
  std::size_t server = 0;
  std::size_t staleness = 0;     // versions behind when it arrived
  double mixing_weight = 0.0;    // α_s actually applied
  Seconds applied_at{0.0};
  double global_loss = 0.0;      // only filled on eval updates
  double test_accuracy = 0.0;
};

struct AsyncRunResult {
  std::vector<AsyncUpdateRecord> updates;
  energy::EnergyLedger ledger{1};
  Seconds wall_clock{0.0};
  bool reached_target = false;
  std::size_t updates_applied = 0;
  /// Tasks in flight at the stop (servers that still had phase events
  /// pending); the part of each phase that ran before the stop is booked
  /// as EnergyCategory::kAborted.
  std::size_t cancelled_tasks = 0;
  double final_accuracy = 0.0;
  double final_loss = 0.0;

  /// First update index whose evaluation met the accuracy target.
  [[nodiscard]] std::optional<std::size_t> updates_to_accuracy(
      double target) const;
};

class EventFleetEngine;

class AsyncFeiSystem {
 public:
  explicit AsyncFeiSystem(AsyncFeiConfig config);
  ~AsyncFeiSystem();

  [[nodiscard]] Result<AsyncRunResult> run();

  [[nodiscard]] const AsyncFeiConfig& config() const { return config_; }

 private:
  AsyncFeiConfig config_;
  std::unique_ptr<EventFleetEngine> engine_;
};

}  // namespace eefei::sim
