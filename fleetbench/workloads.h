// The benchmark's four workloads (BENCHMARK.json lists paper_grid and
// fleet_faults).  README.md records why each was chosen and its measured
// sizing; this file is the single source of their shapes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "common/rng.h"
#include "sim/event_fleet.h"

namespace fleetbench {

/// Every workload runs on exactly this many workers, on every commit.
inline constexpr std::size_t kThreads = 2;

/// The seed run.py passes when none is given; the recorded references
/// below hold for it.
inline constexpr std::uint64_t kDefaultSeed = 3;

struct Point {
  std::string label;
  eefei::sim::EventFleetEngineConfig config;
  bool to_target = false;  // paper grid: run until accuracy ε
};

struct Workload {
  std::string name;
  std::vector<Point> points;
  /// Order in which a sweep visits the points.
  std::vector<std::size_t> order;
  /// Ops per sweep for single-point workloads (a paper-grid sweep is one
  /// op per point).
  std::size_t ops_per_sweep = 1;
  /// Measured wall time of one sweep, checks included, on the reference
  /// host (README.md).  A run makes round(seconds / sweep_wall_s) sweeps,
  /// at least one: a fixed count, so percentiles over a mixture of grid
  /// points always see the same composition.
  double sweep_wall_s = 1.0;
  /// Set-ups repeated per run for the setup_s median.
  std::size_t setup_reps = 1;
  /// Index of the point the traced run's engine-level replays use.
  std::size_t rep_point = 0;
  /// false: an UpdateFilter vetoes updates, so a coordinator without it
  /// trains a different model and the twin comparison does not apply.
  bool fault_free = true;
};

/// The paper grid's population seed, as in bench_fig5 / bench_fig6.  The
/// figure is one fixed artefact: its rounds-to-target, and so its cost,
/// belong to these inputs (seeds 1-6 move K=1/E=1 between 395 and 641
/// rounds).  The benchmark seed permutes the sweep order instead.
inline constexpr std::uint64_t kPaperSeed = 3;

/// The paper's prototype at bench scale (bench/bench_common.h): N = 20,
/// d = 784, c = 10, n_k = 250, 1000 test samples, lr 0.02 · 0.998^t.
inline eefei::sim::EventFleetEngineConfig paper_point(std::size_t k,
                                                      std::size_t e,
                                                      std::size_t cap,
                                                      std::uint64_t seed) {
  eefei::sim::EventFleetEngineConfig cfg;
  cfg.system = eefei::sim::prototype_config();
  cfg.system.num_servers = 20;
  cfg.system.net.num_edge_servers = 20;
  cfg.system.samples_per_server = 250;
  cfg.system.test_samples = 1000;
  cfg.system.sgd.learning_rate = 0.02;
  cfg.system.sgd.decay = 0.998;
  cfg.system.fl.threads = kThreads;
  cfg.system.fl.clients_per_round = k;
  cfg.system.fl.local_epochs = e;
  cfg.system.fl.max_rounds = cap;
  cfg.system.fl.target_accuracy = 0.92;
  cfg.system.fl.eval_every = 2;
  cfg.system.seed = seed;
  cfg.sampled_timelines = 20;  // materialized: every server keeps a timeline
  return cfg;
}

/// The bench_fleet million-server shape at population `n`: pooled data,
/// virtual population, O(K) selection, no per-server accumulator array.
inline eefei::sim::EventFleetEngineConfig fleet_base(std::size_t n,
                                                     std::size_t rounds,
                                                     std::uint64_t seed) {
  eefei::sim::EventFleetEngineConfig cfg;
  cfg.system = eefei::sim::prototype_config();
  cfg.system.num_servers = n;
  cfg.system.net.num_edge_servers = n;
  cfg.system.net.devices_per_edge = 1;
  cfg.system.samples_per_server = 50;
  cfg.system.test_samples = 500;
  cfg.system.data.image_side = 12;
  cfg.system.model.input_dim = 144;
  cfg.system.sgd.learning_rate = 0.1;
  cfg.system.fl.clients_per_round = 10;
  cfg.system.fl.local_epochs = 3;
  cfg.system.fl.max_rounds = rounds;
  cfg.system.fl.eval_every = 5;
  cfg.system.fl.threads = kThreads;
  cfg.system.charge_idle_servers = true;
  cfg.system.seed = seed;
  cfg.data_pool_shards = 256;
  cfg.sampled_timelines = 8;
  cfg.virtual_population = true;
  cfg.per_server_accumulators = false;
  cfg.scalable_selection = true;
  return cfg;
}

/// N = 10^5 with tiny models (d = 16, n_k = 4, E = 1) and K = 2000, so the
/// per-update overheads outweigh the arithmetic.
inline eefei::sim::EventFleetEngineConfig tiny_model_fleet(std::size_t rounds,
                                                           std::uint64_t seed) {
  auto cfg = fleet_base(100000, rounds, seed);
  cfg.system.samples_per_server = 4;
  cfg.system.data.image_side = 4;
  cfg.system.model.input_dim = 16;
  cfg.system.fl.clients_per_round = 2000;
  cfg.system.fl.local_epochs = 1;
  return cfg;
}

inline constexpr std::size_t kFleet1mRounds = 40;
inline constexpr std::size_t kBackhaulRounds = 6;
inline constexpr std::size_t kFaultsRounds = 6;

inline std::optional<Workload> make_workload(const std::string& name,
                                             std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "paper_grid") {
    // Fig. 6 E-sweep at K = 1 (round caps as in bench_fig6), then the
    // Fig. 5 K-sweep at E = 20 (cap as in bench_fig5).
    for (const std::size_t e : {1, 5, 20, 40}) {
      const std::size_t cap = std::max<std::size_t>(20, 1500 / e + 10);
      w.points.push_back({"K=1,E=" + std::to_string(e),
                          paper_point(1, e, cap, kPaperSeed), true});
    }
    for (const std::size_t k : {2, 5, 10, 20}) {
      w.points.push_back({"K=" + std::to_string(k) + ",E=20",
                          paper_point(k, 20, 250, kPaperSeed), true});
    }
    w.order = {0, 1, 2, 3, 4, 5, 6, 7};
    eefei::Rng rng(seed);
    for (std::size_t i = w.order.size() - 1; i > 0; --i) {
      std::swap(w.order[i], w.order[rng.uniform_index(i + 1)]);
    }
    w.sweep_wall_s = 8.6;
    w.setup_reps = 3;
    w.rep_point = 7;  // K = 20, E = 20: bound by training throughput
    return w;
  }
  if (name == "fleet_1m") {
    w.points.push_back(
        {"N=1e6", fleet_base(1000000, kFleet1mRounds, seed), false});
    w.order = {0};
    w.ops_per_sweep = 10;
    w.sweep_wall_s = 0.55;
    w.setup_reps = 5;
    return w;
  }
  if (name == "fleet_backhaul") {
    auto cfg = tiny_model_fleet(kBackhaulRounds, seed);
    cfg.multi_hop = true;
    cfg.backhaul_uplink.rate = eefei::BitsPerSecond::from_mbps(0.5);
    w.points.push_back({"N=1e5,K=2000,multi_hop", cfg, false});
    w.order = {0};
    w.ops_per_sweep = 10;
    w.sweep_wall_s = 0.6;
    w.setup_reps = 21;
    return w;
  }
  if (name == "fleet_faults") {
    auto cfg = tiny_model_fleet(kFaultsRounds, seed);
    cfg.system.net.link_faults.loss_probability = 0.2;
    cfg.system.net.link_faults.seed = seed * 7 + 1;
    cfg.system.crashes.mtbf = eefei::Seconds{1500.0};
    cfg.system.crashes.mttr = eefei::Seconds{60.0};
    cfg.system.crashes.seed = seed * 11 + 5;
    cfg.system.round_deadline = eefei::Seconds{36.0};
    cfg.system.fl.overselect = cfg.system.fl.clients_per_round / 10;
    w.points.push_back({"N=1e5,K=2000,faults", cfg, false});
    w.order = {0};
    w.ops_per_sweep = 10;
    w.sweep_wall_s = 0.75;
    w.setup_reps = 101;  // a set-up is ~2.5 ms: many, for a steady median
    w.fault_free = false;
    return w;
  }
  return std::nullopt;
}

/// Outputs recorded for the default-seed inputs, one per point in
/// make_workload order.  They apply to every point whose simulation seed is
/// kDefaultSeed (always, for the paper grid); a mismatch fails the op.
inline std::vector<Reference> recorded_references(const std::string& name) {
  if (name == "paper_grid") {
    return {{0x1.3be606016fcacp+8, 0xb64ca8d731f8b0cfULL},   // K=1,E=1
            {0x1.d2386094ca5c1p+5, 0x86e32041e056b4a0ULL},   // K=1,E=5
            {0x1.86c534656efc5p+4, 0xc6e52e83d8caed1fULL},   // K=1,E=20
            {0x1.50ced86b84d1cp+4, 0xac133f945118bf68ULL},   // K=1,E=40
            {0x1.618dda12a15e1p+5, 0xe0f9f5b962c6c4d2ULL},   // K=2,E=20
            {0x1.fdf76d022f537p+6, 0x5c695a45815689acULL},   // K=5,E=20
            {0x1.1afa6c99f1bp+9, 0x692636a4e2682971ULL},     // K=10,E=20
            {0x1.c6d93a5bbda03p+10, 0x66905e371e272ad0ULL}};  // K=20,E=20
  }
  if (name == "fleet_1m") {
    return {{0x1.5a14b123e0aa6p+25, 0x3fc47b2e209dcbf5ULL}};
  }
  if (name == "fleet_backhaul") {
    return {{0x1.f39bb008e9f05p+24, 0x4eb8a925738995e1ULL}};
  }
  if (name == "fleet_faults") {
    return {{0x1.192f195a332ebp+26, 0xd2d91cb73aceb194ULL}};
  }
  return {};
}

}  // namespace fleetbench
