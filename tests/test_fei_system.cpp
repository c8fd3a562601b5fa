// Integration tests of the full FEI system simulation: training, timing,
// energy accounting, and their mutual consistency.
#include "sim/fei_system.h"

#include <gtest/gtest.h>

#include <cmath>

#include "energy/meter.h"

namespace eefei::sim {
namespace {

FeiSystemConfig small_config() {
  FeiSystemConfig cfg = prototype_config();
  cfg.num_servers = 6;
  cfg.samples_per_server = 100;
  cfg.test_samples = 300;
  cfg.data.image_side = 12;
  cfg.model.input_dim = 144;
  cfg.sgd.learning_rate = 0.1;  // small images need the larger step size
  cfg.fl.clients_per_round = 3;
  cfg.fl.local_epochs = 5;
  cfg.fl.max_rounds = 8;
  cfg.fl.threads = 4;
  cfg.seed = 5;
  return cfg;
}

TEST(FeiSystem, RunsAndTrains) {
  FeiSystem system(small_config());
  const auto r = system.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r->training.rounds_run, 8u);
  EXPECT_LT(r->training.record.last().global_loss,
            r->training.record.round(0).global_loss);
  EXPECT_GT(r->wall_clock.value(), 0.0);
  EXPECT_EQ(r->timelines.size(), 6u);
}

TEST(FeiSystem, LedgerMatchesClosedFormForTrainingAndUpload) {
  auto cfg = small_config();
  cfg.timing_jitter = 0.0;  // deterministic durations
  cfg.net.lan.loss_probability = 0.0;
  FeiSystem system(cfg);
  const auto r = system.run();
  ASSERT_TRUE(r.ok());

  const auto model = system.energy_model();
  // Per-round per-server closed forms × (rounds × K) must equal the ledger.
  const double rounds_times_k = 8.0 * 3.0;
  const double expected_training =
      model.training.energy(cfg.fl.local_epochs, cfg.samples_per_server)
          .value() *
      rounds_times_k;
  const double measured_training =
      r->ledger.category_total(energy::EnergyCategory::kTraining).value();
  EXPECT_NEAR(measured_training, expected_training,
              expected_training * 1e-9);

  // energy_model() derives e^U from the same 144-dim blob and LAN the
  // simulator uses, so with zero jitter/loss the two agree exactly.
  const double expected_upload = model.upload.energy().value() *
                                 rounds_times_k;
  const double measured_upload =
      r->ledger.category_total(energy::EnergyCategory::kUpload).value();
  EXPECT_NEAR(measured_upload, expected_upload, expected_upload * 1e-9);
}

TEST(FeiSystem, TimelinesAreConsistentWithLedger) {
  auto cfg = small_config();
  cfg.timing_jitter = 0.0;
  FeiSystem system(cfg);
  const auto r = system.run();
  ASSERT_TRUE(r.ok());
  // Summing training energy over all timelines = ledger training total.
  double from_timelines = 0.0;
  for (const auto& tl : r->timelines) {
    from_timelines += tl.energy_in_state(energy::EdgeState::kTraining).value();
  }
  EXPECT_NEAR(from_timelines,
              r->ledger.category_total(energy::EnergyCategory::kTraining)
                  .value(),
              from_timelines * 1e-9);
}

TEST(FeiSystem, MeterOnTimelineApproximatesExactEnergy) {
  auto cfg = small_config();
  cfg.fl.max_rounds = 3;
  FeiSystem system(cfg);
  const auto r = system.run();
  ASSERT_TRUE(r.ok());
  energy::PowerMeter meter{energy::MeterConfig{}};
  const auto trace = meter.capture(r->timelines[0]);
  const double exact = r->timelines[0].total_energy().value();
  EXPECT_NEAR(trace.energy().value(), exact, exact * 0.02);
}

TEST(FeiSystem, IotCollectionChargesDevices) {
  auto cfg = small_config();
  cfg.iot_collection = true;
  cfg.fl.max_rounds = 2;
  FeiSystem system(cfg);
  const auto r = system.run();
  ASSERT_TRUE(r.ok());
  const double collected =
      r->ledger.category_total(energy::EnergyCategory::kDataCollection)
          .value();
  // ρ·n_k per selected server per round; 2 rounds × 3 servers × 100 samples.
  const auto model = system.energy_model();
  EXPECT_GT(model.collection.rho.value(), 0.0);
  EXPECT_NEAR(collected,
              model.collection.rho.value() * 100.0 * 6.0,
              collected * 0.05);
}

TEST(FeiSystem, PrototypeModeHasNoCollectionEnergy) {
  FeiSystem system(small_config());
  const auto r = system.run();
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(
      r->ledger.category_total(energy::EnergyCategory::kDataCollection)
          .value(),
      0.0);
  EXPECT_DOUBLE_EQ(system.energy_model().collection.rho.value(), 0.0);
}

TEST(FeiSystem, ChargeIdleServersAddsWaitingEnergy) {
  auto base_cfg = small_config();
  auto idle_cfg = small_config();
  idle_cfg.charge_idle_servers = true;
  FeiSystem base(base_cfg), idle(idle_cfg);
  const auto rb = base.run();
  const auto ri = idle.run();
  ASSERT_TRUE(rb.ok());
  ASSERT_TRUE(ri.ok());
  EXPECT_GT(ri->ledger.category_total(energy::EnergyCategory::kWaiting)
                .value(),
            rb->ledger.category_total(energy::EnergyCategory::kWaiting)
                .value());
}

TEST(FeiSystem, DeterministicForSameSeed) {
  FeiSystem a(small_config()), b(small_config());
  const auto ra = a.run();
  const auto rb = b.run();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_DOUBLE_EQ(ra->measured_energy().value(),
                   rb->measured_energy().value());
  EXPECT_DOUBLE_EQ(ra->training.record.last().global_loss,
                   rb->training.record.last().global_loss);
  EXPECT_DOUBLE_EQ(ra->wall_clock.value(), rb->wall_clock.value());
}

TEST(FeiSystem, JitterPerturbsTimingOnly) {
  auto cfg = small_config();
  cfg.timing_jitter = 0.05;
  FeiSystem jittered(cfg);
  FeiSystem clean(small_config());
  const auto rj = jittered.run();
  const auto rc = clean.run();
  ASSERT_TRUE(rj.ok());
  ASSERT_TRUE(rc.ok());
  EXPECT_NE(rj->wall_clock.value(), rc->wall_clock.value());
  // Learning itself is unaffected by hardware jitter.
  EXPECT_DOUBLE_EQ(rj->training.record.last().global_loss,
                   rc->training.record.last().global_loss);
}

TEST(FeiSystem, MoreEpochsMoreTrainingEnergyPerRound) {
  auto few_cfg = small_config();
  few_cfg.fl.max_rounds = 4;
  few_cfg.fl.local_epochs = 2;
  auto many_cfg = small_config();
  many_cfg.fl.max_rounds = 4;
  many_cfg.fl.local_epochs = 20;
  FeiSystem few(few_cfg), many(many_cfg);
  const auto rf = few.run();
  const auto rm = many.run();
  ASSERT_TRUE(rf.ok());
  ASSERT_TRUE(rm.ok());
  const double tf =
      rf->ledger.category_total(energy::EnergyCategory::kTraining).value();
  const double tm =
      rm->ledger.category_total(energy::EnergyCategory::kTraining).value();
  EXPECT_NEAR(tm / tf, 10.0, 0.5);  // linear in E (Eq. 5)
}

TEST(FeiSystem, StopsAtAccuracyTarget) {
  auto cfg = small_config();
  cfg.fl.max_rounds = 100;
  cfg.fl.local_epochs = 10;
  cfg.fl.target_accuracy = 0.55;
  FeiSystem system(cfg);
  const auto r = system.run();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->training.reached_target);
  EXPECT_LT(r->training.rounds_run, 100u);
}

TEST(FeiSystem, PartitionSchemesChangeSkew) {
  auto iid_cfg = small_config();
  auto shard_cfg = small_config();
  shard_cfg.partition = PartitionScheme::kShards;
  shard_cfg.shards_per_client = 2;
  FeiSystem iid(iid_cfg), shards(shard_cfg);
  ASSERT_TRUE(iid.prepare().ok());
  ASSERT_TRUE(shards.prepare().ok());
  // Non-IID training converges more slowly on the same budget.
  const auto ri = iid.run();
  const auto rs = shards.run();
  ASSERT_TRUE(ri.ok());
  ASSERT_TRUE(rs.ok());
  EXPECT_LT(ri->training.record.last().global_loss,
            rs->training.record.last().global_loss);
}

TEST(FeiSystem, InvalidConfigRejected) {
  auto cfg = small_config();
  cfg.num_servers = 0;
  EXPECT_FALSE(FeiSystem(cfg).run().ok());
  auto cfg2 = small_config();
  cfg2.samples_per_server = 0;
  EXPECT_FALSE(FeiSystem(cfg2).run().ok());
}

// Collision energy books as kRetry on the fault path too: a deadline that
// never binds routes the round through the fault filter, and the IoT
// categories must read exactly what the fault-free run books.
TEST(FeiSystem, FaultPathBooksIotCollisionsAsRetry) {
  auto cfg = small_config();
  cfg.iot_collection = true;
  cfg.net.device.uplink.collision_probability = 0.3;
  cfg.fl.max_rounds = 3;
  auto inert = cfg;
  inert.round_deadline = Seconds{1e9};
  const auto ref = FeiSystem(cfg).run();
  const auto faulty = FeiSystem(inert).run();
  ASSERT_TRUE(ref.ok()) << ref.error().message;
  ASSERT_TRUE(faulty.ok()) << faulty.error().message;
  for (const auto cat : {energy::EnergyCategory::kDataCollection,
                         energy::EnergyCategory::kRetry}) {
    EXPECT_GT(ref->ledger.category_total(cat).value(), 0.0)
        << energy::to_string(cat);
    EXPECT_EQ(ref->ledger.category_total(cat).value(),
              faulty->ledger.category_total(cat).value())
        << energy::to_string(cat);
  }
}

TEST(FeiSystem, EnergyModelUsesConfiguredLink) {
  auto cfg = small_config();
  cfg.model.input_dim = 784;
  const FeiSystem system(cfg);
  const auto model = system.energy_model();
  // 7850 params → 31420-byte blob + 24-byte message header at 3.4 Mbps.
  const double blob = 31420.0 + 24.0;
  const double duration = blob * 8.0 / 3.4e6 + 0.002;
  EXPECT_NEAR(model.upload.energy().value(), 5.015 * duration, 1e-9);
  EXPECT_NEAR(model.b0(), 7.79e-5 * 100 + 3.34e-3, 1e-4);
}

}  // namespace
}  // namespace eefei::sim
