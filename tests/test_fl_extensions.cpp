// Tests for the FL extensions: quantized uploads, update-loss injection
// (failure tolerance) and straggler simulation.
#include <gtest/gtest.h>

#include <cmath>

#include "data/partition.h"
#include "data/synth_digits.h"
#include "fl/coordinator.h"
#include "sim/fei_system.h"

namespace eefei {
namespace {

struct World {
  data::Dataset train;
  data::Dataset test;
  std::vector<data::Shard> shards;
  std::vector<fl::Client> clients;

  World() {
    data::SynthDigitsConfig dcfg;
    dcfg.image_side = 12;
    dcfg.seed = 31;
    data::SynthDigits gen(dcfg);
    train = gen.generate(4 * 60);
    test = gen.generate(300);
    Rng rng(32);
    shards = data::partition_iid(train, 4, rng).value();
    fl::ClientConfig ccfg;
    ccfg.model.input_dim = 144;
    ccfg.sgd.learning_rate = 0.1;
    ccfg.sgd.decay = 0.995;
    for (std::size_t k = 0; k < 4; ++k) {
      clients.emplace_back(k, &shards[k], ccfg);
    }
  }
};

fl::CoordinatorConfig base_config() {
  fl::CoordinatorConfig cfg;
  cfg.clients_per_round = 3;
  cfg.local_epochs = 5;
  cfg.max_rounds = 30;
  return cfg;
}

TEST(QuantizedFl, EightBitUploadsStillConverge) {
  World w;
  auto cfg = base_config();
  cfg.upload_quant_bits = 8;
  fl::Coordinator coord(&w.clients, &w.test, cfg,
                        std::make_unique<fl::UniformRandomSelection>(Rng(1)));
  const auto outcome = coord.run();
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome->record.last().test_accuracy, 0.5);
  EXPECT_LT(outcome->record.last().global_loss,
            outcome->record.round(0).global_loss);
}

TEST(QuantizedFl, CoarserQuantizationIsNoBetter) {
  // 4-bit uploads inject more error than float uploads: after the same
  // budget the loss must be no better (allowing small noise).
  World w_exact, w_coarse;
  auto cfg = base_config();
  fl::Coordinator exact(&w_exact.clients, &w_exact.test, cfg,
                        std::make_unique<fl::UniformRandomSelection>(Rng(2)));
  cfg.upload_quant_bits = 4;
  fl::Coordinator coarse(&w_coarse.clients, &w_coarse.test, cfg,
                         std::make_unique<fl::UniformRandomSelection>(Rng(2)));
  const auto a = exact.run();
  const auto b = coarse.run();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GE(b->record.last().global_loss,
            a->record.last().global_loss - 0.02);
}

TEST(QuantizedFl, ThirtyTwoBitsIsExact) {
  World w1, w2;
  auto cfg = base_config();
  cfg.max_rounds = 5;
  fl::Coordinator plain(&w1.clients, &w1.test, cfg,
                        std::make_unique<fl::UniformRandomSelection>(Rng(3)));
  cfg.upload_quant_bits = 32;
  fl::Coordinator q32(&w2.clients, &w2.test, cfg,
                      std::make_unique<fl::UniformRandomSelection>(Rng(3)));
  const auto a = plain.run();
  const auto b = q32.run();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::size_t i = 0; i < a->final_params.size(); ++i) {
    ASSERT_DOUBLE_EQ(a->final_params[i], b->final_params[i]);
  }
}

TEST(FailureInjection, DropsReduceAggregatedCount) {
  World w;
  auto cfg = base_config();
  cfg.update_drop_probability = 0.5;
  cfg.max_rounds = 40;
  fl::Coordinator coord(&w.clients, &w.test, cfg,
                        std::make_unique<fl::UniformRandomSelection>(Rng(4)));
  const auto outcome = coord.run();
  ASSERT_TRUE(outcome.ok());
  std::size_t total_aggregated = 0;
  for (const auto& r : outcome->record.all()) {
    EXPECT_GE(r.updates_aggregated, 1u);  // at least one survivor per round
    EXPECT_LE(r.updates_aggregated, r.clients_selected);
    total_aggregated += r.updates_aggregated;
  }
  // With p = 0.5, roughly half the updates survive.
  const double mean =
      static_cast<double>(total_aggregated) / (40.0 * 3.0);
  EXPECT_GT(mean, 0.35);
  EXPECT_LT(mean, 0.75);
}

TEST(FailureInjection, TrainingSurvivesHeavyLoss) {
  World w;
  auto cfg = base_config();
  cfg.update_drop_probability = 0.7;
  cfg.max_rounds = 60;
  fl::Coordinator coord(&w.clients, &w.test, cfg,
                        std::make_unique<fl::UniformRandomSelection>(Rng(5)));
  const auto outcome = coord.run();
  ASSERT_TRUE(outcome.ok());
  EXPECT_LT(outcome->record.last().global_loss,
            outcome->record.round(0).global_loss);
  EXPECT_GT(outcome->record.last().test_accuracy, 0.4);
}

TEST(FailureInjection, ZeroProbabilityAggregatesEverything) {
  World w;
  const auto cfg = base_config();
  fl::Coordinator coord(&w.clients, &w.test, cfg,
                        std::make_unique<fl::UniformRandomSelection>(Rng(6)));
  const auto outcome = coord.run();
  ASSERT_TRUE(outcome.ok());
  for (const auto& r : outcome->record.all()) {
    EXPECT_EQ(r.updates_aggregated, r.clients_selected);
  }
}

TEST(Stragglers, SlowdownStretchesMakespanOnly) {
  auto make_cfg = [] {
    auto cfg = sim::prototype_config();
    cfg.num_servers = 6;
    cfg.samples_per_server = 100;
    cfg.test_samples = 200;
    cfg.data.image_side = 12;
    cfg.model.input_dim = 144;
    cfg.fl.clients_per_round = 3;
    // E large enough that training dominates the round (otherwise LAN
    // transfer time masks the slowdown).
    cfg.fl.local_epochs = 40;
    cfg.fl.max_rounds = 6;
    cfg.seed = 41;
    return cfg;
  };
  auto slow_cfg = make_cfg();
  slow_cfg.straggler_fraction = 0.5;
  slow_cfg.straggler_slowdown = 5.0;
  sim::FeiSystem fast(make_cfg()), slow(slow_cfg);
  const auto rf = fast.run();
  const auto rs = slow.run();
  ASSERT_TRUE(rf.ok());
  ASSERT_TRUE(rs.ok());
  EXPECT_GT(rs->wall_clock.value(), rf->wall_clock.value() * 1.5);
  // Straggling changes timing, not learning.
  EXPECT_DOUBLE_EQ(rs->training.record.last().global_loss,
                   rf->training.record.last().global_loss);
  // And the training energy grows with the stretched durations.
  EXPECT_GT(rs->ledger.category_total(energy::EnergyCategory::kTraining)
                .value(),
            rf->ledger.category_total(energy::EnergyCategory::kTraining)
                .value());
}

TEST(QuantizedFei, SmallerUploadBlobCutsUploadEnergy) {
  auto make_cfg = [](unsigned bits) {
    auto cfg = sim::prototype_config();
    cfg.num_servers = 6;
    cfg.samples_per_server = 100;
    cfg.test_samples = 200;
    cfg.data.image_side = 12;
    cfg.model.input_dim = 144;
    cfg.fl.clients_per_round = 3;
    cfg.fl.local_epochs = 5;
    cfg.fl.max_rounds = 6;
    cfg.upload_quant_bits = bits;
    cfg.seed = 42;
    return cfg;
  };
  sim::FeiSystem exact(make_cfg(0)), quant(make_cfg(8));
  const auto re = exact.run();
  const auto rq = quant.run();
  ASSERT_TRUE(re.ok());
  ASSERT_TRUE(rq.ok());
  const double ue =
      re->ledger.category_total(energy::EnergyCategory::kUpload).value();
  const double uq =
      rq->ledger.category_total(energy::EnergyCategory::kUpload).value();
  EXPECT_LT(uq, ue * 0.5);
  // energy_model() reflects the same reduction in B1.
  EXPECT_LT(quant.energy_model().b1(), exact.energy_model().b1() * 0.5);
}

}  // namespace
}  // namespace eefei
