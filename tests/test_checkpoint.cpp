// Checkpoint/resume tests.
#include <gtest/gtest.h>

#include <cmath>

#include "data/partition.h"
#include "data/synth_digits.h"
#include "fl/checkpoint.h"
#include "fl/coordinator.h"
#include "serial_reference.h"

namespace eefei::fl {
namespace {

struct World {
  data::Dataset train;
  data::Dataset test;
  std::vector<data::Shard> shards;
  std::vector<Client> clients;

  World() {
    data::SynthDigitsConfig dcfg;
    dcfg.image_side = 12;
    dcfg.seed = 71;
    data::SynthDigits gen(dcfg);
    train = gen.generate(4 * 60);
    test = gen.generate(200);
    Rng rng(72);
    shards = data::partition_iid(train, 4, rng).value();
    ClientConfig ccfg;
    ccfg.model.input_dim = 144;
    ccfg.sgd.learning_rate = 0.1;
    ccfg.sgd.decay = 0.99;
    for (std::size_t k = 0; k < 4; ++k) {
      clients.emplace_back(k, &shards[k], ccfg);
    }
  }
};

CoordinatorConfig config(std::size_t rounds) {
  CoordinatorConfig cfg;
  cfg.clients_per_round = 2;
  cfg.local_epochs = 4;
  cfg.max_rounds = rounds;
  return cfg;
}

TEST(Checkpoint, SerializationRoundTrip) {
  TrainingCheckpoint cp;
  cp.params = {1.0, -2.5, 0.125, 3.75};
  cp.rounds_completed = 1234;
  const auto bytes = serialize_checkpoint(cp);
  const auto restored = deserialize_checkpoint(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->rounds_completed, 1234u);
  ASSERT_EQ(restored->params.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(restored->params[i], cp.params[i], 1e-6);
  }
}

TEST(Checkpoint, RejectsGarbage) {
  EXPECT_FALSE(deserialize_checkpoint(std::vector<std::uint8_t>{1, 2}).ok());
  TrainingCheckpoint cp;
  cp.params = {1.0};
  auto bytes = serialize_checkpoint(cp);
  bytes[0] = 'X';
  EXPECT_FALSE(deserialize_checkpoint(bytes).ok());
  auto bytes2 = serialize_checkpoint(cp);
  bytes2[bytes2.size() - 2] ^= 0xFF;  // corrupt the embedded model blob
  EXPECT_FALSE(deserialize_checkpoint(bytes2).ok());
}

// The core resume property: 10 + 10 resumed rounds == 20 straight rounds,
// bit for bit.  Round-robin selection and the absolute round numbering
// make both runs see identical selections and learning rates.
TEST(Checkpoint, ResumedRunMatchesContinuousRun) {
  World w_straight, w_first, w_second;

  Coordinator straight(&w_straight.clients, &w_straight.test, config(20),
                       std::make_unique<RoundRobinSelection>());
  const auto full = straight.run();
  ASSERT_TRUE(full.ok());

  Coordinator first(&w_first.clients, &w_first.test, config(10),
                    std::make_unique<RoundRobinSelection>());
  const auto half = first.run();
  ASSERT_TRUE(half.ok());
  EXPECT_EQ(half->rounds_run, 10u);

  // Serialize → deserialize the checkpoint, then resume.  (The float32
  // wire format rounds ω, so compare through the same round trip the
  // continuous run's params would survive.)
  const auto cp = half->checkpoint();
  EXPECT_EQ(cp.rounds_completed, 10u);

  Coordinator second(&w_second.clients, &w_second.test, config(10),
                     std::make_unique<RoundRobinSelection>());
  second.resume_from(cp);
  const auto resumed = second.run();
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->rounds_run, 10u);
  // Absolute round indices continue from 10.
  EXPECT_EQ(resumed->record.round(0).round, 10u);

  ASSERT_EQ(resumed->final_params.size(), full->final_params.size());
  for (std::size_t i = 0; i < full->final_params.size(); ++i) {
    ASSERT_NEAR(resumed->final_params[i], full->final_params[i], 1e-12)
        << "param " << i;
  }
  EXPECT_NEAR(resumed->record.last().global_loss,
              full->record.last().global_loss, 1e-12);
}

// Regression: the forced final-round evaluation used to test
// `t + 1 == max_rounds`, which a resumed run (looping over
// [start_round_, start_round_ + max_rounds)) never satisfies — the final
// record silently carried the last periodic evaluation instead of a fresh
// one.  With eval_every > 1 the resumed run must still end on a fresh eval.
TEST(Checkpoint, ResumedFinalRoundForcesFreshEvaluation) {
  World w_straight, w_first, w_second;

  auto full_cfg = config(12);
  full_cfg.eval_every = 5;
  Coordinator straight(&w_straight.clients, &w_straight.test, full_cfg,
                       std::make_unique<RoundRobinSelection>());
  const auto full = straight.run();
  ASSERT_TRUE(full.ok());

  auto half_cfg = config(6);
  half_cfg.eval_every = 5;
  Coordinator first(&w_first.clients, &w_first.test, half_cfg,
                    std::make_unique<RoundRobinSelection>());
  const auto half = first.run();
  ASSERT_TRUE(half.ok());

  Coordinator second(&w_second.clients, &w_second.test, half_cfg,
                     std::make_unique<RoundRobinSelection>());
  second.resume_from(half->checkpoint());
  const auto resumed = second.run();
  ASSERT_TRUE(resumed.ok());

  ASSERT_EQ(resumed->record.last().round, 11u);
  // Fresh final eval — not a copy of the round-10 periodic one.
  EXPECT_NE(resumed->record.last().global_loss,
            resumed->record.round(4).global_loss);
  // And it matches the continuous run's forced final evaluation.
  EXPECT_NEAR(resumed->record.last().global_loss,
              full->record.last().global_loss, 1e-12);
}

// Periodic autosave: resuming from a mid-run checkpoint reproduces the
// uninterrupted run exactly.
TEST(Checkpoint, PeriodicAutosaveResumesToUninterruptedResult) {
  World w_straight, w_auto, w_resume;

  Coordinator straight(&w_straight.clients, &w_straight.test, config(9),
                       std::make_unique<RoundRobinSelection>());
  const auto full = straight.run();
  ASSERT_TRUE(full.ok());

  auto cfg = config(9);
  cfg.checkpoint_every = 3;
  Coordinator with_saves(&w_auto.clients, &w_auto.test, cfg,
                         std::make_unique<RoundRobinSelection>());
  std::vector<TrainingCheckpoint> saves;
  with_saves.set_checkpoint_sink(
      [&](const TrainingCheckpoint& cp) { saves.push_back(cp); });
  const auto out = with_saves.run();
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(saves.size(), 3u);
  EXPECT_EQ(saves[0].rounds_completed, 3u);
  EXPECT_EQ(saves[1].rounds_completed, 6u);
  EXPECT_EQ(saves[2].rounds_completed, 9u);
  EXPECT_EQ(saves[2].params, full->final_params);

  // Crash after round 6, restart from the autosave, finish the last 3.
  Coordinator resumed(&w_resume.clients, &w_resume.test, config(3),
                      std::make_unique<RoundRobinSelection>());
  resumed.resume_from(saves[1]);
  const auto r = resumed.run();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->record.round(0).round, 6u);
  EXPECT_EQ(r->final_params, full->final_params);
}

TEST(Checkpoint, EvalEveryZeroIsRejected) {
  World w;
  auto cfg = config(4);
  cfg.eval_every = 0;
  Coordinator coord(&w.clients, &w.test, cfg,
                    std::make_unique<RoundRobinSelection>());
  const auto r = coord.run();
  EXPECT_FALSE(r.ok());
}

TEST(Checkpoint, ResumeContinuesLrSchedule) {
  // A run resumed at round 100 trains with lr·decay^100, not the fresh-run
  // lr: its one K = 1 round lands exactly on the serial reference's round
  // 100 step, which moves the parameters far less than a round-0 step.
  World w;
  const std::vector<double> zeros(144 * 10 + 10, 0.0);
  auto cfg = config(1);
  cfg.clients_per_round = 1;
  cfg.local_epochs = 1;
  Coordinator coord(&w.clients, &w.test, cfg,
                    std::make_unique<UniformRandomSelection>(Rng(5)));
  coord.resume_from(TrainingCheckpoint{zeros, 100});
  const auto outcome = coord.run();
  ASSERT_TRUE(outcome.ok());
  const ClientId k = outcome->record.round(0).selected[0];
  const auto late = reference::train_serial(w.clients[k], zeros, 1, 100);
  EXPECT_EQ(outcome->final_params, late.params);

  const auto fresh = reference::train_serial(w.clients[k], zeros, 1, 0);
  double fresh_norm = 0, late_norm = 0;
  for (std::size_t i = 0; i < zeros.size(); ++i) {
    fresh_norm += fresh.params[i] * fresh.params[i];
    late_norm += late.params[i] * late.params[i];
  }
  EXPECT_LT(late_norm, fresh_norm * std::pow(0.99, 150));
}

}  // namespace
}  // namespace eefei::fl
