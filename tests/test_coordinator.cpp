#include "fl/coordinator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>

#include "data/partition.h"
#include "data/synth_digits.h"
#include "ml/logistic_regression.h"
#include "ml/serialize.h"

namespace eefei::fl {
namespace {

struct World {
  data::Dataset train;
  data::Dataset test;
  std::vector<data::Shard> shards;
  std::vector<Client> clients;

  explicit World(std::size_t servers = 4, std::size_t per = 50,
                 double lr = 0.1) {
    data::SynthDigitsConfig dcfg;
    dcfg.image_side = 12;
    dcfg.seed = 21;
    data::SynthDigits gen(dcfg);
    train = gen.generate(servers * per);
    test = gen.generate(300);
    Rng rng(22);
    shards = data::partition_iid(train, servers, rng).value();
    ClientConfig ccfg;
    ccfg.model.input_dim = 144;
    ccfg.model.num_classes = 10;
    ccfg.sgd.learning_rate = lr;
    ccfg.sgd.decay = 0.995;
    clients.reserve(servers);
    for (std::size_t k = 0; k < servers; ++k) {
      clients.emplace_back(k, &shards[k], ccfg);
    }
  }
};

CoordinatorConfig basic_config() {
  CoordinatorConfig cfg;
  cfg.clients_per_round = 2;
  cfg.local_epochs = 5;
  cfg.max_rounds = 20;
  return cfg;
}

TEST(Coordinator, RunsRequestedRounds) {
  World w;
  Coordinator coord(&w.clients, &w.test, basic_config(),
                    std::make_unique<UniformRandomSelection>(Rng(1)));
  const auto outcome = coord.run();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->rounds_run, 20u);
  EXPECT_EQ(outcome->record.rounds(), 20u);
  EXPECT_FALSE(outcome->reached_target);
  EXPECT_EQ(outcome->total_local_epochs, 20u * 2u * 5u);
}

TEST(Coordinator, LossDecreasesOverTraining) {
  World w;
  auto cfg = basic_config();
  cfg.max_rounds = 40;
  Coordinator coord(&w.clients, &w.test, cfg,
                    std::make_unique<UniformRandomSelection>(Rng(2)));
  const auto outcome = coord.run();
  ASSERT_TRUE(outcome.ok());
  const auto& rec = outcome->record;
  EXPECT_LT(rec.last().global_loss, rec.round(0).global_loss * 0.8);
  EXPECT_GT(rec.last().test_accuracy, 0.5);
}

TEST(Coordinator, StopsAtTargetAccuracy) {
  World w;
  auto cfg = basic_config();
  cfg.max_rounds = 200;
  cfg.target_accuracy = 0.5;  // easy target
  Coordinator coord(&w.clients, &w.test, cfg,
                    std::make_unique<UniformRandomSelection>(Rng(3)));
  const auto outcome = coord.run();
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->reached_target);
  EXPECT_LT(outcome->rounds_run, 200u);
  EXPECT_GE(outcome->record.last().test_accuracy, 0.5);
}

TEST(Coordinator, ObserverSeesEveryRound) {
  World w;
  auto cfg = basic_config();
  cfg.max_rounds = 7;
  Coordinator coord(&w.clients, &w.test, cfg,
                    std::make_unique<UniformRandomSelection>(Rng(5)));
  std::size_t calls = 0;
  coord.set_round_observer(
      [&](const RoundRecord& r, std::span<const LocalTrainResult> updates) {
        EXPECT_EQ(r.round, calls);
        EXPECT_EQ(updates.size(), 2u);
        EXPECT_EQ(r.selected.size(), 2u);
        ++calls;
      });
  ASSERT_TRUE(coord.run().ok());
  EXPECT_EQ(calls, 7u);
}

TEST(Coordinator, ParallelMatchesSerial) {
  World w1, w2;
  auto cfg = basic_config();
  cfg.max_rounds = 10;
  cfg.threads = 0;
  Coordinator serial(&w1.clients, &w1.test, cfg,
                     std::make_unique<UniformRandomSelection>(Rng(6)));
  cfg.threads = 4;
  Coordinator parallel(&w2.clients, &w2.test, cfg,
                       std::make_unique<UniformRandomSelection>(Rng(6)));
  const auto a = serial.run();
  const auto b = parallel.run();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->final_params.size(), b->final_params.size());
  for (std::size_t i = 0; i < a->final_params.size(); ++i) {
    ASSERT_DOUBLE_EQ(a->final_params[i], b->final_params[i]);
  }
}

TEST(Coordinator, InvalidConfigsRejected) {
  World w;
  {
    auto cfg = basic_config();
    cfg.clients_per_round = 0;
    Coordinator c(&w.clients, &w.test, cfg,
                  std::make_unique<UniformRandomSelection>(Rng(7)));
    EXPECT_FALSE(c.run().ok());
  }
  {
    auto cfg = basic_config();
    cfg.max_rounds = 0;
    Coordinator c(&w.clients, &w.test, cfg,
                  std::make_unique<UniformRandomSelection>(Rng(8)));
    EXPECT_FALSE(c.run().ok());
  }
  {
    std::vector<Client> none;
    Coordinator c(&none, &w.test, basic_config(),
                  std::make_unique<UniformRandomSelection>(Rng(9)));
    EXPECT_FALSE(c.run().ok());
  }
}

TEST(Coordinator, RejectsSelectedClientsWithDisagreeingConfigs) {
  // One ModelBank trains every selected client at one shape and one rate,
  // so a round whose selected clients disagree on the sgd schedule fails
  // with a named error instead of quietly training some other way.
  World w;
  ClientConfig faster = w.clients[1].config();
  faster.sgd.learning_rate *= 2.0;
  w.clients[1] = Client(1, &w.shards[1], faster);
  auto cfg = basic_config();
  cfg.clients_per_round = w.clients.size();  // every round selects both
  Coordinator c(&w.clients, &w.test, cfg,
                std::make_unique<UniformRandomSelection>(Rng(12)));
  const auto outcome = c.run();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, Error::Code::kInvalidArgument);
  EXPECT_NE(outcome.error().message.find("disagree"), std::string::npos)
      << outcome.error().message;
}

TEST(Coordinator, VetoedUpdatesAggregateToPinnedParams) {
  // An UpdateFilter vetoes a fixed pattern (round 3 loses every update),
  // optionally on top of the coordinator's own drop roll.  The survivors are
  // averaged in place, so each element must see the same additive sequence
  // as when they were copied out first: final_params is pinned bitwise,
  // serial and on pools of 2, 3 and 4, where the filter runs beside the
  // helpers' training.  Shards are capped at different n_k so the
  // sample-weighted rule differs from the mean.
  struct Pin {
    AggregationRule rule;
    double drop;
    std::uint32_t crc;
  };
  for (const Pin& pin :
       {Pin{AggregationRule::kUniformMean, 0.0, 0x1b8682eeu},
        Pin{AggregationRule::kSampleWeighted, 0.0, 0xbdc39432u},
        Pin{AggregationRule::kSampleWeighted, 0.3, 0x9acd3079u}}) {
    for (const std::size_t threads : {0u, 2u, 3u, 4u}) {
      World w(6, 40);
      for (std::size_t k = 0; k < w.clients.size(); ++k) {
        ClientConfig capped = w.clients[k].config();
        capped.sample_limit = 10 + 5 * k;
        w.clients[k] = Client(k, &w.shards[k], capped);
      }
      auto cfg = basic_config();
      cfg.clients_per_round = 4;
      cfg.max_rounds = 8;
      cfg.aggregation = pin.rule;
      cfg.update_drop_probability = pin.drop;
      cfg.threads = threads;
      Coordinator coord(&w.clients, &w.test, cfg,
                        std::make_unique<UniformRandomSelection>(Rng(13)));
      coord.set_update_filter([](std::size_t round,
                                 std::span<const ClientId> /*selected*/,
                                 PendingUpdates updates) {
        RoundFaultStats stats;
        for (std::size_t i = 0; i < updates.size(); ++i) {
          if (round == 3 || (round + i) % 3 == 1) {
            updates.veto(i);
            ++stats.aborted_updates;
          }
        }
        return stats;
      });
      const auto outcome = coord.run();
      ASSERT_TRUE(outcome.ok());
      EXPECT_EQ(outcome->record.rounds(), 8u);
      const auto& params = outcome->final_params;
      const auto crc = ml::crc32(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(params.data()),
          params.size() * sizeof(double)));
      EXPECT_EQ(crc, pin.crc)
          << "rule " << static_cast<int>(pin.rule) << " drop " << pin.drop
          << " threads " << threads << std::hex << " crc=0x" << crc;
    }
  }
}

TEST(Coordinator, InitialParamsRespected) {
  World w;
  auto cfg = basic_config();
  cfg.max_rounds = 1;
  cfg.local_epochs = 0;  // no training: output = mean of initial params
  Coordinator coord(&w.clients, &w.test, cfg,
                    std::make_unique<UniformRandomSelection>(Rng(10)));
  std::vector<double> init(144 * 10 + 10, 0.25);
  coord.set_initial_params(init);
  const auto outcome = coord.run();
  ASSERT_TRUE(outcome.ok());
  for (const double p : outcome->final_params) {
    ASSERT_DOUBLE_EQ(p, 0.25);
  }
}

// The classic FedAvg sanity property: with K = N clients, E = 1 local epoch
// and IID full-batch gradients, one FL round equals one centralized
// full-batch GD step on the union dataset (identical shard sizes).
TEST(Coordinator, OneEpochAllClientsEqualsCentralizedGd) {
  World w(4, 50, 0.05);  // lr value is irrelevant; must match below
  CoordinatorConfig cfg;
  cfg.clients_per_round = 4;
  cfg.local_epochs = 1;
  cfg.max_rounds = 3;
  Coordinator coord(&w.clients, &w.test, cfg,
                    std::make_unique<UniformRandomSelection>(Rng(11)));
  const auto outcome = coord.run();
  ASSERT_TRUE(outcome.ok());

  // Centralized: same model, full dataset, same lr schedule (0.05·0.995^t).
  ml::LogisticRegressionConfig mcfg;
  mcfg.input_dim = 144;
  mcfg.num_classes = 10;
  ml::LogisticRegression model(mcfg);
  std::vector<double> grad(model.parameter_count());
  auto params = model.parameters();
  for (std::size_t t = 0; t < 3; ++t) {
    // Average of per-shard full-batch gradients == full-batch gradient of
    // the union (equal shard sizes).
    std::vector<double> mean_grad(grad.size(), 0.0);
    for (const auto& shard : w.shards) {
      model.loss_and_gradient(shard.view(), grad);
      for (std::size_t i = 0; i < grad.size(); ++i) {
        mean_grad[i] += grad[i] / 4.0;
      }
    }
    const double lr = 0.05 * std::pow(0.995, static_cast<double>(t));
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i] -= lr * mean_grad[i];
    }
  }
  ASSERT_EQ(outcome->final_params.size(), params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    ASSERT_NEAR(outcome->final_params[i], params[i], 1e-10);
  }
}

}  // namespace
}  // namespace eefei::fl
