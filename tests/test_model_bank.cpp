// The ModelBank determinism contract (model_bank.h): batched multi-model
// training is memcmp-equal to the serial reference — one fl::Client::train
// call per model — for any K (odd counts included), heterogeneous local
// sample counts, mixed epoch budgets, every compiled SIMD backend and any
// coordinator thread count.  The CI scalar-fallback job (-DEEFEI_SIMD=OFF)
// runs this same file against the scalar table, and EEFEI_SIMD_ISA jobs
// pin the other backends, so one golden body covers every dispatch flavour.
#include "ml/model_bank.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "data/partition.h"
#include "data/synth_digits.h"
#include "fl/client.h"
#include "fl/coordinator.h"
#include "fl/selection.h"
#include "ml/simd.h"

namespace eefei::ml {
namespace {

// A fleet world with deliberately ragged local batches: sample_limit
// trims each shard to a different n_k, including a one-sample server.
struct BankWorld {
  data::Dataset train;
  data::Dataset test;
  std::vector<data::Shard> shards;
  std::vector<fl::Client> clients;
  fl::ClientConfig ccfg;

  explicit BankWorld(std::size_t servers = 7,
                     std::vector<std::size_t> limits = {0, 13, 1, 37, 24, 5,
                                                        30},
                     Activation activation = Activation::kSoftmax,
                     double l2_lambda = 0.0) {
    data::SynthDigitsConfig dcfg;
    dcfg.image_side = 12;
    dcfg.seed = 41;
    data::SynthDigits gen(dcfg);
    train = gen.generate(servers * 40);
    test = gen.generate(200);
    Rng rng(42);
    shards = data::partition_iid(train, servers, rng).value();
    ccfg.model.input_dim = 144;
    ccfg.model.num_classes = 10;
    ccfg.model.activation = activation;
    ccfg.model.l2_lambda = l2_lambda;
    ccfg.sgd.learning_rate = 0.05;
    ccfg.sgd.decay = 0.99;
    clients.reserve(servers);
    for (std::size_t k = 0; k < servers; ++k) {
      fl::ClientConfig cfg = ccfg;
      cfg.sample_limit = limits[k % limits.size()];
      clients.emplace_back(k, &shards[k], cfg);
    }
  }
};

std::vector<double> make_global(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> g(n);
  for (auto& x : g) x = rng.uniform(-0.2, 0.2);
  return g;
}

// Serial reference vs bank, bit-for-bit: parameters AND both loss outputs.
void expect_bank_matches_serial(BankWorld& w, std::size_t epochs,
                                std::size_t round) {
  const std::size_t dim = w.ccfg.model.parameter_count();
  const auto global = make_global(dim, 7 + round);
  const double lr = w.ccfg.sgd.learning_rate *
                    std::pow(w.ccfg.sgd.decay, static_cast<double>(round));

  std::vector<fl::LocalTrainResult> serial;
  for (auto& client : w.clients) {
    serial.push_back(client.train(global, epochs, round));
  }

  ModelBank bank;
  bank.configure(w.ccfg.model.lr_config());
  std::vector<ModelBank::Task> tasks(w.clients.size());
  for (std::size_t i = 0; i < w.clients.size(); ++i) {
    tasks[i].batch = w.clients[i].local_batch();
    tasks[i].epochs = epochs;
    tasks[i].learning_rate = lr;
  }
  bank.train(global, tasks);

  for (std::size_t i = 0; i < w.clients.size(); ++i) {
    const auto params = bank.params_of(i);
    ASSERT_EQ(params.size(), serial[i].params.size());
    EXPECT_EQ(0, std::memcmp(params.data(), serial[i].params.data(),
                             params.size() * sizeof(double)))
        << "model " << i << " diverged (n_k=" << tasks[i].batch.size()
        << ", ISA " << simd::isa_name(simd::active_isa()) << ")";
    EXPECT_EQ(tasks[i].initial_loss, serial[i].initial_loss) << "model " << i;
    EXPECT_EQ(tasks[i].final_loss, serial[i].final_loss) << "model " << i;
  }
}

TEST(ModelBank, OddKHeterogeneousBatchesMatchSerialBitwise) {
  BankWorld w;  // K = 7, n_k ∈ {40, 13, 1, 37, 24, 5, 30}
  expect_bank_matches_serial(w, /*epochs=*/6, /*round=*/0);
}

TEST(ModelBank, DecayedRoundLearningRateMatchesSerialBitwise) {
  // Round 37: lr = 0.05·0.99³⁷ must be reproduced through the same pow
  // expression the serial SgdOptimizer evaluates.
  BankWorld w;
  expect_bank_matches_serial(w, /*epochs=*/4, /*round=*/37);
}

TEST(ModelBank, SingleModelBankMatchesSerialBitwise) {
  BankWorld w(1, {0});
  expect_bank_matches_serial(w, /*epochs=*/8, /*round=*/2);
}

TEST(ModelBank, MixedEpochBudgetsIncludingZero) {
  // Per-task epoch budgets exercise the shrinking active set; epochs == 0
  // must reproduce the serial client's initial == final loss contract.
  BankWorld w;
  const std::size_t dim = w.ccfg.model.parameter_count();
  const auto global = make_global(dim, 99);
  const std::vector<std::size_t> epochs = {0, 1, 6, 3, 6, 2, 5};
  const double lr = w.ccfg.sgd.learning_rate;

  ModelBank bank;
  bank.configure(w.ccfg.model.lr_config());
  std::vector<ModelBank::Task> tasks(w.clients.size());
  for (std::size_t i = 0; i < w.clients.size(); ++i) {
    tasks[i].batch = w.clients[i].local_batch();
    tasks[i].epochs = epochs[i];
    tasks[i].learning_rate = lr;
  }
  bank.train(global, tasks);

  for (std::size_t i = 0; i < w.clients.size(); ++i) {
    const auto serial = w.clients[i].train(global, epochs[i], 0);
    const auto params = bank.params_of(i);
    EXPECT_EQ(0, std::memcmp(params.data(), serial.params.data(),
                             params.size() * sizeof(double)))
        << "model " << i << " (E=" << epochs[i] << ")";
    EXPECT_EQ(tasks[i].initial_loss, serial.initial_loss) << "model " << i;
    EXPECT_EQ(tasks[i].final_loss, serial.final_loss) << "model " << i;
  }
  EXPECT_EQ(tasks[0].initial_loss, tasks[0].final_loss);  // E = 0
}

TEST(ModelBank, SigmoidHeadAndL2PenaltyMatchSerialBitwise) {
  // The non-default head + a live penalty term: covers the BCE row loss
  // and the L2 gradient/penalty branches of the fused epoch.
  BankWorld w(7, {0, 13, 1, 37, 24, 5, 30}, Activation::kSigmoid, 1e-3);
  expect_bank_matches_serial(w, /*epochs=*/5, /*round=*/1);
}

TEST(ModelBank, RepeatedRoundsReuseArenasAndStayIdentical) {
  // Same bank across rounds of different shapes: results must not depend
  // on what a previous round left in the (larger) arenas.
  BankWorld big;       // K = 7
  BankWorld small(3, {20, 7, 2});
  const std::size_t dim = big.ccfg.model.parameter_count();

  ModelBank bank;
  bank.configure(big.ccfg.model.lr_config());
  for (int pass = 0; pass < 2; ++pass) {
    for (BankWorld* w : {&big, &small}) {
      const auto global = make_global(dim, 5);
      std::vector<ModelBank::Task> tasks(w->clients.size());
      for (std::size_t i = 0; i < w->clients.size(); ++i) {
        tasks[i].batch = w->clients[i].local_batch();
        tasks[i].epochs = 3;
        tasks[i].learning_rate = 0.05;
      }
      bank.train(global, tasks);
      for (std::size_t i = 0; i < w->clients.size(); ++i) {
        const auto serial = w->clients[i].train(global, 3, 0);
        const auto params = bank.params_of(i);
        EXPECT_EQ(0, std::memcmp(params.data(), serial.params.data(),
                                 params.size() * sizeof(double)))
            << "pass " << pass << " K=" << w->clients.size() << " model "
            << i;
      }
    }
  }
}

}  // namespace
}  // namespace eefei::ml

namespace eefei::fl {
namespace {

struct CoordWorld {
  data::Dataset train;
  data::Dataset test;
  std::vector<data::Shard> shards;
  std::vector<Client> clients;

  explicit CoordWorld(std::size_t servers = 12, double proximal_mu = 0.0) {
    data::SynthDigitsConfig dcfg;
    dcfg.image_side = 12;
    dcfg.seed = 51;
    data::SynthDigits gen(dcfg);
    train = gen.generate(servers * 30);
    test = gen.generate(200);
    Rng rng(52);
    shards = data::partition_iid(train, servers, rng).value();
    ClientConfig ccfg;
    ccfg.model.input_dim = 144;
    ccfg.model.num_classes = 10;
    ccfg.sgd.learning_rate = 0.05;
    ccfg.sgd.decay = 0.99;
    ccfg.proximal_mu = proximal_mu;
    clients.reserve(servers);
    for (std::size_t k = 0; k < servers; ++k) {
      clients.emplace_back(k, &shards[k], ccfg);
    }
  }
};

TrainingOutcome run_world(CoordWorld& w, bool batched, std::size_t threads,
                          std::size_t clients_per_round = 7) {
  CoordinatorConfig cfg;
  cfg.clients_per_round = clients_per_round;
  cfg.local_epochs = 4;
  cfg.max_rounds = 6;
  cfg.threads = threads;
  cfg.batched_training = batched;
  Coordinator coord(&w.clients, &w.test, cfg,
                    std::make_unique<UniformRandomSelection>(Rng(9)));
  auto outcome = coord.run();
  EXPECT_TRUE(outcome.ok());
  return std::move(outcome).value();
}

TEST(ModelBank, CoordinatorBatchedMatchesSerialForAnyThreadCount) {
  // The end-to-end pin behind CoordinatorConfig::batched_training's
  // "bit-identical" promise: the serial per-client path and the batched
  // path at 1/2/3/5 workers all land on the same global trajectory — for
  // an odd K through the bank partition and for K = 1, which also trains
  // through the bank.
  for (const std::size_t k : {std::size_t{7}, std::size_t{1}}) {
    CoordWorld w;
    const auto reference = run_world(w, /*batched=*/false, /*threads=*/0, k);
    for (const std::size_t threads : {std::size_t{0}, std::size_t{2},
                                      std::size_t{3}, std::size_t{5}}) {
      const auto batched = run_world(w, /*batched=*/true, threads, k);
      ASSERT_EQ(batched.final_params.size(), reference.final_params.size());
      EXPECT_EQ(0,
                std::memcmp(batched.final_params.data(),
                            reference.final_params.data(),
                            reference.final_params.size() * sizeof(double)))
          << "K=" << k << " threads=" << threads;
      ASSERT_EQ(batched.record.rounds(), reference.record.rounds());
      for (std::size_t t = 0; t < reference.record.rounds(); ++t) {
        EXPECT_EQ(batched.record.round(t).global_loss,
                  reference.record.round(t).global_loss)
            << "K=" << k << " threads=" << threads << " round " << t;
      }
    }
  }
}

TEST(ModelBank, IneligibleClientsFallBackToSerialPathIdentically) {
  // FedProx clients are outside the bank's contract (bank_eligible() is
  // false) — batched_training must quietly take the per-client path and
  // produce the exact same run.
  CoordWorld serial_world(8, /*proximal_mu=*/0.01);
  CoordWorld batched_world(8, /*proximal_mu=*/0.01);
  const auto reference = run_world(serial_world, false, 0);
  const auto fallback = run_world(batched_world, true, 2);
  EXPECT_EQ(0, std::memcmp(fallback.final_params.data(),
                           reference.final_params.data(),
                           reference.final_params.size() * sizeof(double)));
}

}  // namespace
}  // namespace eefei::fl
