// The ModelBank determinism contract (model_bank.h): batched multi-model
// training is memcmp-equal to the serial reference — one
// reference::train_serial call per model (serial_reference.h) — for any K
// (odd counts included), heterogeneous local sample counts, mixed epoch
// budgets, every compiled SIMD backend and every pool size of the pooled
// schedule, and the coordinator reproduces the serial-path trajectory at
// any thread count.
// The CI scalar-fallback job (-DEEFEI_SIMD=OFF) runs this same file
// against the scalar table, and EEFEI_SIMD_ISA jobs pin the other
// backends, so one golden body covers every dispatch flavour.
#include "ml/model_bank.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "data/partition.h"
#include "data/synth_digits.h"
#include "fl/client.h"
#include "fl/coordinator.h"
#include "fl/selection.h"
#include "ml/serialize.h"
#include "ml/simd.h"
#include "serial_reference.h"

namespace eefei::ml {
namespace {

// A fleet world with deliberately ragged local batches: sample_limit
// trims each shard to a different n_k, including a one-sample server.
// `per_server` samples are rendered per server at `side`×`side` pixels.
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
                     double l2_lambda = 0.0, std::size_t per_server = 40,
                     std::size_t side = 12) {
    data::SynthDigitsConfig dcfg;
    dcfg.image_side = side;
    dcfg.seed = 41;
    data::SynthDigits gen(dcfg);
    train = gen.generate(servers * per_server);
    test = gen.generate(200);
    Rng rng(42);
    shards = data::partition_iid(train, servers, rng).value();
    ccfg.model.input_dim = side * side;
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
                                std::size_t round,
                                ThreadPool* pool = nullptr,
                                const std::function<void()>& side_job = {}) {
  const std::size_t dim = w.ccfg.model.parameter_count();
  const auto global = make_global(dim, 7 + round);
  const double lr = w.ccfg.sgd.learning_rate *
                    std::pow(w.ccfg.sgd.decay, static_cast<double>(round));

  std::vector<fl::LocalTrainResult> serial;
  for (auto& client : w.clients) {
    serial.push_back(reference::train_serial(client, global, epochs, round));
  }

  ModelBank bank;
  bank.configure(w.ccfg.model.lr_config());
  std::vector<ModelBank::Task> tasks(w.clients.size());
  for (std::size_t i = 0; i < w.clients.size(); ++i) {
    tasks[i].batch = w.clients[i].local_batch();
    tasks[i].epochs = epochs;
    tasks[i].learning_rate = lr;
  }
  bank.train(global, tasks, pool, side_job);

  for (std::size_t i = 0; i < w.clients.size(); ++i) {
    const auto params = bank.params_of(i);
    ASSERT_EQ(params.size(), serial[i].params.size());
    EXPECT_EQ(0, std::memcmp(params.data(), serial[i].params.data(),
                             params.size() * sizeof(double)))
        << "model " << i << " diverged (n_k=" << tasks[i].batch.size()
        << ", K=" << w.clients.size()
        << ", pool=" << (pool != nullptr ? pool->size() : 0) << ", ISA "
        << simd::isa_name(simd::active_isa()) << ")";
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
  // expression the serial reference evaluates.
  BankWorld w;
  expect_bank_matches_serial(w, /*epochs=*/4, /*round=*/37);
}

TEST(ModelBank, SingleModelBankMatchesSerialBitwise) {
  BankWorld w(1, {0});
  expect_bank_matches_serial(w, /*epochs=*/8, /*round=*/2);
}

TEST(ModelBank, MixedEpochBudgetsIncludingZero) {
  // Per-task epoch budgets exercise the shrinking active set; epochs == 0
  // must reproduce the serial reference's initial == final loss contract.
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
    const auto serial =
        reference::train_serial(w.clients[i], global, epochs[i], 0);
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
        const auto serial =
            reference::train_serial(w->clients[i], global, 3, 0);
        const auto params = bank.params_of(i);
        EXPECT_EQ(0, std::memcmp(params.data(), serial.params.data(),
                                 params.size() * sizeof(double)))
            << "pass " << pass << " K=" << w->clients.size() << " model "
            << i;
      }
    }
  }
}

TEST(ModelBank, PooledTrainMatchesSerialAtAnyWorkerCount) {
  // The pooled schedule at every K mod W: whole-model chunks, leftover
  // models split across the team (n_k = 400, 370, 300, 240) and leftover
  // models too small to split (n_k = 13, 5, 1) in one call.  Sigmoid has
  // c loss terms per row, and L2 adds the penalty and the λ·w step.
  const std::vector<std::size_t> limits = {0, 13, 1, 370, 240, 5, 300};
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (const std::size_t workers : {1, 2, 3, 4}) {
    pools.push_back(std::make_unique<ThreadPool>(workers));
  }
  for (const std::size_t k : {1, 3, 2, 5, 7}) {
    BankWorld softmax(k, limits, Activation::kSoftmax, 0.0, 400);
    BankWorld sigmoid(k, limits, Activation::kSigmoid, 1e-3, 400);
    for (const auto& pool : pools) {
      expect_bank_matches_serial(softmax, /*epochs=*/3, /*round=*/1,
                                 pool.get());
      expect_bank_matches_serial(sigmoid, /*epochs=*/2, /*round=*/4,
                                 pool.get());
    }
  }
}

TEST(ModelBank, PooledSingleModelAtPaperShapeMatchesSerial) {
  // K = 1 at the prototype's shape (n_k = 250, d = 784, c = 10), the
  // paper's energy optimum: one model split across 2, 3 and 4 parties.
  BankWorld w(1, {0}, Activation::kSoftmax, 0.0, 250, 28);
  for (const std::size_t workers : {2, 3, 4}) {
    ThreadPool pool(workers);
    expect_bank_matches_serial(w, /*epochs=*/4, /*round=*/3, &pool);
  }
}

TEST(ModelBank, ConcurrentAndNestedPooledCallsFinishAndMatchSerial) {
  // Two threads train K = 1 on one 2-worker pool at once while a third
  // call runs inside one of its tasks: helpers that never get a worker
  // must block nothing, and every call lands on the serial bits.
  BankWorld w(1, {0}, Activation::kSoftmax, 0.0, 400);
  const auto global = make_global(w.ccfg.model.parameter_count(), 13);
  const auto serial =
      reference::train_serial(w.clients[0], global, /*epochs=*/6, 0);
  ThreadPool pool(2);
  const auto run = [&] {
    ModelBank bank;
    bank.configure(w.ccfg.model.lr_config());
    std::vector<ModelBank::Task> tasks(1);
    tasks[0].batch = w.clients[0].local_batch();
    tasks[0].epochs = 6;
    tasks[0].learning_rate = w.ccfg.sgd.learning_rate;
    bank.train(global, tasks, &pool);
    const auto params = bank.params_of(0);
    return std::memcmp(params.data(), serial.params.data(),
                       params.size() * sizeof(double)) == 0 &&
           tasks[0].initial_loss == serial.initial_loss &&
           tasks[0].final_loss == serial.final_loss;
  };
  std::vector<std::future<bool>> calls;
  calls.push_back(std::async(std::launch::async, run));
  calls.push_back(std::async(std::launch::async, run));
  calls.push_back(pool.submit(run));
  for (auto& call : calls) {
    ASSERT_EQ(call.wait_for(std::chrono::seconds(60)),
              std::future_status::ready);
    EXPECT_TRUE(call.get());
  }
}

TEST(ModelBank, SideJobRunsOnceOnTheCallingThreadBesideTraining) {
  // The side job runs exactly once, on the calling thread, and moves no
  // bit: K = 1 (split across the team), K = 3 (whole chunks plus split
  // leftovers) and K = 2200 tiny models (d = 16, n_k ≤ 4: many chunks per
  // party), serially and on pools of 1-4 workers.
  BankWorld one(1, {0}, Activation::kSoftmax, 0.0, 400);
  BankWorld three(3, {0, 13, 370}, Activation::kSoftmax, 0.0, 400);
  BankWorld tiny(2200, {4, 3, 1, 4, 2}, Activation::kSoftmax, 0.0, 4, 4);
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.push_back(nullptr);
  for (const std::size_t workers : {1, 2, 3, 4}) {
    pools.push_back(std::make_unique<ThreadPool>(workers));
  }
  for (BankWorld* w : {&one, &three, &tiny}) {
    for (const auto& pool : pools) {
      std::size_t runs = 0;
      std::thread::id ran_on;
      expect_bank_matches_serial(*w, /*epochs=*/2, /*round=*/1, pool.get(),
                                 [&] {
                                   ++runs;
                                   ran_on = std::this_thread::get_id();
                                 });
      EXPECT_EQ(runs, 1u) << "K=" << w->clients.size();
      EXPECT_EQ(ran_on, std::this_thread::get_id())
          << "K=" << w->clients.size();
    }
  }

  // Every worker of the pool is busy for the whole call: no helper ever
  // starts, and party 0 runs the side job and all the training alone.
  ThreadPool blocked(2);
  std::promise<void> release;
  const std::shared_future<void> gate = release.get_future().share();
  for (std::size_t i = 0; i < blocked.size(); ++i) {
    blocked.post([gate] { gate.wait(); });
  }
  for (BankWorld* w : {&one, &three, &tiny}) {
    std::size_t runs = 0;
    expect_bank_matches_serial(*w, /*epochs=*/2, /*round=*/1, &blocked,
                               [&] { ++runs; });
    EXPECT_EQ(runs, 1u) << "K=" << w->clients.size();
  }
  release.set_value();
}

TEST(ModelBank, ThrowingSideJobPropagatesAfterTraining) {
  // The exception surfaces only once the team has finished, so the same
  // bank and pool train the next call to the serial bits.
  BankWorld w(3, {0, 13, 370}, Activation::kSoftmax, 0.0, 400);
  const auto global = make_global(w.ccfg.model.parameter_count(), 3);
  ThreadPool pool(3);
  ModelBank bank;
  bank.configure(w.ccfg.model.lr_config());
  std::vector<ModelBank::Task> tasks(w.clients.size());
  for (std::size_t i = 0; i < w.clients.size(); ++i) {
    tasks[i].batch = w.clients[i].local_batch();
    tasks[i].epochs = 2;
    tasks[i].learning_rate = w.ccfg.sgd.learning_rate;
  }
  EXPECT_THROW(bank.train(global, tasks, &pool,
                          [] { throw std::runtime_error("side job"); }),
               std::runtime_error);
  bank.train(global, tasks, &pool);
  for (std::size_t i = 0; i < w.clients.size(); ++i) {
    const auto serial = reference::train_serial(w.clients[i], global, 2, 0);
    const auto params = bank.params_of(i);
    EXPECT_EQ(0, std::memcmp(params.data(), serial.params.data(),
                             params.size() * sizeof(double)))
        << "model " << i;
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

  explicit CoordWorld(std::size_t servers = 12) {
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
    clients.reserve(servers);
    for (std::size_t k = 0; k < servers; ++k) {
      clients.emplace_back(k, &shards[k], ccfg);
    }
  }
};

TrainingOutcome run_world(CoordWorld& w, std::size_t threads,
                          std::size_t clients_per_round) {
  CoordinatorConfig cfg;
  cfg.clients_per_round = clients_per_round;
  cfg.local_epochs = 4;
  cfg.max_rounds = 6;
  cfg.threads = threads;
  Coordinator coord(&w.clients, &w.test, cfg,
                    std::make_unique<UniformRandomSelection>(Rng(9)));
  auto outcome = coord.run();
  EXPECT_TRUE(outcome.ok());
  return std::move(outcome).value();
}

// The trajectory of the serial per-client path (one full-batch client
// trained after another, the reference in serial_reference.h), recorded
// before that path was deleted: CRC-32 of the final parameters' bytes and
// every round's global loss.
struct SerialPin {
  std::size_t k;
  std::uint32_t params_crc;
  std::vector<double> global_loss;
};

TEST(ModelBank, CoordinatorBatchedMatchesSerialForAnyThreadCount) {
  // The pooled bank at 1/2/3/5 workers lands on the serial path's global
  // trajectory — for an odd K over the pool and for K = 1.
  const std::vector<SerialPin> pins = {
      {7, 0x17c56631u,
       {0x1.23c7178086d1fp+1, 0x1.211eafec79497p+1, 0x1.1ee35705498a8p+1,
        0x1.1cac045042074p+1, 0x1.1a99463a79888p+1, 0x1.181edf54f3bbcp+1}},
      {1, 0xdc793c76u,
       {0x1.23b6dd9307753p+1, 0x1.2122b0517bac4p+1, 0x1.1f6b666945981p+1,
        0x1.1d988bbe54b58p+1, 0x1.1b8795b783a8ap+1, 0x1.19c386ef354p+1}},
  };
  for (const SerialPin& pin : pins) {
    CoordWorld w;
    for (const std::size_t threads : {std::size_t{0}, std::size_t{2},
                                      std::size_t{3}, std::size_t{5}}) {
      const auto run = run_world(w, threads, pin.k);
      const auto crc = ml::crc32(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(run.final_params.data()),
          run.final_params.size() * sizeof(double)));
      EXPECT_EQ(crc, pin.params_crc)
          << "K=" << pin.k << " threads=" << threads << std::hex
          << " crc=0x" << crc;
      ASSERT_EQ(run.record.rounds(), pin.global_loss.size());
      for (std::size_t t = 0; t < pin.global_loss.size(); ++t) {
        EXPECT_EQ(run.record.round(t).global_loss, pin.global_loss[t])
            << "K=" << pin.k << " threads=" << threads << " round " << t;
      }
    }
  }
}

}  // namespace
}  // namespace eefei::fl
