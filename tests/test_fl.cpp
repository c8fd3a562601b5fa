// Tests for the FL substrate: client local training (through the serial
// reference ModelBank is pinned to), FedAvg aggregation, selection
// policies and the training record.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "data/partition.h"
#include "data/synth_digits.h"
#include "fl/aggregator.h"
#include "fl/client.h"
#include "fl/selection.h"
#include "fl/training_record.h"
#include "serial_reference.h"

namespace eefei::fl {
namespace {

struct SmallWorld {
  data::Dataset train;
  std::vector<data::Shard> shards;
  ClientConfig ccfg;

  explicit SmallWorld(std::size_t servers = 4, std::size_t per = 60) {
    data::SynthDigitsConfig dcfg;
    dcfg.image_side = 12;
    dcfg.seed = 11;
    data::SynthDigits gen(dcfg);
    train = gen.generate(servers * per);
    Rng rng(12);
    shards = data::partition_iid(train, servers, rng).value();
    ccfg.model.input_dim = 144;
    ccfg.model.num_classes = 10;
    ccfg.sgd.learning_rate = 0.05;
    ccfg.sgd.decay = 0.99;
  }
};

TEST(Client, TrainingReducesLocalLoss) {
  SmallWorld w;
  Client client(0, &w.shards[0], w.ccfg);
  const std::size_t dim = 144 * 10 + 10;
  const std::vector<double> zeros(dim, 0.0);
  const auto result = reference::train_serial(client, zeros, 30, 0);
  EXPECT_EQ(result.client, 0u);
  EXPECT_EQ(result.epochs_run, 30u);
  EXPECT_EQ(result.samples_used, w.shards[0].size());
  EXPECT_LT(result.final_loss, result.initial_loss);
  EXPECT_EQ(result.params.size(), dim);
}

TEST(Client, ZeroEpochsReturnsGlobalModel) {
  SmallWorld w;
  Client client(0, &w.shards[0], w.ccfg);
  std::vector<double> global(144 * 10 + 10, 0.1);
  const auto result = reference::train_serial(client, global, 0, 0);
  EXPECT_EQ(result.params, global);
  EXPECT_DOUBLE_EQ(result.initial_loss, result.final_loss);
}

TEST(Client, LaterRoundsUseSmallerLearningRate) {
  SmallWorld w;
  Client client(0, &w.shards[0], w.ccfg);
  const std::vector<double> zeros(144 * 10 + 10, 0.0);
  const auto early = reference::train_serial(client, zeros, 1, 0);
  // lr ≈ 0.05·0.99^200
  const auto late = reference::train_serial(client, zeros, 1, 200);
  // The late-round step must move the parameters much less.
  double early_norm = 0, late_norm = 0;
  for (std::size_t i = 0; i < zeros.size(); ++i) {
    early_norm += early.params[i] * early.params[i];
    late_norm += late.params[i] * late.params[i];
  }
  EXPECT_LT(late_norm, early_norm * 0.1);
}

TEST(Client, SampleLimitRestrictsBatch) {
  SmallWorld w;
  ClientConfig limited = w.ccfg;
  limited.sample_limit = 10;
  Client client(0, &w.shards[0], limited);
  EXPECT_EQ(client.num_samples(), 10u);
  const std::vector<double> zeros(144 * 10 + 10, 0.0);
  EXPECT_EQ(reference::train_serial(client, zeros, 1, 0).samples_used, 10u);
}

TEST(Client, LocalLossMatchesInitialTrainLoss) {
  SmallWorld w;
  Client client(1, &w.shards[1], w.ccfg);
  const std::vector<double> zeros(144 * 10 + 10, 0.0);
  const double probe = client.local_loss(zeros);
  const auto result = reference::train_serial(client, zeros, 5, 0);
  EXPECT_NEAR(probe, result.initial_loss, 1e-12);
}

TEST(Aggregator, UniformMeanMatchesEq2) {
  LocalTrainResult a, b;
  a.params = {1.0, 3.0};
  a.samples_used = 10;
  b.params = {3.0, 5.0};
  b.samples_used = 30;
  std::vector<LocalTrainResult> updates{a, b};
  std::vector<double> global;
  ASSERT_TRUE(aggregate(updates, AggregationRule::kUniformMean, global).ok());
  EXPECT_DOUBLE_EQ(global[0], 2.0);
  EXPECT_DOUBLE_EQ(global[1], 4.0);
}

TEST(Aggregator, SampleWeighted) {
  LocalTrainResult a, b;
  a.params = {1.0};
  a.samples_used = 10;
  b.params = {5.0};
  b.samples_used = 30;
  std::vector<LocalTrainResult> updates{a, b};
  std::vector<double> global;
  ASSERT_TRUE(
      aggregate(updates, AggregationRule::kSampleWeighted, global).ok());
  EXPECT_DOUBLE_EQ(global[0], 0.25 * 1.0 + 0.75 * 5.0);
}

TEST(Aggregator, Errors) {
  std::vector<double> global;
  EXPECT_FALSE(aggregate({}, AggregationRule::kUniformMean, global).ok());
  LocalTrainResult a, b;
  a.params = {1.0, 2.0};
  b.params = {1.0};
  std::vector<LocalTrainResult> bad{a, b};
  EXPECT_FALSE(aggregate(bad, AggregationRule::kUniformMean, global).ok());
  LocalTrainResult z1, z2;
  z1.params = {1.0};
  z2.params = {2.0};
  z1.samples_used = z2.samples_used = 0;
  std::vector<LocalTrainResult> zero{z1, z2};
  EXPECT_FALSE(aggregate(zero, AggregationRule::kSampleWeighted, global).ok());
}

TEST(Selection, UniformRandomDistinctAndInRange) {
  UniformRandomSelection sel{Rng(3)};
  for (std::size_t round = 0; round < 50; ++round) {
    const auto ids = sel.select(20, 10, round);
    EXPECT_EQ(ids.size(), 10u);
    std::set<ClientId> uniq(ids.begin(), ids.end());
    EXPECT_EQ(uniq.size(), ids.size());
    for (const auto id : ids) EXPECT_LT(id, 20u);
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  }
}

TEST(Selection, UniformRandomClampsK) {
  UniformRandomSelection sel{Rng(4)};
  EXPECT_EQ(sel.select(5, 99, 0).size(), 5u);
}

TEST(Selection, UniformRandomCoversEveryone) {
  UniformRandomSelection sel{Rng(5)};
  std::set<ClientId> seen;
  for (std::size_t round = 0; round < 200; ++round) {
    for (const auto id : sel.select(10, 3, round)) seen.insert(id);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Selection, RoundRobinRotates) {
  RoundRobinSelection sel;
  const auto r0 = sel.select(10, 3, 0);
  const auto r1 = sel.select(10, 3, 1);
  EXPECT_EQ(r0, (std::vector<ClientId>{0, 1, 2}));
  EXPECT_EQ(r1, (std::vector<ClientId>{3, 4, 5}));
}

TEST(Selection, RoundRobinHandlesWrap) {
  RoundRobinSelection sel;
  const auto ids = sel.select(5, 4, 3);  // starts at 12 mod 5 = 2
  EXPECT_EQ(ids.size(), 4u);
  std::set<ClientId> uniq(ids.begin(), ids.end());
  EXPECT_EQ(uniq.size(), 4u);
  // The cursor continues from where round 2 ended (id 12 mod 5 = 2), so
  // the wrap picks {2, 3, 4, 0} — not a low-id refill.
  EXPECT_EQ(ids, (std::vector<ClientId>{0, 2, 3, 4}));
}

TEST(Selection, RoundRobinFairOverFullCycle) {
  // Fairness: over any n consecutive rounds every client is selected the
  // same number of times ±1 — the old wrap-around refill systematically
  // over-selected low ids whenever k did not divide n.
  for (const auto& [n, k] : {std::pair<std::size_t, std::size_t>{10, 3},
                             {7, 4},
                             {5, 4},
                             {12, 5},
                             {9, 9}}) {
    RoundRobinSelection sel;
    std::vector<std::size_t> counts(n, 0);
    for (std::size_t round = 0; round < n; ++round) {
      for (const auto id : sel.select(n, k, round)) ++counts[id];
    }
    const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
    EXPECT_LE(*hi - *lo, 1u) << "n=" << n << " k=" << k;
    std::size_t total = 0;
    for (const auto c : counts) total += c;
    EXPECT_EQ(total, n * k) << "n=" << n << " k=" << k;
  }
}

TEST(Selection, EnergyAwarePrefersLowSpenders) {
  EnergyAwareSelection sel;
  sel.debit(0, 100.0);
  sel.debit(1, 50.0);
  sel.debit(2, 0.0);
  sel.debit(3, 75.0);
  const auto ids = sel.select(4, 2, 0);
  EXPECT_EQ(ids, (std::vector<ClientId>{1, 2}));
  EXPECT_DOUBLE_EQ(sel.balance(0), 100.0);
  EXPECT_DOUBLE_EQ(sel.balance(99), 0.0);
}

TEST(Selection, EnergyAwareBalancesOverTime) {
  EnergyAwareSelection sel;
  std::vector<double> spent(6, 0.0);
  for (std::size_t round = 0; round < 60; ++round) {
    const auto ids = sel.select(6, 2, round);
    for (const auto id : ids) {
      sel.debit(id, 1.0);
      spent[id] += 1.0;
    }
  }
  const auto [mn, mx] = std::minmax_element(spent.begin(), spent.end());
  EXPECT_LE(*mx - *mn, 1.0) << "energy-aware selection should equalize load";
}

TEST(TrainingRecord, RoundsToTargets) {
  TrainingRecord rec;
  for (std::size_t t = 0; t < 5; ++t) {
    RoundRecord r;
    r.round = t;
    r.global_loss = 2.0 - 0.3 * static_cast<double>(t);
    r.test_accuracy = 0.5 + 0.1 * static_cast<double>(t);
    rec.add(r);
  }
  EXPECT_EQ(rec.rounds_to_accuracy(0.75).value(), 4u);  // acc 0.8 at t=3
  EXPECT_EQ(rec.rounds_to_loss(1.5).value(), 3u);
  EXPECT_FALSE(rec.rounds_to_accuracy(0.99).has_value());
  EXPECT_DOUBLE_EQ(rec.best_accuracy(), 0.9);
  EXPECT_DOUBLE_EQ(rec.final_loss(), 0.8);
}

TEST(TrainingRecord, CsvExport) {
  TrainingRecord rec;
  RoundRecord r;
  r.round = 0;
  r.global_loss = 1.25;
  r.test_accuracy = 0.5;
  r.clients_selected = 3;
  r.local_epochs = 7;
  rec.add(r);
  const std::string csv = rec.to_csv();
  EXPECT_NE(csv.find("round,loss,accuracy"), std::string::npos);
  EXPECT_NE(csv.find("1.25"), std::string::npos);
}

}  // namespace
}  // namespace eefei::fl
