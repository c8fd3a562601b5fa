// Population: live engines built from the same data recipe share one
// immutable copy of the rendered test set and shards, keyed by exactly the
// fields that determine those bytes; data/model shape mismatches are
// rejected with a named error before anything is rendered.
#include "sim/population.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/telemetry.h"
#include "sim/event_fleet.h"
#include "sim/fei_system.h"

namespace eefei::sim {
namespace {

PopulationConfig small_config() {
  PopulationConfig cfg;
  cfg.num_servers = 4;
  cfg.samples_per_server = 20;
  cfg.test_samples = 10;
  cfg.data.image_side = 8;
  cfg.model.input_dim = 64;
  cfg.seed = 11;
  return cfg;
}

FeiSystemConfig small_system() {
  FeiSystemConfig cfg = prototype_config();
  cfg.num_servers = 6;
  cfg.samples_per_server = 60;
  cfg.test_samples = 100;
  cfg.data.image_side = 8;
  cfg.model.input_dim = 64;
  cfg.fl.clients_per_round = 3;
  cfg.fl.local_epochs = 2;
  cfg.fl.max_rounds = 3;
  cfg.fl.threads = 1;
  cfg.seed = 23;
  return cfg;
}

bool same_data(const Population& a, const Population& b) {
  return &a.test_set() == &b.test_set() &&
         a.shards().data() == b.shards().data();
}

using Mutation =
    std::pair<std::string, std::function<void(PopulationConfig&)>>;

TEST(Population, SameRecipeSharesOneDataBlock) {
  Population a, b;
  ASSERT_TRUE(a.build(small_config()).ok());
  ASSERT_TRUE(b.build(small_config()).ok());
  EXPECT_TRUE(same_data(a, b));
  EXPECT_EQ(a.test_set().size(), 10u);
  EXPECT_EQ(a.pool_size(), 4u);
  // The engine state stays private: each population owns its clients.
  EXPECT_NE(a.clients().data(), b.clients().data());
}

TEST(Population, EachKeyFieldRendersDistinctData) {
  const std::vector<Mutation> key_fields = {
      {"data.image_side",
       [](PopulationConfig& c) {
         c.data.image_side = 7;
         c.model.input_dim = 49;
       }},
      {"data.pixel_noise_stddev",
       [](PopulationConfig& c) { c.data.pixel_noise_stddev += 0.01; }},
      {"data.dropout_prob",
       [](PopulationConfig& c) { c.data.dropout_prob += 0.01; }},
      {"data.max_translation",
       [](PopulationConfig& c) { c.data.max_translation += 0.1; }},
      {"data.max_rotation_rad",
       [](PopulationConfig& c) { c.data.max_rotation_rad += 0.01; }},
      {"data.scale_jitter",
       [](PopulationConfig& c) { c.data.scale_jitter += 0.01; }},
      {"data.thickness_mean",
       [](PopulationConfig& c) { c.data.thickness_mean += 0.1; }},
      {"data.thickness_jitter",
       [](PopulationConfig& c) { c.data.thickness_jitter += 0.1; }},
      {"pool", [](PopulationConfig& c) { c.data_pool_shards = 2; }},
      {"samples_per_server",
       [](PopulationConfig& c) { c.samples_per_server = 21; }},
      {"test_samples", [](PopulationConfig& c) { c.test_samples = 11; }},
      {"partition",
       [](PopulationConfig& c) { c.partition = PartitionScheme::kShards; }},
      {"dirichlet_alpha",
       [](PopulationConfig& c) { c.dirichlet_alpha = 0.7; }},
      {"shards_per_client",
       [](PopulationConfig& c) { c.shards_per_client = 3; }},
      {"seed", [](PopulationConfig& c) { c.seed = 12; }},
  };
  Population base;
  ASSERT_TRUE(base.build(small_config()).ok());
  for (const auto& [name, mutate] : key_fields) {
    PopulationConfig cfg = small_config();
    mutate(cfg);
    Population other;
    ASSERT_TRUE(other.build(cfg).ok()) << name;
    EXPECT_NE(&other.test_set(), &base.test_set()) << name;
    EXPECT_NE(other.shards().data(), base.shards().data()) << name;
  }
}

TEST(Population, NonKeyFieldsShareData) {
  const std::vector<Mutation> other_fields = {
      {"model.num_classes",
       [](PopulationConfig& c) { c.model.num_classes = 12; }},
      {"model.l2_lambda",
       [](PopulationConfig& c) { c.model.l2_lambda = 0.1; }},
      {"sgd.learning_rate",
       [](PopulationConfig& c) { c.sgd.learning_rate *= 2.0; }},
      {"net.devices_per_edge",
       [](PopulationConfig& c) { c.net.devices_per_edge = 3; }},
      {"net.seed", [](PopulationConfig& c) { c.net.seed = 99; }},
      {"materialize_world",
       [](PopulationConfig& c) { c.materialize_world = false; }},
      // Replaced by the seed-derived data seed before rendering.
      {"data.seed", [](PopulationConfig& c) { c.data.seed = 5; }},
      // The key holds the effective pool size, which stays at 4.
      {"num_servers under pooling",
       [](PopulationConfig& c) {
         c.num_servers = 8;
         c.data_pool_shards = 4;
       }},
  };
  Population base;
  ASSERT_TRUE(base.build(small_config()).ok());
  for (const auto& [name, mutate] : other_fields) {
    PopulationConfig cfg = small_config();
    mutate(cfg);
    Population other;
    ASSERT_TRUE(other.build(cfg).ok()) << name;
    EXPECT_TRUE(same_data(other, base)) << name;
  }
}

TEST(Population, EnginesWithDifferentFlSettingsShareData) {
  FeiSystemConfig a_cfg = small_system();
  FeiSystemConfig b_cfg = small_system();
  b_cfg.fl.local_epochs = 5;
  b_cfg.fl.clients_per_round = 2;
  b_cfg.fl.threads = 2;
  FeiSystem a(a_cfg);
  FeiSystem b(b_cfg);
  ASSERT_TRUE(a.prepare().ok());
  ASSERT_TRUE(b.prepare().ok());
  EXPECT_EQ(&a.test_set(), &b.test_set());

  EventFleetEngineConfig e_cfg;
  e_cfg.system = small_system();
  e_cfg.system.fl.max_rounds = 7;
  EventFleetEngine engine(e_cfg);
  ASSERT_TRUE(engine.prepare().ok());
  EXPECT_EQ(&engine.population().test_set(), &a.test_set());
}

TEST(Population, TelemetryCountsRendersAndRetainsNothing) {
  EventFleetEngineConfig cfg;
  cfg.system = small_system();
  cfg.system.seed = 4242;  // a recipe no other test renders
  obs::Telemetry tel;
  const obs::TelemetryScope scope(tel);
  {
    EventFleetEngine a(cfg);
    EventFleetEngine b(cfg);
    ASSERT_TRUE(a.prepare().ok());
    ASSERT_TRUE(b.prepare().ok());
    const auto snap = tel.metrics.snapshot();
    EXPECT_EQ(snap.counter_value("sim.population.renders"), 1.0);
    EXPECT_EQ(snap.counter_value("sim.population.shared"), 1.0);
  }
  // Both holders are gone, so the data went with them: the next prepare
  // renders again.
  EventFleetEngine c(cfg);
  ASSERT_TRUE(c.prepare().ok());
  const auto snap = tel.metrics.snapshot();
  EXPECT_EQ(snap.counter_value("sim.population.renders"), 2.0);
  EXPECT_EQ(snap.counter_value("sim.population.shared"), 1.0);
}

TEST(Population, ConcurrentPreparesShareOneBlockAndRunBitwiseEqual) {
  EventFleetEngineConfig cfg;
  cfg.system = small_system();
  cfg.system.seed = 77;
  constexpr std::size_t kEngines = 4;
  std::vector<std::unique_ptr<EventFleetEngine>> engines(kEngines);
  std::vector<Status> prepared(kEngines);
  std::vector<std::unique_ptr<Result<EventFleetRunResult>>> runs(kEngines);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kEngines; ++i) {
    threads.emplace_back([&, i] {
      engines[i] = std::make_unique<EventFleetEngine>(cfg);
      prepared[i] = engines[i]->prepare();
      if (prepared[i].ok()) {
        runs[i] = std::make_unique<Result<EventFleetRunResult>>(
            engines[i]->run());
      }
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t i = 0; i < kEngines; ++i) {
    ASSERT_TRUE(prepared[i].ok()) << prepared[i].error().message;
    EXPECT_TRUE(
        same_data(engines[i]->population(), engines[0]->population()))
        << "engine " << i;
    const auto& r = *runs[i];
    ASSERT_TRUE(r.ok()) << r.error().message;
    const auto& r0 = **runs[0];
    EXPECT_EQ(r->ledger.total().value(), r0.ledger.total().value());
    EXPECT_EQ(r->wall_clock.value(), r0.wall_clock.value());
    EXPECT_EQ(r->training.final_params, r0.training.final_params);
  }
}

TEST(Population, RejectsDataModelShapeMismatchesInEveryEngine) {
  const std::vector<std::pair<std::string,
                              std::function<void(FeiSystemConfig&)>>>
      bad = {
          {"model.input_dim",
           [](FeiSystemConfig& c) { c.model.input_dim = 65; }},
          {"model.input_dim",
           [](FeiSystemConfig& c) { c.model.input_dim = 63; }},
          {"model.num_classes",
           [](FeiSystemConfig& c) { c.model.num_classes = 9; }},
          {"data.image_side",
           [](FeiSystemConfig& c) {
             c.data.image_side = 0;
             c.model.input_dim = 0;
           }},
          {"test_samples", [](FeiSystemConfig& c) { c.test_samples = 0; }},
      };
  for (const auto& [field, mutate] : bad) {
    FeiSystemConfig cfg = small_system();
    mutate(cfg);

    const Status fei = FeiSystem(cfg).prepare();
    ASSERT_FALSE(fei.ok()) << field;
    EXPECT_EQ(fei.error().code, Error::Code::kInvalidArgument) << field;
    EXPECT_NE(fei.error().message.find(field), std::string::npos)
        << fei.error().message;

    EventFleetEngineConfig e_cfg;
    e_cfg.system = cfg;
    const Status event = EventFleetEngine(e_cfg).prepare();
    ASSERT_FALSE(event.ok()) << field;
    EXPECT_EQ(event.error().code, Error::Code::kInvalidArgument) << field;
    EXPECT_NE(event.error().message.find(field), std::string::npos)
        << event.error().message;
  }
}

}  // namespace
}  // namespace eefei::sim
