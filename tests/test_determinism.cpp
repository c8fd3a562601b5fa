// Bit-identical parallelism: a run with a thread pool must produce exactly
// the same TrainingOutcome as a serial run — clients train into indexed
// slots, the test-set evaluation reduces fixed-size chunks in order, and
// the sweep engines score lattice points into slots reduced serially.
#include <gtest/gtest.h>

#include <cstring>

#include "core/grid_search.h"
#include "core/planner.h"
#include "core/sensitivity.h"
#include "sim/fei_system.h"

namespace eefei {
namespace {

// 200 samples per server puts an iid model (200·144·10 per epoch) above
// ModelBank's split cutoff, so K mod W leftover models train as a team.
sim::FeiSystemConfig small_config(sim::PartitionScheme scheme,
                                  std::size_t threads, std::size_t k) {
  sim::FeiSystemConfig cfg;
  cfg.num_servers = 6;
  cfg.samples_per_server = 200;
  cfg.test_samples = 200;
  cfg.data.image_side = 12;
  cfg.model.input_dim = 144;
  cfg.model.num_classes = 10;
  cfg.sgd.learning_rate = 0.05;
  cfg.fl.clients_per_round = k;
  cfg.fl.local_epochs = 5;
  cfg.fl.max_rounds = 3;
  cfg.fl.threads = threads;
  cfg.partition = scheme;
  cfg.seed = 17;
  return cfg;
}

void expect_identical_outcomes(sim::PartitionScheme scheme, std::size_t k,
                               std::size_t threads) {
  SCOPED_TRACE(testing::Message() << "K=" << k << " threads=" << threads);
  sim::FeiSystem serial(small_config(scheme, 0, k));
  sim::FeiSystem parallel(small_config(scheme, threads, k));
  const auto a = serial.run();
  const auto b = parallel.run();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  const auto& ta = a->training;
  const auto& tb = b->training;
  ASSERT_EQ(ta.final_params.size(), tb.final_params.size());
  EXPECT_EQ(0, std::memcmp(ta.final_params.data(), tb.final_params.data(),
                           ta.final_params.size() * sizeof(double)));
  EXPECT_EQ(ta.rounds_run, tb.rounds_run);
  EXPECT_EQ(ta.total_local_epochs, tb.total_local_epochs);
  ASSERT_EQ(ta.record.rounds(), tb.record.rounds());
  for (std::size_t t = 0; t < ta.record.rounds(); ++t) {
    const auto& ra = ta.record.round(t);
    const auto& rb = tb.record.round(t);
    EXPECT_EQ(ra.global_loss, rb.global_loss) << "round " << t;
    EXPECT_EQ(ra.test_accuracy, rb.test_accuracy) << "round " << t;
    EXPECT_EQ(ra.mean_local_loss, rb.mean_local_loss) << "round " << t;
    EXPECT_EQ(ra.selected, rb.selected) << "round " << t;
  }
}

// K = 3 and K = 1 against 2, 4 and 8 workers: whole-model chunks, split
// leftover models, and K < W where every model is split.
void expect_identical_at_any_thread_count(sim::PartitionScheme scheme) {
  for (const std::size_t k : {3, 1}) {
    for (const std::size_t threads : {2, 4, 8}) {
      expect_identical_outcomes(scheme, k, threads);
    }
  }
}

TEST(Determinism, ParallelTrainingIsBitIdenticalIid) {
  expect_identical_at_any_thread_count(sim::PartitionScheme::kIid);
}

TEST(Determinism, ParallelTrainingIsBitIdenticalShards) {
  expect_identical_at_any_thread_count(sim::PartitionScheme::kShards);
}

TEST(Determinism, ParallelTrainingIsBitIdenticalDirichlet) {
  expect_identical_at_any_thread_count(sim::PartitionScheme::kDirichlet);
}

TEST(Determinism, GridSearchParallelMatchesSerial) {
  const core::EeFeiPlanner planner(core::PlannerInputs{});
  const auto objective = planner.objective();
  core::GridSearchConfig serial_cfg;
  serial_cfg.threads = 1;
  core::GridSearchConfig parallel_cfg;
  parallel_cfg.threads = 0;
  const auto a = core::grid_search(objective, serial_cfg);
  const auto b = core::grid_search(objective, parallel_cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->best.k, b->best.k);
  EXPECT_EQ(a->best.e, b->best.e);
  EXPECT_EQ(a->best.t, b->best.t);
  EXPECT_EQ(a->best.objective, b->best.objective);  // bitwise
  EXPECT_EQ(a->evaluated, b->evaluated);
  EXPECT_EQ(a->infeasible, b->infeasible);
}

TEST(Determinism, SweepParallelMatchesSerial) {
  const core::EeFeiPlanner planner(core::PlannerInputs{});
  const auto objective = planner.objective();
  const std::vector<std::size_t> ks{1, 2, 5, 10, 20};
  const std::vector<std::size_t> es{1, 10, 40, 80};
  const auto a = core::sweep(objective, ks, es, true, 1);
  const auto b = core::sweep(objective, ks, es, true, 0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].k, b[i].k);
    EXPECT_EQ(a[i].e, b[i].e);
    EXPECT_EQ(a[i].t, b[i].t);
    EXPECT_EQ(a[i].objective, b[i].objective);  // bitwise
  }
}

TEST(Determinism, SensitivityParallelMatchesSerial) {
  const auto a = core::analyze_sensitivity(core::PlannerInputs{}, 0.2, 1);
  const auto b = core::analyze_sensitivity(core::PlannerInputs{}, 0.2, 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->entries.size(), b->entries.size());
  for (std::size_t i = 0; i < a->entries.size(); ++i) {
    const auto& ea = a->entries[i];
    const auto& eb = b->entries[i];
    EXPECT_EQ(ea.parameter, eb.parameter);
    EXPECT_EQ(ea.perturbation, eb.perturbation);
    EXPECT_EQ(ea.k_star, eb.k_star);
    EXPECT_EQ(ea.e_star, eb.e_star);
    EXPECT_EQ(ea.t_star, eb.t_star);
    EXPECT_EQ(ea.energy_j, eb.energy_j);  // bitwise
    EXPECT_EQ(ea.regret, eb.regret);      // bitwise
    EXPECT_EQ(ea.feasible, eb.feasible);
  }
}

}  // namespace
}  // namespace eefei
