#include "core/acs.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/grid_search.h"

namespace eefei::core {
namespace {

EnergyObjective make_objective(double a1, double b1, double epsilon = 0.05,
                               std::size_t n = 20) {
  energy::ConvergenceConstants c = energy::paper_reference_constants();
  c.a1 = a1;
  const ConvergenceBound bound(c, epsilon);
  const double b0 = 7.79e-5 * 3000.0 + 3.34e-3;
  return EnergyObjective(bound, b0, b1, n);
}

TEST(Acs, ConvergesOnReferenceProblem) {
  const auto obj = make_objective(0.005, 0.381);
  const AcsSolver solver;
  const auto sol = solver.solve(obj);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->converged);
  EXPECT_LE(sol->iterations, 10u);
  // Paper Fig. 5 conclusion under IID calibration: K* = 1.
  EXPECT_EQ(sol->k_int, 1u);
  EXPECT_GE(sol->e_int, 2u);
}

TEST(Acs, ObjectiveMonotonicallyNonIncreasingAcrossIterations) {
  const auto obj = make_objective(0.1, 1.5);
  AcsConfig cfg;
  cfg.initial_k = 18.0;
  cfg.initial_e = 2.0;
  const AcsSolver solver(cfg);
  const auto sol = solver.solve(obj);
  ASSERT_TRUE(sol.ok());
  for (std::size_t i = 1; i < sol->trace.size(); ++i) {
    EXPECT_LE(sol->trace[i].objective,
              sol->trace[i - 1].objective + 1e-9)
        << "ACS increased the objective at iteration " << i;
  }
}

TEST(Acs, InfeasibleProblemRejected) {
  // ε smaller than A1/N: no K can satisfy the bound.
  const auto obj = make_objective(2.0, 0.381, 0.05);
  // A1/K = 2/20 = 0.1 > 0.05 even at E = 1 → infeasible everywhere.
  const AcsSolver solver;
  const auto sol = solver.solve(obj);
  ASSERT_FALSE(sol.ok());
  EXPECT_EQ(sol.error().code, Error::Code::kInfeasible);
}

TEST(Acs, PaperRuleAlsoConverges) {
  const auto obj = make_objective(0.005, 0.381);
  AcsConfig cfg;
  cfg.e_rule = EStepRule::kPaperEq17;
  const AcsSolver solver(cfg);
  const auto sol = solver.solve(obj);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->converged);
  // The printed Eq. 17 lands at a larger E than the exact minimizer.
  AcsConfig exact_cfg;
  const auto exact = AcsSolver(exact_cfg).solve(obj);
  ASSERT_TRUE(exact.ok());
  EXPECT_GT(sol->e, exact->e);
  // …and therefore at an objective no better than the exact rule's.
  EXPECT_GE(sol->objective, exact->objective - 1e-9);
}

TEST(Acs, IntegerSolutionConsistentWithBound) {
  const auto obj = make_objective(0.02, 1.0);
  const auto sol = AcsSolver().solve(obj);
  ASSERT_TRUE(sol.ok());
  const auto kd = static_cast<double>(sol->k_int);
  const auto ed = static_cast<double>(sol->e_int);
  EXPECT_TRUE(obj.feasible(kd, ed));
  // The reported T actually meets the bound.
  EXPECT_LE(obj.bound().gap_bound(kd, ed, static_cast<double>(sol->t_int)),
            obj.bound().epsilon() + 1e-9);
  EXPECT_NEAR(sol->objective_int,
              obj.value_at_rounds(kd, ed, static_cast<double>(sol->t_int)),
              1e-9);
}

// Property sweep: ACS (continuous solve + integer rounding) must land within
// a whisker of the exhaustive integer optimum across a range of problem
// shapes.  A pure coordinate-descent method can in principle stall at a
// partial optimum; for this biconvex objective it should not.
class AcsVsGrid
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(AcsVsGrid, WithinTolerancesOfExhaustiveOptimum) {
  const auto [a1, b1, epsilon] = GetParam();
  const auto obj = make_objective(a1, b1, epsilon);
  const auto sol = AcsSolver().solve(obj);
  const auto grid = grid_search(obj);
  if (!grid.ok()) {
    EXPECT_FALSE(sol.ok()) << "grid infeasible but ACS succeeded";
    return;
  }
  ASSERT_TRUE(sol.ok()) << "ACS failed on a feasible problem: "
                        << sol.error().message;
  EXPECT_LE(sol->objective_int, grid->best.objective * 1.02 + 1e-9)
      << "ACS integer point more than 2% off the exhaustive optimum "
      << "(grid K=" << grid->best.k << " E=" << grid->best.e << ")";
}

INSTANTIATE_TEST_SUITE_P(
    ProblemShapes, AcsVsGrid,
    ::testing::Combine(
        ::testing::Values(0.001, 0.005, 0.05, 0.15),   // A1 (variance)
        ::testing::Values(0.05, 0.381, 2.0, 10.0),     // B1 (comm cost)
        ::testing::Values(0.03, 0.05, 0.1)));          // epsilon

TEST(Acs, TraceRecordsIterates) {
  const auto obj = make_objective(0.005, 0.381);
  const auto sol = AcsSolver().solve(obj);
  ASSERT_TRUE(sol.ok());
  ASSERT_GE(sol->trace.size(), 2u);
  EXPECT_EQ(sol->trace.front().iteration, 0u);
  EXPECT_DOUBLE_EQ(sol->trace.back().objective, sol->objective);
}

TEST(Acs, RespectsResidual) {
  const auto obj = make_objective(0.005, 0.381);
  AcsConfig loose;
  loose.residual = 1e6;  // absurdly loose: one iteration is enough
  const auto sol = AcsSolver(loose).solve(obj);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->converged);
  EXPECT_EQ(sol->iterations, 1u);
}

// The headline result as a test: the default calibration must keep
// producing the paper's K*=1 / ~49.8% savings even as the library evolves.
TEST(HeadlineResult, PaperSavingsAreStable) {
  const ConvergenceBound bound(energy::paper_reference_constants(), 0.05);
  const EnergyObjective obj(bound, 7.79e-5 * 3000.0 + 3.34e-3, 0.381, 20);
  const auto sol = AcsSolver().solve(obj);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->k_int, 1u);
  const auto t_naive = bound.optimal_rounds_int(1.0, 1.0);
  ASSERT_TRUE(t_naive.ok());
  const double naive = obj.value_at_rounds(
      1.0, 1.0, static_cast<double>(t_naive.value()));
  const double savings = 1.0 - sol->objective_int / naive;
  EXPECT_NEAR(savings, 0.498, 0.015) << "paper reports 49.8%";
}

}  // namespace
}  // namespace eefei::core
