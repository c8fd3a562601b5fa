// Solver-quality bench (Algorithm 1): ACS against the exhaustive integer
// grid search across a family of problem shapes, plus the E-step ablation
// (exact coordinate minimizer vs the paper's printed Eq. 17).
//
// Reported per problem: ACS iterations, the (K*, E*, T*) solutions, the
// objective gap to the exhaustive optimum, and wall-clock per solve.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/table.h"
#include "core/acs.h"
#include "core/grid_search.h"

using namespace eefei;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// "(k,e,t)".  Formatted, not concatenated: GCC 12 raises a false
// -Wrestrict on `"literal" + std::string&&`.
std::string triple(std::size_t k, std::size_t e, std::size_t t) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "(%zu,%zu,%zu)", k, e, t);
  return buf;
}

}  // namespace

int main() {
  const bench::TotalTimeReport bench_report("acs");
  std::printf("=== Algorithm 1 (ACS) vs exhaustive grid search ===\n\n");

  struct Shape {
    const char* name;
    double a1;
    double b1;
    double epsilon;
  };
  const std::vector<Shape> shapes{
      {"paper defaults (IID)", 0.005, 0.381, 0.05},
      {"non-IID variance", 0.15, 0.381, 0.05},
      {"expensive comms", 0.005, 5.0, 0.05},
      {"cheap comms", 0.005, 0.02, 0.05},
      {"tight accuracy", 0.005, 0.381, 0.02},
      {"loose accuracy", 0.02, 0.381, 0.12},
      {"IoT collection on", 0.005, 0.381 + 6.076 * 3000.0 / 1000.0, 0.05},
  };

  AsciiTable table({"problem", "acs_iters", "acs (K,E,T)", "acs_J",
                    "grid (K,E,T)", "grid_J", "gap_%", "acs_ms", "grid_ms"});
  for (const auto& s : shapes) {
    energy::ConvergenceConstants c = energy::paper_reference_constants();
    c.a1 = s.a1;
    const core::ConvergenceBound bound(c, s.epsilon);
    const double b0 = 7.79e-5 * 3000.0 + 3.34e-3;
    const core::EnergyObjective obj(bound, b0, s.b1, 20);

    auto t0 = Clock::now();
    const auto acs = core::AcsSolver().solve(obj);
    const double acs_ms = ms_since(t0);
    t0 = Clock::now();
    const auto grid = core::grid_search(obj);
    const double grid_ms = ms_since(t0);

    if (!acs.ok() || !grid.ok()) {
      table.add_row({s.name, "-", acs.ok() ? "ok" : "infeasible", "-",
                     grid.ok() ? "ok" : "infeasible", "-", "-", "-", "-"});
      continue;
    }
    const double gap =
        100.0 * (acs->objective_int - grid->best.objective) /
        grid->best.objective;
    table.add_row(
        {s.name, std::to_string(acs->iterations),
         triple(acs->k_int, acs->e_int, acs->t_int),
         format_double(acs->objective_int, 5),
         triple(grid->best.k, grid->best.e, grid->best.t),
         format_double(grid->best.objective, 5), format_double(gap, 3),
         format_double(acs_ms, 3), format_double(grid_ms, 3)});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("=== E-step ablation: exact coordinate minimizer vs the "
              "printed Eq. 17 ===\n\n");
  AsciiTable ab({"problem", "exact (K,E)", "exact_J", "eq17 (K,E)", "eq17_J",
                 "eq17_penalty_%"});
  for (const auto& s : shapes) {
    energy::ConvergenceConstants c = energy::paper_reference_constants();
    c.a1 = s.a1;
    const core::ConvergenceBound bound(c, s.epsilon);
    const double b0 = 7.79e-5 * 3000.0 + 3.34e-3;
    const core::EnergyObjective obj(bound, b0, s.b1, 20);
    core::AcsConfig exact_cfg;
    core::AcsConfig paper_cfg;
    paper_cfg.e_rule = core::EStepRule::kPaperEq17;
    const auto exact = core::AcsSolver(exact_cfg).solve(obj);
    const auto paper = core::AcsSolver(paper_cfg).solve(obj);
    if (!exact.ok() || !paper.ok()) continue;
    ab.add_row({s.name,
                "(" + std::to_string(exact->k_int) + "," +
                    std::to_string(exact->e_int) + ")",
                format_double(exact->objective_int, 5),
                "(" + std::to_string(paper->k_int) + "," +
                    std::to_string(paper->e_int) + ")",
                format_double(paper->objective_int, 5),
                format_double(100.0 * (paper->objective_int -
                                       exact->objective_int) /
                                  exact->objective_int,
                              3)});
  }
  std::printf("%s\n", ab.render().c_str());
  std::printf("Eq. 17 as printed drops the A2*K*B0*E^2 term of dE/dE=0; the "
              "penalty column quantifies the cost of that simplification.\n");
  return 0;
}
