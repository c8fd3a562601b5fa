#include "core/acs.h"

#include <algorithm>
#include <cmath>

namespace eefei::core {

Result<AcsSolution> AcsSolver::solve(const EnergyObjective& objective) const {
  const auto& bound = objective.bound();

  // Start from a feasible point: project the configured initial point onto
  // the feasible domain.
  double k =
      std::clamp(config_.initial_k, 1.0, static_cast<double>(objective.n()));
  {
    const auto k_min = bound.min_feasible_servers(1.0);
    if (!k_min.has_value() ||
        *k_min > static_cast<double>(objective.n())) {
      return Error::infeasible(
          "ACS: accuracy target unreachable for any (K, E) with K <= N");
    }
    k = std::max(k, *k_min * (1.0 + 1e-9));
    k = std::min(k, static_cast<double>(objective.n()));
  }
  double e = std::max(1.0, config_.initial_e);
  {
    const auto e_max = bound.max_feasible_epochs(k);
    if (!e_max.has_value()) {
      return Error::infeasible("ACS: initial K admits no feasible E");
    }
    e = std::min(e, *e_max * (1.0 - 1e-9));
    e = std::max(e, 1.0);
  }

  AcsSolution sol;
  auto current = objective.value(k, e);
  if (!current.ok()) return current.error();
  double obj = current.value();
  sol.trace.push_back({0, k, e, obj});

  for (std::size_t i = 1; i <= config_.max_iterations; ++i) {
    // Step 1: K ← argmin_K Ê(K, E).
    const auto k_next = k_star(objective, e);
    if (!k_next.ok()) return k_next.error();
    k = k_next.value();

    // Step 2: E ← argmin_E Ê(K, E).
    const auto e_next = (config_.e_rule == EStepRule::kExact)
                            ? e_star_exact(objective, k)
                            : e_star_paper(objective, k);
    if (!e_next.ok()) return e_next.error();
    e = e_next.value();

    const auto next = objective.value(k, e);
    if (!next.ok()) return next.error();
    const double new_obj = next.value();
    sol.trace.push_back({i, k, e, new_obj});
    sol.iterations = i;
    if (std::abs(obj - new_obj) <= config_.residual) {
      obj = new_obj;
      sol.converged = true;
      break;
    }
    obj = new_obj;
  }

  sol.k = k;
  sol.e = e;
  sol.objective = obj;

  if (config_.integerize) {
    const auto ki = best_integer_k(objective, k, e);
    if (!ki.ok()) return ki.error();
    const auto k_int_d = static_cast<double>(ki.value());
    const auto ei = best_integer_e(objective, k_int_d, e);
    if (!ei.ok()) return ei.error();
    sol.k_int = ki.value();
    sol.e_int = ei.value();
    const auto t = bound.optimal_rounds_int(k_int_d,
                                            static_cast<double>(ei.value()));
    if (!t.ok()) return t.error();
    sol.t_int = t.value();
    sol.objective_int = objective.value_at_rounds(
        k_int_d, static_cast<double>(sol.e_int),
        static_cast<double>(sol.t_int));
  } else {
    sol.k_int = static_cast<std::size_t>(std::lround(std::max(1.0, k)));
    sol.e_int = static_cast<std::size_t>(std::lround(std::max(1.0, e)));
    const auto t = bound.optimal_rounds_int(k, e);
    sol.t_int = t.ok() ? t.value() : 1;
    sol.objective_int = obj;
  }
  return sol;
}

}  // namespace eefei::core
