// Alternate Convex Search (Algorithm 1 of the paper).
//
// Theorem 1 establishes that Ê(K, E) is strictly biconvex, so alternating
// exact per-coordinate minimization converges to a partial optimum
// (Gorski–Pfeuffer–Klamroth 2007).  Each iteration solves K*(E_i) via
// Eq. 15 and E*(K_i) via the exact coordinate minimizer (or the paper's
// printed Eq. 17 if requested), stopping when the objective changes by
// less than the residual ξ.
#pragma once

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "core/closed_form.h"
#include "core/energy_objective.h"

namespace eefei::core {

enum class EStepRule {
  kExact,       // true root of ∂Ê/∂E = 0 (default)
  kPaperEq17,   // the formula as printed in the paper
};

struct AcsConfig {
  double residual = 1e-6;       // ξ in Algorithm 1
  std::size_t max_iterations = 100;
  double initial_k = 10.0;      // (K0, E0)
  double initial_e = 10.0;
  EStepRule e_rule = EStepRule::kExact;
  /// Round the continuous solution to the best feasible integer lattice
  /// point at the end (K, E, T are integers in the real system).
  bool integerize = true;
};

struct AcsIterate {
  std::size_t iteration = 0;
  double k = 0.0;
  double e = 0.0;
  double objective = 0.0;
};

struct AcsSolution {
  double k = 1.0;                 // continuous solution
  double e = 1.0;
  double objective = 0.0;         // Ê at the continuous solution
  std::size_t k_int = 1;          // integerized solution
  std::size_t e_int = 1;
  std::size_t t_int = 1;          // T*(k_int, e_int), rounded up
  double objective_int = 0.0;     // T*·K·(B0E+B1) at the integer point
  std::size_t iterations = 0;
  bool converged = false;
  std::vector<AcsIterate> trace;  // per-iteration history
};

class AcsSolver {
 public:
  explicit AcsSolver(AcsConfig config = {}) : config_(config) {}

  /// Runs Algorithm 1 on `objective` from (initial_k, initial_e).  Fails
  /// if the feasible domain is empty (ε unreachable for every (K, E)).
  [[nodiscard]] Result<AcsSolution> solve(
      const EnergyObjective& objective) const;

  [[nodiscard]] const AcsConfig& config() const { return config_; }

 private:
  AcsConfig config_;
};

}  // namespace eefei::core
