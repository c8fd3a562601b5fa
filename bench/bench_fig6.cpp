// Reproduces the paper's Fig. 6: total energy to train to the target
// accuracy as a function of E (local epochs) at K = K* = 1 — theoretical
// bound vs simulated measurement traces, the optimal E* from each, and the
// paper's headline number: the energy reduction achieved by EE-FEI's
// optimized (K*, E*) versus the naive (K=1, E=1) operating point
// (the paper reports 49.8% on the prototype).
#include <cstdio>
#include <fstream>
#include <limits>
#include <vector>

#include "bench_json.h"
#include "bench_common.h"
#include "common/table.h"
#include "core/planner.h"

using namespace eefei;

int main(int argc, char** argv) {
  const bench::TotalTimeReport bench_report("fig6");
  const auto scale = bench::scale_from_args(argc, argv);
  const bench::TraceSession trace("bench_fig6", scale);
  const std::size_t fixed_k = 1;  // the Fig. 5 result under IID data

  std::printf("=== Fig. 6: energy vs E at K=%zu, target accuracy %.2f ===\n\n",
              fixed_k, scale.target_accuracy);

  auto probe_cfg = bench::system_config(scale);
  sim::FeiSystem probe(probe_cfg);
  const auto model = probe.energy_model();
  const core::ConvergenceBound bound(energy::paper_reference_constants(),
                                     0.05);
  const auto objective =
      core::EnergyObjective::from_model(bound, model, scale.num_servers);

  AsciiTable table({"E", "theory_T", "theory_J", "sim_T", "sim_modeled_J",
                    "sim_total_J", "sim_acc"});
  std::ofstream csv("fig6_energy_vs_e.csv");
  csv << "e,theory_j,sim_modeled_j,sim_total_j,sim_rounds\n";

  double sim_e1_energy = 0.0;
  double sim_best_energy = std::numeric_limits<double>::infinity();
  std::size_t sim_best_e = 0;

  const std::vector<std::size_t> es{1, 2, 5, 10, 20, 40, 60, 100, 200, 400};
  for (const std::size_t e : es) {
    std::string theory_t = "-", theory_j = "-";
    double theory_val = 0.0;
    const auto t = bound.optimal_rounds_int(static_cast<double>(fixed_k),
                                            static_cast<double>(e));
    if (t.ok()) {
      theory_val = objective.value_at_rounds(
          static_cast<double>(fixed_k), static_cast<double>(e),
          static_cast<double>(t.value()));
      theory_t = std::to_string(t.value());
      theory_j = format_double(theory_val, 5);
    }

    // Cap scales inversely with E so every point gets a fair budget.
    const std::size_t cap = std::max<std::size_t>(20, 1500 / e + 10);
    const auto run = bench::run_to_target(scale, fixed_k, e, cap);
    std::string sim_t = "-", sim_mod = "-", sim_tot = "-", sim_acc = "-";
    double sim_modeled = 0.0, sim_total = 0.0;
    std::size_t sim_rounds = 0;
    if (run.has_value() && run->reached) {
      sim_rounds = run->rounds;
      sim_modeled = run->modeled_energy_j;
      sim_total = run->total_energy_j;
      sim_t = std::to_string(run->rounds);
      sim_mod = format_double(sim_modeled, 5);
      sim_tot = format_double(sim_total, 5);
      sim_acc = format_double(run->final_accuracy, 4);
      if (e == 1) sim_e1_energy = sim_modeled;
      if (sim_modeled < sim_best_energy) {
        sim_best_energy = sim_modeled;
        sim_best_e = e;
      }
    }
    table.add_row({std::to_string(e), theory_t, theory_j, sim_t, sim_mod,
                   sim_tot, sim_acc});
    csv << e << ',' << theory_val << ',' << sim_modeled << ',' << sim_total
        << ',' << sim_rounds << '\n';
  }
  std::printf("%s\n", table.render().c_str());

  // Theory E* (red asterisk) and the trace E* (black asterisk).
  core::PlannerInputs inputs;
  inputs.num_servers = scale.num_servers;
  inputs.samples_per_server = scale.samples_per_server;
  inputs.energy = model;
  const auto plan = core::EeFeiPlanner(inputs).plan();
  if (plan.ok()) {
    std::printf("theory optimum (n_k=%zu): K*=%zu E*=%zu T*=%zu, "
                "predicted %.4g J\n", scale.samples_per_server, plan->k,
                plan->e, plan->t, plan->predicted_energy_j);
    for (const auto& c : plan->comparisons) {
      if (c.feasible && c.baseline.e == 1 && c.baseline.k == 1) {
        std::printf("theory savings vs K=1,E=1 (n_k=%zu): %.1f%%\n",
                    scale.samples_per_server, 100.0 * c.savings);
      }
    }
  }
  if (sim_e1_energy > 0.0 && sim_best_e > 0) {
    std::printf("measured-trace optimum: E*=%zu at %.4g J; savings vs E=1: "
                "%.1f%%\n", sim_best_e, sim_best_energy,
                100.0 * (1.0 - sim_best_energy / sim_e1_energy));
  }

  // The paper-scale headline: n_k = 3000 prototype coefficients.
  core::PlannerInputs proto;  // defaults == prototype calibration
  const auto headline = core::EeFeiPlanner(proto).plan();
  if (headline.ok() && !headline->comparisons.empty()) {
    std::printf("\npaper-scale headline (n_k=3000, prototype coefficients): "
                "K*=%zu E*=%zu, savings vs K=1,E=1 = %.1f%% "
                "(paper reports 49.8%%)\n", headline->k, headline->e,
                100.0 * headline->comparisons.front().savings);
  }
  std::printf("wrote fig6_energy_vs_e.csv\n");
  return 0;
}
