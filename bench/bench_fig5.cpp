// Reproduces the paper's Fig. 5: total energy to train to the target
// accuracy as a function of K (servers per round), theoretical bound
// (Eq. 12, solid line in the paper) against simulated measurement traces
// (dashed line), with the optimal K* from each marked.
//
// The paper's conclusion under IID data: K* = 1 — selecting one server per
// round is the most energy-efficient, because IID gradients make extra
// servers redundant while each one bills compute + upload energy.
#include <cstdio>
#include <fstream>
#include <vector>

#include "bench_json.h"
#include "bench_common.h"
#include "common/table.h"
#include "core/acs.h"
#include "core/grid_search.h"

using namespace eefei;

int main(int argc, char** argv) {
  const bench::TotalTimeReport bench_report("fig5");
  const auto scale = bench::scale_from_args(argc, argv);
  const bench::TraceSession trace("bench_fig5", scale);
  const std::size_t fixed_e = 40;

  std::printf("=== Fig. 5: energy vs K at fixed E=%zu, target accuracy %.2f "
              "===\n\n", fixed_e, scale.target_accuracy);

  // Theory objective at the bench scale (B0/B1 from the bench system).
  auto probe_cfg = bench::system_config(scale);
  sim::FeiSystem probe(probe_cfg);
  const auto model = probe.energy_model();
  const core::ConvergenceBound bound(energy::paper_reference_constants(),
                                     0.05);
  const auto objective =
      core::EnergyObjective::from_model(bound, model, scale.num_servers);

  AsciiTable table({"K", "theory_T", "theory_J", "sim_T", "sim_modeled_J",
                    "sim_total_J", "sim_acc"});
  std::ofstream csv("fig5_energy_vs_k.csv");
  csv << "k,theory_j,sim_modeled_j,sim_total_j,sim_rounds\n";

  std::vector<std::size_t> ks{1, 2, 5, 10, 15, 20};
  for (const std::size_t k : ks) {
    std::string theory_t = "-", theory_j = "-";
    const auto t = bound.optimal_rounds_int(static_cast<double>(k),
                                            static_cast<double>(fixed_e));
    double theory_val = 0.0;
    if (t.ok()) {
      theory_val = objective.value_at_rounds(
          static_cast<double>(k), static_cast<double>(fixed_e),
          static_cast<double>(t.value()));
      theory_t = std::to_string(t.value());
      theory_j = format_double(theory_val, 5);
    }

    const auto run = bench::run_to_target(scale, k, fixed_e, 250);
    std::string sim_t = "-", sim_mod = "-", sim_tot = "-", sim_acc = "-";
    double sim_modeled = 0.0, sim_total = 0.0;
    std::size_t sim_rounds = 0;
    if (run.has_value() && run->reached) {
      sim_rounds = run->rounds;
      sim_modeled = run->modeled_energy_j;
      sim_total = run->total_energy_j;
      sim_t = std::to_string(run->rounds);
      sim_mod = format_double(run->modeled_energy_j, 5);
      sim_tot = format_double(run->total_energy_j, 5);
      sim_acc = format_double(run->final_accuracy, 4);
    }
    table.add_row({std::to_string(k), theory_t, theory_j, sim_t, sim_mod,
                   sim_tot, sim_acc});
    csv << k << ',' << theory_val << ',' << sim_modeled << ',' << sim_total
        << ',' << sim_rounds << '\n';
  }
  std::printf("%s\n", table.render().c_str());

  // Optimal K* from the bound (red asterisk in the paper's Fig. 5).
  core::AcsConfig acs_cfg;
  const auto sol = core::AcsSolver(acs_cfg).solve(objective);
  if (sol.ok()) {
    std::printf("theory K* (ACS, exact E-rule): K*=%zu, E*=%zu, T*=%zu\n",
                sol->k_int, sol->e_int, sol->t_int);
  }
  std::printf("paper's Fig. 5 conclusion: K* = 1 under the IID allocation — "
              "the energy curve must be increasing in K.\n");
  std::printf("wrote fig5_energy_vs_k.csv\n");
  return 0;
}
