// Ablation supporting the paper's §VI-C discussion: the K* = 1 conclusion
// is an artifact of the IID data allocation.  Non-IID allocations raise the
// gradient-variance constant A1 = α1·γ·σ², which moves the optimal K*
// inward (more servers per round become worth their energy).
//
// Two parts:
//   1. measured: label skew and convergence of the simulated system under
//      IID / Dirichlet / pathological shard partitions;
//   2. theory: K*(A1) from Eq. 15 as σ² grows, with the full ACS plan.
#include <cstdio>
#include <vector>

#include "bench_json.h"
#include "bench_common.h"
#include "common/table.h"
#include "core/planner.h"
#include "data/partition.h"

using namespace eefei;

int main(int argc, char** argv) {
  const bench::TotalTimeReport bench_report("noniid");
  auto scale = bench::scale_from_args(argc, argv);
  scale.target_accuracy = 0.88;  // non-IID runs need a reachable target
  const bench::TraceSession trace("bench_noniid", scale);

  std::printf("=== Non-IID ablation (paper SVI-C: K*=1 stems from IID "
              "data) ===\n\n");

  std::printf("--- measured: convergence under different partitions "
              "(K=5, E=20) ---\n");
  struct Variant {
    const char* name;
    sim::PartitionScheme scheme;
    double alpha;
  };
  const std::vector<Variant> variants{
      {"iid", sim::PartitionScheme::kIid, 0.0},
      {"dirichlet a=1.0", sim::PartitionScheme::kDirichlet, 1.0},
      {"dirichlet a=0.3", sim::PartitionScheme::kDirichlet, 0.3},
      {"shards (2/client)", sim::PartitionScheme::kShards, 0.0},
  };

  AsciiTable table({"partition", "label_skew", "T@target", "final_acc",
                    "modeled_J"});
  for (const auto& v : variants) {
    auto cfg = bench::system_config(scale);
    cfg.partition = v.scheme;
    cfg.dirichlet_alpha = v.alpha;
    cfg.shards_per_client = 2;
    cfg.fl.clients_per_round = 5;
    cfg.fl.local_epochs = 20;
    cfg.fl.max_rounds = 150;
    cfg.fl.eval_every = 2;
    cfg.fl.target_accuracy = scale.target_accuracy;
    sim::FeiSystem system(cfg);
    const auto r = system.run();
    if (!r.ok()) {
      table.add_row({v.name, "-", "failed", "-", "-"});
      continue;
    }
    // Recompute the partition's skew for the report.
    data::SynthDigitsConfig dcfg = cfg.data;
    dcfg.seed = cfg.seed * 1000003 + 17;
    data::SynthDigits gen(dcfg);
    auto train = gen.generate(cfg.num_servers * cfg.samples_per_server);
    Rng prng(cfg.seed * 7919 + 3);
    auto shards = [&]() -> Result<std::vector<data::Shard>> {
      switch (v.scheme) {
        case sim::PartitionScheme::kIid:
          return data::partition_iid(train, cfg.num_servers, prng);
        case sim::PartitionScheme::kDirichlet:
          return data::partition_dirichlet(train, cfg.num_servers, v.alpha,
                                           prng);
        case sim::PartitionScheme::kShards:
          return data::partition_shards(train, cfg.num_servers, 2, prng);
      }
      return data::partition_iid(train, cfg.num_servers, prng);
    }();
    const double skew =
        shards.ok() ? data::label_skew(shards.value(), 10) : -1.0;

    const auto t = r->training.record.rounds_to_accuracy(
        scale.target_accuracy);
    table.add_row({v.name, format_double(skew, 3),
                   t.has_value() ? std::to_string(*t) : std::string("> cap"),
                   format_double(r->training.record.best_accuracy(), 4),
                   format_double(r->ledger.modeled_total().value(), 5)});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("--- theory: K* as the gradient-variance constant A1 grows "
              "---\n");
  AsciiTable ktab({"A1 (a1*g*s^2)", "K*", "E*", "T*", "plan_J",
                   "savings_vs_K1E1_%"});
  for (const double a1 : {0.005, 0.02, 0.05, 0.1, 0.2, 0.4}) {
    core::PlannerInputs inputs;  // prototype-scale energy coefficients
    inputs.constants.a1 = a1;
    const auto plan = core::EeFeiPlanner(inputs).plan();
    if (!plan.ok()) {
      ktab.add_row({format_double(a1, 3), "infeasible", "-", "-", "-", "-"});
      continue;
    }
    std::string savings = "-";
    for (const auto& c : plan->comparisons) {
      if (c.feasible && c.baseline.k == 1 && c.baseline.e == 1) {
        savings = format_double(100.0 * c.savings, 4);
      }
    }
    ktab.add_row({format_double(a1, 3), std::to_string(plan->k),
                  std::to_string(plan->e), std::to_string(plan->t),
                  format_double(plan->predicted_energy_j, 5), savings});
  }
  std::printf("%s\n", ktab.render().c_str());
  std::printf("reading: IID (A1 small) gives the paper's K*=1; as variance "
              "grows, more servers per round pay for themselves.\n");
  return 0;
}
