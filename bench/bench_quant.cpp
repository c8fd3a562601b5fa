// Extension ablation: quantized model uploads.
//
// Quantizing the uploaded parameters shrinks the per-round upload blob —
// i.e. the B1 term of Eq. 12 — at the cost of quantization error injected
// into every FedAvg step.  This bench sweeps the bit width, trains the
// simulated system to the accuracy target at each setting and reports the
// energy trade-off, alongside the theory-side effect of the smaller B1 on
// (K*, E*).
#include <cstdio>
#include <vector>

#include "bench_json.h"
#include "bench_common.h"
#include "common/table.h"
#include "core/planner.h"
#include "ml/quantize.h"
#include "ml/serialize.h"

using namespace eefei;

int main(int argc, char** argv) {
  const bench::TotalTimeReport bench_report("quant");
  auto scale = bench::scale_from_args(argc, argv);
  const bench::TraceSession trace("bench_quant", scale);

  std::printf("=== Upload quantization ablation (K=1, E=20, target %.2f) "
              "===\n\n", scale.target_accuracy);

  const std::size_t params = 784 * 10 + 10;
  AsciiTable table({"bits", "blob_kB", "T@target", "modeled_J", "upload_J",
                    "final_acc"});
  for (const unsigned bits : {32u, 16u, 8u, 4u}) {
    auto cfg = bench::system_config(scale);
    cfg.fl.clients_per_round = 1;
    cfg.fl.local_epochs = 20;
    cfg.fl.max_rounds = 400;
    cfg.fl.eval_every = 2;
    cfg.fl.target_accuracy = scale.target_accuracy;
    cfg.upload_quant_bits = (bits == 32) ? 0 : bits;
    sim::FeiSystem system(cfg);
    const auto r = system.run();
    const double blob_kb =
        (bits == 32 ? static_cast<double>(ml::wire_size(params))
                    : static_cast<double>(ml::quantized_wire_size(params,
                                                                  bits))) /
        1000.0;
    if (!r.ok() || !r->training.reached_target) {
      table.add_row({std::to_string(bits), format_double(blob_kb, 4),
                     "> cap", "-", "-",
                     r.ok() ? format_double(
                                  r->training.record.best_accuracy(), 4)
                            : "failed"});
      continue;
    }
    table.add_row(
        {std::to_string(bits), format_double(blob_kb, 4),
         std::to_string(r->training.rounds_run),
         format_double(r->ledger.modeled_total().value(), 5),
         format_double(
             r->ledger.category_total(energy::EnergyCategory::kUpload)
                 .value(),
             5),
         format_double(r->training.record.last().test_accuracy, 4)});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("=== theory: how a smaller B1 moves the optimum ===\n\n");
  AsciiTable plan_table({"bits", "B1_J", "K*", "E*", "T*", "plan_J"});
  for (const unsigned bits : {32u, 16u, 8u, 4u}) {
    core::PlannerInputs inputs;  // prototype scale
    const double blob =
        static_cast<double>(bits == 32 ? ml::wire_size(7850)
                                       : ml::quantized_wire_size(7850, bits)) +
        24.0;
    inputs.energy.upload = energy::UploadModel::from_link(
        Bytes{blob}, BitsPerSecond::from_mbps(3.4),
        Seconds::from_millis(2.0), Watts{5.015});
    const auto plan = core::EeFeiPlanner(inputs).plan();
    if (!plan.ok()) continue;
    plan_table.add_row({std::to_string(bits),
                        format_double(inputs.energy.upload.e_upload.value(),
                                      4),
                        std::to_string(plan->k), std::to_string(plan->e),
                        std::to_string(plan->t),
                        format_double(plan->predicted_energy_j, 5)});
  }
  std::printf("%s\n", plan_table.render().c_str());
  std::printf("reading: cheaper uploads shrink B1, which pulls the optimal "
              "E* down (less need to amortize round costs) and cuts total "
              "energy; very coarse (4-bit) quantization starts costing "
              "extra rounds instead.\n");
  return 0;
}
