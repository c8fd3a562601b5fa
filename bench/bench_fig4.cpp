// Reproduces the paper's Fig. 4: training performance of multinomial
// logistic regression under different (K, E) combinations.
//
//   (a)/(b): fixed E = 40, K ∈ {1, 5, 10, 20} — global loss and test
//            accuracy vs the number of global coordination rounds T.
//   (c)/(d): fixed K = 10, E ∈ {1, 20, 40, 100} — ditto.
//
// Also prints the paper's derived reading: T (and total local gradient
// rounds E·T) required to reach the target accuracy, the numbers behind
// the paper's "E=20 → T=280, E=40 → T=90, E=100 → T=60" discussion.
// Curves are exported to fig4_curves.csv.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#include "bench_json.h"
#include "bench_common.h"
#include "common/table.h"

using namespace eefei;

namespace {

struct Curve {
  std::string label;
  std::size_t k;
  std::size_t e;
  fl::TrainingRecord record;
  bool reached = false;
  std::size_t rounds_to_target = 0;
};

Curve run_curve(const bench::BenchScale& scale, std::size_t k, std::size_t e,
                std::size_t max_rounds) {
  auto cfg = bench::system_config(scale);
  cfg.fl.clients_per_round = k;
  cfg.fl.local_epochs = e;
  cfg.fl.max_rounds = max_rounds;
  cfg.fl.eval_every = 1;
  // No early stopping: Fig. 4 shows the full curves; T-at-target is read
  // off the records afterwards.
  sim::FeiSystem system(cfg);
  auto r = system.run();
  Curve c;
  c.label = "K=" + std::to_string(k) + ",E=" + std::to_string(e);
  c.k = k;
  c.e = e;
  if (r.ok()) {
    c.record = std::move(r->training.record);
    c.reached = r->training.reached_target;
    c.rounds_to_target = r->training.rounds_run;
  }
  return c;
}

void print_curves(const char* title, const std::vector<Curve>& curves,
                  const std::vector<std::size_t>& checkpoints) {
  std::printf("%s\n", title);
  std::vector<std::string> header{"round"};
  for (const auto& c : curves) header.push_back(c.label + " loss");
  for (const auto& c : curves) header.push_back(c.label + " acc");
  AsciiTable table(std::move(header));
  for (const std::size_t t : checkpoints) {
    std::vector<std::string> row{std::to_string(t)};
    for (const auto& c : curves) {
      row.push_back(t - 1 < c.record.rounds()
                        ? format_double(c.record.round(t - 1).global_loss, 4)
                        : std::string("-"));
    }
    for (const auto& c : curves) {
      row.push_back(
          t - 1 < c.record.rounds()
              ? format_double(c.record.round(t - 1).test_accuracy, 4)
              : std::string("-"));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
}

void print_targets(const bench::BenchScale& scale,
                   const std::vector<Curve>& curves) {
  AsciiTable table({"config", "T@target", "E*T (local grad rounds)",
                    "best_acc"});
  for (const auto& c : curves) {
    const auto t = c.record.rounds_to_accuracy(scale.target_accuracy);
    table.add_row(
        {c.label,
         t.has_value() ? std::to_string(*t) : std::string("> cap"),
         t.has_value() ? std::to_string(*t * c.e) : std::string("-"),
         format_double(c.record.best_accuracy(), 4)});
  }
  std::printf("T to reach accuracy %.2f (paper's analogous reading at 0.90):\n%s\n",
              scale.target_accuracy, table.render().c_str());
}

}  // namespace

// The training runs are fully deterministic (seeded data, seeded client
// selection, fixed-order aggregation), so final losses and accuracies are
// exact repro targets: CI gates them with a tight --fail-above, unlike the
// noisy wall-clock "total".
void report_curves(bench::BenchReport& report, const char* group,
                   const std::vector<Curve>& curves) {
  for (const auto& c : curves) {
    if (c.record.rounds() == 0) continue;
    const auto& last = c.record.round(c.record.rounds() - 1);
    report.add("final_loss/" + std::string(group) + "/" + c.label,
               last.global_loss);
    report.add("final_accuracy/" + std::string(group) + "/" + c.label,
               last.test_accuracy);
  }
}

int main(int argc, char** argv) {
  bench::BenchReport bench_report("fig4");
  const auto start = std::chrono::steady_clock::now();
  const auto scale = bench::scale_from_args(argc, argv);
  const bench::TraceSession trace("bench_fig4", scale);

  std::printf("=== Fig. 4: training performance (Table II model: LR %zux10, "
              "SGD lr=%.3g decay=%.3g) ===\n",
              784UL, scale.learning_rate, scale.decay);
  std::printf("bench scale: N=%zu servers x %zu samples, target accuracy "
              "%.2f (see EXPERIMENTS.md for the paper-scale mapping)\n\n",
              scale.num_servers, scale.samples_per_server,
              scale.target_accuracy);

  // (a)/(b): fixed E = 40, varying K.
  std::vector<Curve> fixed_e;
  for (const std::size_t k : {1UL, 5UL, 10UL, 20UL}) {
    fixed_e.push_back(run_curve(scale, k, 40, 40));
  }
  const std::vector<std::size_t> checkpoints{1, 2, 3, 5, 8, 12, 20, 30, 40};
  print_curves("--- Fig. 4(a,b): fixed E=40, varying K ---", fixed_e,
               checkpoints);
  print_targets(scale, fixed_e);

  // (c)/(d): fixed K = 10, varying E.
  std::vector<Curve> fixed_k;
  fixed_k.push_back(run_curve(scale, 10, 1, 600));
  fixed_k.push_back(run_curve(scale, 10, 20, 60));
  fixed_k.push_back(run_curve(scale, 10, 40, 40));
  fixed_k.push_back(run_curve(scale, 10, 100, 25));
  const std::vector<std::size_t> checkpoints_e{1,  2,  3,  5,   8,  12,
                                               20, 40, 100, 300, 600};
  print_curves("--- Fig. 4(c,d): fixed K=10, varying E ---", fixed_k,
               checkpoints_e);
  print_targets(scale, fixed_k);

  std::printf("paper's reading (MNIST, acc 0.9, K=10): E=20 -> T~280, "
              "E=40 -> T~90, E=100 -> T~60;\nthe non-monotone E*T verifies "
              "an interior optimal E.\n");

  std::ofstream csv("fig4_curves.csv");
  csv << "series,round,loss,accuracy\n";
  for (const auto* group : {&fixed_e, &fixed_k}) {
    for (const auto& c : *group) {
      for (const auto& r : c.record.all()) {
        csv << c.label << ',' << (r.round + 1) << ',' << r.global_loss << ','
            << r.test_accuracy << '\n';
      }
    }
  }
  std::printf("wrote fig4_curves.csv\n");

  report_curves(bench_report, "fixed_e", fixed_e);
  report_curves(bench_report, "fixed_k", fixed_k);
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  bench_report.add("total", static_cast<double>(ns));
  bench_report.write();
  return 0;
}
