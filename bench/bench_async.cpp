// Extension: synchronous FedAvg (the paper's protocol) vs asynchronous
// staleness-weighted aggregation, with and without persistent stragglers.
//
// Compared at the same accuracy target: wall-clock time, total energy and
// the waiting-energy overhead the synchronous barrier burns.  The async
// protocol's case: when some edge servers are persistently slow (thermal
// throttling, weaker hardware), the barrier makes everyone pay; async
// servers keep contributing at their own pace.
#include <cstdio>

#include "bench_json.h"
#include "bench_common.h"
#include "common/table.h"
#include "sim/async_fei.h"

using namespace eefei;

namespace {

struct Row {
  std::string name;
  bool reached = false;
  double time_s = 0.0;
  double total_j = 0.0;
  double waiting_j = 0.0;
  double accuracy = 0.0;
  std::size_t updates = 0;  // server-updates applied (rounds × K for sync)
};

Row run_sync(const bench::BenchScale& scale, bool stragglers) {
  auto cfg = bench::system_config(scale);
  cfg.fl.clients_per_round = 5;
  cfg.fl.local_epochs = 60;  // training-dominated rounds
  cfg.fl.max_rounds = 120;
  cfg.fl.eval_every = 2;
  cfg.fl.target_accuracy = scale.target_accuracy;
  if (stragglers) {
    cfg.straggler_fraction = 0.4;
    cfg.straggler_slowdown = 8.0;
    cfg.straggler_persistent = true;
  }
  sim::FeiSystem system(cfg);
  const auto r = system.run();
  Row row;
  row.name = stragglers ? "sync + stragglers" : "sync";
  if (r.ok()) {
    row.reached = r->training.reached_target;
    row.time_s = r->wall_clock.value();
    row.total_j = r->ledger.total().value();
    row.waiting_j =
        r->ledger.category_total(energy::EnergyCategory::kWaiting).value();
    row.accuracy = r->training.record.last().test_accuracy;
    row.updates = r->training.rounds_run * 5;
  }
  return row;
}

Row run_async(const bench::BenchScale& scale, bool stragglers) {
  sim::AsyncFeiConfig cfg;
  cfg.base = bench::system_config(scale);
  cfg.base.fl.clients_per_round = 5;  // concurrent workers
  cfg.base.fl.local_epochs = 60;
  cfg.base.fl.target_accuracy = scale.target_accuracy;
  cfg.max_updates = 1200;
  cfg.eval_every = 5;
  if (stragglers) {
    cfg.base.straggler_fraction = 0.4;
    cfg.base.straggler_slowdown = 8.0;
    cfg.base.straggler_persistent = true;
  }
  sim::AsyncFeiSystem system(cfg);
  const auto r = system.run();
  Row row;
  row.name = stragglers ? "async + stragglers" : "async";
  if (r.ok()) {
    row.reached = r->reached_target;
    row.time_s = r->wall_clock.value();
    row.total_j = r->ledger.total().value();
    row.waiting_j =
        r->ledger.category_total(energy::EnergyCategory::kWaiting).value();
    row.accuracy = r->final_accuracy;
    row.updates = r->updates_applied;
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::TotalTimeReport bench_report("async");
  auto scale = bench::scale_from_args(argc, argv);
  scale.target_accuracy = std::min(scale.target_accuracy, 0.90);
  const bench::TraceSession trace("bench_async", scale);

  std::printf("=== sync FedAvg vs async staleness-weighted aggregation "
              "(target %.2f) ===\n", scale.target_accuracy);
  std::printf("5 workers, E=60; stragglers: 40%% of servers persistently "
              "8x slower\n\n");

  AsciiTable table({"protocol", "reached", "time_s", "total_J",
                    "waiting_J", "updates", "final_acc"});
  for (const bool stragglers : {false, true}) {
    for (const bool async : {false, true}) {
      const Row row = async ? run_async(scale, stragglers)
                            : run_sync(scale, stragglers);
      table.add_row({row.name, row.reached ? "yes" : "NO",
                     format_double(row.time_s, 5),
                     format_double(row.total_j, 5),
                     format_double(row.waiting_j, 4),
                     std::to_string(row.updates),
                     format_double(row.accuracy, 4)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("readings:\n");
  std::printf("  * async burns zero waiting energy (no barrier), but its "
              "staleness-discounted mixing needs more server-updates to the "
              "same accuracy — on a clean fleet sync wins outright;\n");
  std::printf("  * the async case is straggler resilience: compare the "
              "relative time degradation of the two protocols when 40%% of "
              "the fleet is persistently slow.\n");
  return 0;
}
