// Fault tolerance demo: federated training over lossy links with a
// mid-run coordinator crash.
//
//   1. train with 10% per-attempt packet loss — retransmissions recover
//      every transfer, and their energy lands in the "retry" ledger row;
//   2. the coordinator "crashes" after 12 rounds; the periodic checkpoint
//      autosave (every 5 rounds) has the round-10 model on disk;
//   3. a fresh coordinator resumes from that autosave and still reaches
//      the accuracy target — losing at most checkpoint_every rounds of
//      work, not the whole run.
//
// The whole demo runs traced: fault_tolerance.trace.json (open in Perfetto
// or chrome://tracing — one lane per edge server, fault instants on the
// lane of the server they hit), fault_tolerance.metrics.json and
// fault_tolerance.manifest.json land next to the binary's output.
//
// Build & run:  ./examples/fault_tolerance
#include <cmath>
#include <cstdio>

#include "fl/checkpoint.h"
#include "obs/manifest.h"
#include "obs/telemetry.h"
#include "obs/trace_export.h"
#include "sim/fei_system.h"

using namespace eefei;

namespace {

sim::FeiSystemConfig demo_config() {
  auto cfg = sim::prototype_config();
  cfg.num_servers = 10;
  cfg.samples_per_server = 250;
  cfg.test_samples = 500;
  cfg.sgd.learning_rate = 0.02;
  cfg.sgd.decay = 0.998;
  cfg.fl.clients_per_round = 5;
  cfg.fl.local_epochs = 20;
  cfg.fl.threads = 4;
  cfg.seed = 7;

  // The fault layer: 10% per-attempt loss, recovered by up to 6 attempts
  // with exponential backoff; one spare server per round; autosave every
  // 5 rounds.
  cfg.net.link_faults.loss_probability = 0.10;
  cfg.fl.overselect = 1;
  cfg.fl.checkpoint_every = 5;
  return cfg;
}

}  // namespace

int main() {
  obs::Telemetry telemetry;
  const obs::TelemetryScope telemetry_scope(telemetry);

  std::printf("== 1. Training over lossy links (10%% per-attempt loss) ==\n");
  auto cfg = demo_config();
  cfg.fl.max_rounds = 12;

  sim::FeiSystem first(cfg);
  const auto seg1 = first.run();
  if (!seg1.ok()) {
    std::fprintf(stderr, "run failed: %s\n", seg1.error().message.c_str());
    return 1;
  }
  std::printf("12 rounds done: loss %.4f, accuracy %.3f\n",
              seg1->training.record.last().global_loss,
              seg1->training.record.last().test_accuracy);
  std::printf("link-level retries: %zu (energy booked under 'retry')\n",
              seg1->total_retries);
  std::printf("updates lost to exhausted links: %zu\n\n",
              seg1->total_aborted_updates);

  std::printf("== 2. Coordinator crash!  Recovering the last autosave ==\n");
  if (!seg1->last_checkpoint.has_value()) {
    std::fprintf(stderr, "no autosave found\n");
    return 1;
  }
  const fl::TrainingCheckpoint& autosave = *seg1->last_checkpoint;
  std::printf("autosave covers rounds 0..%zu — rounds %zu..11 are lost "
              "(at most checkpoint_every-1 = 4 rounds of work)\n\n",
              autosave.rounds_completed - 1, autosave.rounds_completed);

  std::printf("== 3. Resuming from round %zu until 80%% accuracy ==\n",
              autosave.rounds_completed);
  auto cfg2 = demo_config();
  cfg2.fl.max_rounds = 60;
  cfg2.fl.target_accuracy = 0.80;
  sim::FeiSystem second(cfg2);
  second.resume_from(autosave);
  const auto seg2 = second.run();
  if (!seg2.ok()) {
    std::fprintf(stderr, "resume failed: %s\n", seg2.error().message.c_str());
    return 1;
  }
  std::printf("%s after %zu more rounds: accuracy %.3f\n",
              seg2->training.reached_target ? "target reached" : "round cap hit",
              seg2->training.rounds_run,
              seg2->training.record.last().test_accuracy);
  std::printf("retries in the resumed segment: %zu\n\n", seg2->total_retries);

  std::printf("resumed segment energy ledger:\n%s\n",
              seg2->ledger.render().c_str());

  // Telemetry self-check: the metrics registry must have seen exactly the
  // joules both ledgers booked, category by category (including the
  // kRetry and kAborted bookings of the fault paths) — a live proof the
  // mirror can't drift.
  const auto snapshot = telemetry.metrics.snapshot();
  for (std::size_t c = 0; c < energy::kNumEnergyCategories; ++c) {
    const auto cat = static_cast<energy::EnergyCategory>(c);
    const double booked = seg1->ledger.category_total(cat).value() +
                          seg2->ledger.category_total(cat).value();
    const double counted = snapshot.counter_value(
        std::string("energy.joules.") + energy::to_string(cat));
    if (std::abs(booked - counted) > 1e-9 * std::max(1.0, booked)) {
      std::fprintf(stderr,
                   "telemetry mismatch in %s: ledger %.12g != metrics %.12g\n",
                   energy::to_string(cat), booked, counted);
      return 1;
    }
  }
  std::printf("telemetry self-check: metric totals match both ledgers\n");

  obs::RunManifest manifest;
  manifest.tool = "examples/fault_tolerance";
  manifest.seed = 7;
  manifest.set("loss_probability", "0.10");
  manifest.set("checkpoint_every", "5");
  manifest.set("target_accuracy", "0.80");
  manifest.add_metric_totals(snapshot);
  manifest.artifacts = {"fault_tolerance.trace.json",
                        "fault_tolerance.metrics.json"};
  for (const auto& st :
       {obs::write_chrome_trace(telemetry.tracer,
                                "fault_tolerance.trace.json"),
        obs::write_metrics_json(snapshot, "fault_tolerance.metrics.json"),
        obs::write_manifest(manifest, "fault_tolerance.manifest.json")}) {
    if (!st.ok()) {
      std::fprintf(stderr, "write failed: %s\n", st.error().message.c_str());
      return 1;
    }
  }
  std::printf("wrote fault_tolerance.{trace,metrics,manifest}.json\n");
  return seg2->training.reached_target ? 0 : 1;
}
