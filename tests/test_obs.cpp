// Observability layer: metrics registry, span tracer, Chrome-trace /
// metrics / manifest exporters, the global telemetry toggle, and the two
// system-level guarantees — traced runs are deterministic per seed, and the
// metrics mirror of the energy ledger cannot drift from the ledger itself.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "energy/ledger.h"
#include "obs/build_info.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace_export.h"
#include "obs/tracer.h"
#include "sim/async_fei.h"
#include "sim/fei_system.h"

namespace eefei {
namespace {

// ------------------------------------------------------------------ metrics

TEST(Metrics, CounterAccumulatesAcrossThreads) {
  obs::Counter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) counter.add(0.5);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_DOUBLE_EQ(counter.value(), 8 * 1000 * 0.5);
}

TEST(Metrics, GaugeIsLastWriteWins) {
  obs::Gauge gauge;
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  gauge.set(3.5);
  gauge.set(-1.25);
  EXPECT_DOUBLE_EQ(gauge.value(), -1.25);
}

TEST(Metrics, RegistryReturnsStableAddressesAndSortedSnapshot) {
  obs::MetricsRegistry registry;
  obs::Counter& c1 = registry.counter("zeta");
  obs::Counter& c2 = registry.counter("alpha");
  EXPECT_EQ(&c1, &registry.counter("zeta"));
  c1.add(2.0);
  c2.increment();
  registry.gauge("depth").set(7.0);
  (void)registry.sketch("lat");

  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].first, "alpha");  // name-sorted
  EXPECT_EQ(snapshot.counters[1].first, "zeta");
  EXPECT_DOUBLE_EQ(snapshot.counter_value("zeta"), 2.0);
  EXPECT_DOUBLE_EQ(snapshot.counter_value("missing"), 0.0);
  EXPECT_DOUBLE_EQ(snapshot.gauge_value("depth"), 7.0);
  ASSERT_EQ(snapshot.sketches.size(), 1u);
  EXPECT_EQ(snapshot.sketches[0].name, "lat");
}

TEST(Metrics, RegistrySketchFindOrCreateKeepsStableAddresses) {
  obs::MetricsRegistry registry;
  obs::QuantileSketch& sk = registry.sketch("fleet.round.seconds");
  EXPECT_EQ(&sk, &registry.sketch("fleet.round.seconds"));
  // Accuracy is only consulted on first registration.
  EXPECT_EQ(&sk, &registry.sketch("fleet.round.seconds", 0.1));
  EXPECT_DOUBLE_EQ(sk.relative_accuracy(),
                   obs::QuantileSketch::kDefaultRelativeAccuracy);
  sk.record(0.5);
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.sketches.size(), 1u);
  const auto* found = snap.sketch("fleet.round.seconds");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->count, 1u);
  EXPECT_EQ(snap.sketch("missing"), nullptr);
}

TEST(Metrics, SketchSnapshotWhileRecordingIsSafe) {
  // TSan target: snapshot() must be data-race-free against concurrent
  // record() calls, and every snapshot must be internally consistent
  // (bucket totals == count - zero_count even mid-recording).
  obs::QuantileSketch sketch;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      std::uint64_t i = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        sketch.record(static_cast<double>(i % 1000) * 0.01);
        ++i;
      }
    });
  }
  std::uint64_t last_count = 0;
  for (int s = 0; s < 50; ++s) {
    const auto snap = sketch.snapshot();
    // Per-shard counters only grow, and same-variable relaxed loads respect
    // modification order, so successive snapshots are monotone.
    EXPECT_GE(snap.count, last_count);
    last_count = snap.count;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : writers) w.join();
  const auto final_snap = sketch.snapshot();
  std::uint64_t in_buckets = final_snap.zero_count;
  for (const auto b : final_snap.buckets) in_buckets += b;
  EXPECT_EQ(in_buckets, final_snap.count);
}

TEST(Metrics, EmptyRegistryExportsValidDocument) {
  obs::MetricsRegistry registry;
  const std::string json = obs::metrics_json(registry.snapshot());
  EXPECT_NE(json.find("\"kind\": \"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\": ["), std::string::npos);
  EXPECT_EQ(json.find("histograms"), std::string::npos);  // one kind only
  EXPECT_NE(json.find("\"sketches\": ["), std::string::npos);
}

// ------------------------------------------------------------------- tracer

TEST(Tracer, RecordsSimSpansWithMicrosecondTimestamps) {
  obs::Tracer tracer;
  tracer.sim_span("training", "sim.phase", obs::Tracer::server_pid(2),
                  Seconds{1.5}, Seconds{0.25}, {{"round", 3.0}});
  tracer.sim_instant("server.crash", "sim.fault", obs::Tracer::server_pid(2),
                     Seconds{1.75});
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ph, 'X');
  EXPECT_EQ(events[0].clock, obs::Clock::kSim);
  EXPECT_EQ(events[0].pid, 3);  // server 2 → pid 3
  EXPECT_DOUBLE_EQ(events[0].ts_us, 1.5e6);
  EXPECT_DOUBLE_EQ(events[0].dur_us, 0.25e6);
  ASSERT_EQ(events[0].n_args, 1u);
  EXPECT_STREQ(events[0].args[0].key, "round");
  EXPECT_EQ(events[1].ph, 'i');
  EXPECT_DOUBLE_EQ(events[1].ts_us, 1.75e6);
}

TEST(Tracer, WallSpanIsInertOnNullTracer) {
  // The disabled-telemetry idiom: WallSpan on obs::tracer() == nullptr must
  // be a no-op, not a crash.
  obs::Tracer::WallSpan span(nullptr, "noop", "test");
}

TEST(Tracer, WallSpanRecordsOnDestruction) {
  obs::Tracer tracer;
  {
    obs::Tracer::WallSpan span(&tracer, "work", "host", {{"n", 4.0}});
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].clock, obs::Clock::kWall);
  EXPECT_EQ(events[0].pid, obs::Tracer::kHostPid);
  EXPECT_GE(events[0].dur_us, 0.0);
}

TEST(Tracer, CollectsEventsFromMultipleThreads) {
  obs::Tracer tracer;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < 50; ++i) {
        tracer.wall_instant("tick", "test");
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tracer.events().size(), 200u);
}

TEST(Tracer, TrackNamesAreIdempotentAndPidSorted) {
  obs::Tracer tracer;
  tracer.set_track_name(5, "edge_server_4");
  tracer.set_track_name(0, "coordinator");
  tracer.set_track_name(5, "edge_server_4");  // duplicate registration
  const auto names = tracer.track_names();
  // The host wall track is pre-registered at construction.
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0].first, 0);
  EXPECT_EQ(names[0].second, "coordinator");
  EXPECT_EQ(names[1].first, 5);
  EXPECT_EQ(names[2].first, obs::Tracer::kHostPid);
  EXPECT_EQ(names[2].second, "host");
}

// ----------------------------------------------------------- telemetry gate

TEST(Telemetry, DisabledByDefaultAndScopeRestores) {
  EXPECT_EQ(obs::telemetry(), nullptr);
  obs::Telemetry outer;
  {
    obs::TelemetryScope outer_scope(outer);
    EXPECT_EQ(obs::telemetry(), &outer);
    obs::Telemetry inner;
    {
      obs::TelemetryScope inner_scope(inner);
      EXPECT_EQ(obs::telemetry(), &inner);
    }
    EXPECT_EQ(obs::telemetry(), &outer);
  }
  EXPECT_EQ(obs::telemetry(), nullptr);
  EXPECT_EQ(obs::tracer(), nullptr);
  EXPECT_EQ(obs::metrics(), nullptr);
}

// -------------------------------------------------------------------- json

TEST(ObsJson, QuoteEscapesControlCharacters) {
  EXPECT_EQ(obs::json_quote("plain"), "\"plain\"");
  EXPECT_EQ(obs::json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(obs::json_quote("line\nbreak"), "\"line\\nbreak\"");
}

TEST(ObsJson, NumberHandlesNonFinite) {
  EXPECT_EQ(obs::json_number(0.5), "0.5");
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(obs::json_number(std::nan("")), "null");
}

// --------------------------------------------------------------- exporters

TEST(TraceExport, ChromeJsonCarriesSchemaTracksAndEvents) {
  obs::Tracer tracer;
  tracer.set_track_name(obs::Tracer::kCoordinatorPid, "coordinator");
  tracer.set_track_name(obs::Tracer::server_pid(0), "edge_server_0");
  tracer.sim_span("training", "sim.phase", obs::Tracer::server_pid(0),
                  Seconds{0.0}, Seconds{1.0});
  tracer.sim_instant("update.lost", "sim.fault", obs::Tracer::server_pid(0),
                     Seconds{0.5});
  const std::string json = obs::chrome_trace_json(tracer);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"edge_server_0\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\""), std::string::npos);
  // Instants carry the scope marker Perfetto expects.
  EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);
}

TEST(TraceExport, IncludeWallFalseDropsWallEvents) {
  obs::Tracer tracer;
  tracer.set_track_name(obs::Tracer::kHostPid, "host");
  tracer.sim_span("round", "sim.round", obs::Tracer::kCoordinatorPid,
                  Seconds{0.0}, Seconds{1.0});
  tracer.wall_instant("tick", "host");
  obs::TraceExportOptions options;
  options.include_wall = false;
  const std::string json = obs::chrome_trace_json(tracer, options);
  EXPECT_NE(json.find("\"round\""), std::string::npos);
  EXPECT_EQ(json.find("\"tick\""), std::string::npos);
  EXPECT_EQ(json.find("\"host\""), std::string::npos);
}

TEST(TraceExport, MetricsJsonRoundTripsSnapshotValues) {
  obs::MetricsRegistry registry;
  registry.counter("energy.joules.training").add(12.5);
  registry.gauge("pool.queue_depth").set(3.0);
  registry.sketch("pool.task_run.ns").record(42.0);
  const std::string json = obs::metrics_json(registry.snapshot());
  EXPECT_NE(json.find("\"kind\": \"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"energy.joules.training\""), std::string::npos);
  EXPECT_NE(json.find("12.5"), std::string::npos);
  EXPECT_NE(json.find("\"pool.queue_depth\""), std::string::npos);
  EXPECT_NE(json.find("\"pool.task_run.ns\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1, \"zero_count\": 0, \"sum\": 42, "
                      "\"min\": 42, \"max\": 42"),
            std::string::npos);
  EXPECT_NE(json.find("\"quantiles\": {\"p50\": "), std::string::npos);
  EXPECT_NE(json.find("\"buckets\": [1]"), std::string::npos);
}

TEST(Manifest, JsonCarriesProvenanceAndTotals) {
  obs::RunManifest manifest;
  manifest.tool = "test_tool";
  manifest.seed = 42;
  manifest.set("servers", "6");
  obs::MetricsRegistry registry;
  registry.counter("round.count").add(8.0);
  manifest.add_metric_totals(registry.snapshot());
  manifest.artifacts = {"out.trace.json"};
  const std::string json = obs::manifest_json(manifest);
  EXPECT_NE(json.find("\"kind\": \"manifest\""), std::string::npos);
  EXPECT_NE(json.find("\"tool\": \"test_tool\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"servers\": \"6\""), std::string::npos);
  EXPECT_NE(json.find("\"round.count\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"out.trace.json\""), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(json.find("\"build_flags\""), std::string::npos);
}

TEST(BuildInfo, NeverReturnsEmpty) {
  EXPECT_FALSE(std::string(obs::git_sha()).empty());
  EXPECT_FALSE(std::string(obs::build_type()).empty());
  EXPECT_FALSE(std::string(obs::build_flags()).empty());
}

// --------------------------------------------------- system-level contracts

sim::FeiSystemConfig faulty_config() {
  sim::FeiSystemConfig cfg = sim::prototype_config();
  cfg.num_servers = 6;
  cfg.samples_per_server = 100;
  cfg.test_samples = 300;
  cfg.data.image_side = 12;
  cfg.model.input_dim = 144;
  cfg.sgd.learning_rate = 0.1;
  cfg.fl.clients_per_round = 3;
  cfg.fl.local_epochs = 5;
  cfg.fl.max_rounds = 6;
  cfg.fl.threads = 4;
  cfg.seed = 5;
  cfg.net.link_faults.loss_probability = 0.25;
  cfg.fl.overselect = 1;
  return cfg;
}

TEST(TracedRuns, SimTraceIsDeterministicPerSeed) {
  // Two traced same-seed runs must export byte-identical trace JSON once
  // wall-clock events are stripped (sim timestamps are simulation state;
  // wall timestamps are host noise).
  auto traced_run = [] {
    obs::Telemetry telemetry;
    const obs::TelemetryScope scope(telemetry);
    sim::FeiSystem system(faulty_config());
    const auto r = system.run();
    EXPECT_TRUE(r.ok());
    obs::TraceExportOptions options;
    options.include_wall = false;
    return obs::chrome_trace_json(telemetry.tracer, options);
  };
  const std::string a = traced_run();
  const std::string b = traced_run();
  EXPECT_EQ(a, b);
  // The trace actually contains the Fig. 3 state machine, faults included.
  for (const char* needle :
       {"\"downloading\"", "\"training\"", "\"uploading\"", "\"waiting\"",
        "\"round\"", "\"edge_server_5\""}) {
    EXPECT_NE(a.find(needle), std::string::npos) << needle;
  }
}

TEST(TracedRuns, TracingDoesNotPerturbTheRun) {
  auto run_params = [](bool traced) {
    obs::Telemetry telemetry;
    std::unique_ptr<obs::TelemetryScope> scope;
    if (traced) scope = std::make_unique<obs::TelemetryScope>(telemetry);
    sim::FeiSystem system(faulty_config());
    auto r = system.run();
    EXPECT_TRUE(r.ok());
    return std::move(r).value().training.final_params;
  };
  EXPECT_EQ(run_params(false), run_params(true));
}

TEST(TracedRuns, MetricsMirrorMatchesLedgerAfterFaultyRun) {
  obs::Telemetry telemetry;
  const obs::TelemetryScope scope(telemetry);
  sim::FeiSystem system(faulty_config());
  const auto r = system.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  ASSERT_GT(r->total_retries, 0u);  // the faulty paths actually fired

  const auto snapshot = telemetry.metrics.snapshot();
  for (std::size_t c = 0; c < energy::kNumEnergyCategories; ++c) {
    const auto cat = static_cast<energy::EnergyCategory>(c);
    EXPECT_NEAR(snapshot.counter_value(std::string("energy.joules.") +
                                       energy::to_string(cat)),
                r->ledger.category_total(cat).value(), 1e-9)
        << energy::to_string(cat);
  }
  EXPECT_DOUBLE_EQ(snapshot.counter_value("link.retries"),
                   static_cast<double>(r->total_retries));
  EXPECT_DOUBLE_EQ(snapshot.counter_value("fleet.rounds"), 6.0);
}

TEST(TracedRuns, MetricsMirrorSurvivesAsyncReclassify) {
  // The async stop path books the cut part of each pending phase as
  // kAborted; the metric mirror must see those charges as well as the
  // completed phases'.
  sim::AsyncFeiConfig cfg;
  cfg.base = sim::prototype_config();
  cfg.base.num_servers = 6;
  cfg.base.samples_per_server = 100;
  cfg.base.test_samples = 300;
  cfg.base.data.image_side = 12;
  cfg.base.model.input_dim = 144;
  cfg.base.sgd.learning_rate = 0.1;
  cfg.base.fl.clients_per_round = 3;  // 3 concurrent workers
  cfg.base.fl.local_epochs = 5;
  cfg.base.seed = 51;
  cfg.max_updates = 20;
  cfg.eval_every = 10;

  obs::Telemetry telemetry;
  const obs::TelemetryScope scope(telemetry);
  sim::AsyncFeiSystem system(cfg);
  const auto r = system.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  ASSERT_GT(r->cancelled_tasks, 0u);  // the stop path actually ran

  const auto snapshot = telemetry.metrics.snapshot();
  for (std::size_t c = 0; c < energy::kNumEnergyCategories; ++c) {
    const auto cat = static_cast<energy::EnergyCategory>(c);
    EXPECT_NEAR(snapshot.counter_value(std::string("energy.joules.") +
                                       energy::to_string(cat)),
                r->ledger.category_total(cat).value(), 1e-9)
        << energy::to_string(cat);
  }
  EXPECT_DOUBLE_EQ(snapshot.counter_value("async.cancelled"),
                   static_cast<double>(r->cancelled_tasks));
  EXPECT_DOUBLE_EQ(snapshot.counter_value("async.updates"),
                   static_cast<double>(r->updates_applied));
}

}  // namespace
}  // namespace eefei
