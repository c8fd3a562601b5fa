// Fault-tolerance layer: link fault planning, the server crash process,
// ledger reclassification, and the fault-aware FEI round simulation —
// including the guarantee that with every fault knob at its default the
// system output is byte-identical to the fault-free path.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/rng.h"
#include "energy/ledger.h"
#include "ml/serialize.h"
#include "net/fault.h"
#include "obs/telemetry.h"
#include "sim/fault_process.h"
#include "sim/fei_system.h"

namespace eefei {
namespace {

// ---------------------------------------------------------------- net::fault

TEST(PlanFaultyTransfer, CleanLinkDeliversFirstTry) {
  Rng rng(1);
  net::LinkFaultConfig cfg;  // loss 0, no outages
  const auto out =
      net::plan_faulty_transfer(rng, cfg, Seconds{2.0}, Seconds{0.5});
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_EQ(out.retries(), 0u);
  EXPECT_DOUBLE_EQ(out.finish.value(), 2.5);
  EXPECT_DOUBLE_EQ(out.air_time.value(), 0.5);
  EXPECT_DOUBLE_EQ(out.wasted_air_time.value(), 0.0);
  EXPECT_DOUBLE_EQ(out.backoff_time.value(), 0.0);
}

TEST(PlanFaultyTransfer, OutageForcesRetriesPastTheWindow) {
  Rng rng(1);
  net::LinkFaultConfig cfg;
  cfg.outages = {{Seconds{0.0}, Seconds{0.5}}};
  cfg.backoff_base = Seconds::from_millis(10.0);
  cfg.backoff_factor = 2.0;
  cfg.max_attempts = 10;
  const auto out =
      net::plan_faulty_transfer(rng, cfg, Seconds{0.0}, Seconds{0.1});
  EXPECT_TRUE(out.delivered);
  EXPECT_GT(out.attempts, 1u);
  // The successful attempt starts only after the outage window closes.
  EXPECT_GE((out.finish - Seconds{0.1}).value(), 0.5);
  EXPECT_DOUBLE_EQ(out.wasted_air_time.value(),
                   0.1 * static_cast<double>(out.attempts - 1));
  EXPECT_DOUBLE_EQ(out.air_time.value(),
                   0.1 * static_cast<double>(out.attempts));
  EXPECT_GT(out.backoff_time.value(), 0.0);
}

TEST(PlanFaultyTransfer, AttemptCapGivesUp) {
  Rng rng(1);
  net::LinkFaultConfig cfg;
  cfg.loss_probability = 1.0;
  cfg.max_attempts = 3;
  cfg.backoff_base = Seconds{0.01};
  cfg.backoff_factor = 2.0;
  const auto out =
      net::plan_faulty_transfer(rng, cfg, Seconds{0.0}, Seconds{0.1});
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(out.attempts, 3u);
  EXPECT_DOUBLE_EQ(out.air_time.value(), 0.3);
  EXPECT_DOUBLE_EQ(out.wasted_air_time.value(), 0.3);
  // Backoff after attempts 1 and 2 only — no trailing gap after giving up.
  EXPECT_DOUBLE_EQ(out.backoff_time.value(), 0.01 + 0.02);
  EXPECT_DOUBLE_EQ(out.finish.value(), 0.3 + 0.03);
}

TEST(PlanFaultyTransfer, BackoffGrowsExponentially) {
  // With certain loss and 4 attempts, the idle time is b + 2b + 4b.
  Rng rng(9);
  net::LinkFaultConfig cfg;
  cfg.loss_probability = 1.0;
  cfg.max_attempts = 4;
  cfg.backoff_base = Seconds{0.5};
  cfg.backoff_factor = 2.0;
  const auto out =
      net::plan_faulty_transfer(rng, cfg, Seconds{0.0}, Seconds{1.0});
  EXPECT_DOUBLE_EQ(out.backoff_time.value(), 0.5 + 1.0 + 2.0);
  EXPECT_DOUBLE_EQ(out.finish.value(), 4.0 + 3.5);
}

TEST(PlanFaultyTransfer, RngStreamAdvancesOncePerAttempt) {
  // Two configs that fail the same number of attempts for different
  // reasons (loss vs. outage) must leave the rng in the same state.
  net::LinkFaultConfig loss_cfg;
  loss_cfg.loss_probability = 1.0;
  loss_cfg.max_attempts = 3;
  net::LinkFaultConfig outage_cfg;
  outage_cfg.outages = {{Seconds{0.0}, Seconds{100.0}}};
  outage_cfg.max_attempts = 3;

  Rng a(42), b(42);
  (void)net::plan_faulty_transfer(a, loss_cfg, Seconds{0.0}, Seconds{0.1});
  (void)net::plan_faulty_transfer(b, outage_cfg, Seconds{0.0}, Seconds{0.1});
  EXPECT_EQ(a.next(), b.next());
}

TEST(PlanFaultyTransfer, OutageOverlapIsHalfOpenOnBothEnds) {
  // An attempt occupying [start, start + duration) and a window covering
  // [w.start, w.end()) overlap iff begin < w.end() && w.start < end.
  // All instants are dyadic so start + duration is exact — the boundary
  // comparisons below are about interval semantics, not float rounding.
  Rng rng(1);
  net::LinkFaultConfig cfg;
  cfg.outages = {{Seconds{0.125}, Seconds{0.25}}};  // window [0.125, 0.375)

  // Attempt [0.0, 0.125): touches the window's start instant only — the
  // half-open semantics make that a miss, so delivery is first-try.
  const auto before =
      net::plan_faulty_transfer(rng, cfg, Seconds{0.0}, Seconds{0.125});
  EXPECT_TRUE(before.delivered);
  EXPECT_EQ(before.attempts, 1u);

  // Attempt [0.375, 0.5): starts exactly at the window's end — also a miss.
  const auto after =
      net::plan_faulty_transfer(rng, cfg, Seconds{0.375}, Seconds{0.125});
  EXPECT_TRUE(after.delivered);
  EXPECT_EQ(after.attempts, 1u);

  // Attempt [0.25, 0.375): overlaps the window's tail, so the first
  // attempt fails and the transfer retries.
  const auto inside =
      net::plan_faulty_transfer(rng, cfg, Seconds{0.25}, Seconds{0.125});
  EXPECT_GT(inside.attempts, 1u);
}

TEST(LinkFaultConfig, ValidateAcceptsDefaultsAndBoundaries) {
  net::LinkFaultConfig cfg;
  EXPECT_TRUE(cfg.validate().ok());
  cfg.loss_probability = 1.0;
  cfg.backoff_factor = 1.0;  // constant backoff is legal
  cfg.backoff_base = Seconds{0.0};
  cfg.max_attempts = 1;
  cfg.outages = {{Seconds{0.0}, Seconds{0.001}}};
  EXPECT_TRUE(cfg.validate().ok());
}

TEST(LinkFaultConfig, ValidateRejectsDegenerateKnobs) {
  net::LinkFaultConfig cfg;
  cfg.loss_probability = -0.01;
  EXPECT_FALSE(cfg.validate().ok());
  cfg = {};
  cfg.loss_probability = 1.01;
  EXPECT_FALSE(cfg.validate().ok());
  cfg = {};
  cfg.max_attempts = 0;
  EXPECT_FALSE(cfg.validate().ok());
  cfg = {};
  cfg.backoff_base = Seconds{-0.01};
  EXPECT_FALSE(cfg.validate().ok());
  cfg = {};
  cfg.backoff_factor = 0.5;  // the planner would clamp it; validate rejects
  EXPECT_FALSE(cfg.validate().ok());
}

TEST(LinkFaultConfig, ValidateRejectsZeroLengthAndNegativeOutages) {
  // A zero-length window never overlaps any attempt under the half-open
  // semantics — it silently does nothing, so it is rejected as a likely
  // misconfiguration rather than accepted.
  net::LinkFaultConfig cfg;
  cfg.outages = {{Seconds{1.0}, Seconds{0.0}}};
  EXPECT_FALSE(cfg.validate().ok());
  cfg.outages = {{Seconds{-0.5}, Seconds{1.0}}};
  EXPECT_FALSE(cfg.validate().ok());
  cfg.outages = {{Seconds{1.0}, Seconds{-1.0}}};
  EXPECT_FALSE(cfg.validate().ok());
}

// ---------------------------------------------------------- sim::CrashProcess

TEST(CrashProcess, DisabledNeverCrashes) {
  sim::CrashProcessConfig cfg;  // mtbf 0 = off
  sim::CrashProcess proc(4, cfg);
  EXPECT_FALSE(proc.enabled());
  EXPECT_FALSE(proc.is_down(0, Seconds{1e6}));
  EXPECT_FALSE(proc.next_crash_in(2, Seconds{0.0}, Seconds{1e6}).has_value());
  EXPECT_EQ(proc.crashes_before(Seconds{1e6}), 0u);
}

TEST(CrashProcess, DeterministicPerSeed) {
  sim::CrashProcessConfig cfg;
  cfg.mtbf = Seconds{5.0};
  cfg.mttr = Seconds{1.0};
  cfg.seed = 321;
  sim::CrashProcess a(3, cfg), b(3, cfg);
  for (std::size_t s = 0; s < 3; ++s) {
    for (int i = 0; i < 200; ++i) {
      const Seconds at{0.25 * i};
      EXPECT_EQ(a.is_down(s, at), b.is_down(s, at)) << s << " @ " << i;
    }
  }
}

TEST(CrashProcess, CrashesOccurAndServerIsDownDuringRepair) {
  sim::CrashProcessConfig cfg;
  cfg.mtbf = Seconds{2.0};
  cfg.mttr = Seconds{1.0};
  sim::CrashProcess proc(1, cfg);
  const auto crash = proc.next_crash_in(0, Seconds{0.0}, Seconds{1000.0});
  ASSERT_TRUE(crash.has_value());
  EXPECT_TRUE(proc.is_down(0, *crash));
  EXPECT_FALSE(proc.is_down(0, *crash - Seconds{1e-6}));
  EXPECT_GT(proc.crashes_before(Seconds{1000.0}), 0u);
}

TEST(CrashProcess, ServersFailIndependently) {
  sim::CrashProcessConfig cfg;
  cfg.mtbf = Seconds{3.0};
  cfg.mttr = Seconds{1.0};
  sim::CrashProcess proc(2, cfg);
  const auto c0 = proc.next_crash_in(0, Seconds{0.0}, Seconds{1000.0});
  const auto c1 = proc.next_crash_in(1, Seconds{0.0}, Seconds{1000.0});
  ASSERT_TRUE(c0.has_value());
  ASSERT_TRUE(c1.has_value());
  EXPECT_NE(c0->value(), c1->value());
}

TEST(CrashProcess, ShuffledQueriesAnswerLikeThePin) {
  // N = 10^5 servers: timelines are seeded up front in server order but
  // built on first query, so the answers to a fixed (server, time) query
  // set must not depend on the order the queries arrive in, and must equal
  // the values recorded when every timeline was built eagerly.  Half the
  // queries hit 64 servers over and over (timelines extended out of time
  // order), half are spread over the whole fleet.
  constexpr std::size_t kServers = 100000;
  sim::CrashProcessConfig cfg;
  cfg.mtbf = Seconds{40.0};
  cfg.mttr = Seconds{4.0};
  cfg.seed = 4242;
  struct Query {
    std::size_t server;
    Seconds at;
  };
  std::vector<Query> queries;
  Rng pick(17);
  for (std::size_t i = 0; i < 4000; ++i) {
    const std::size_t range = i % 2 == 0 ? 64 : kServers;
    const auto server = static_cast<std::size_t>(pick.uniform_index(range));
    queries.push_back({server, Seconds{pick.uniform(0.0, 400.0)}});
  }
  // Per query: is_down as 0/1, then the next crash in [at, at + 25 s) or
  // -1; the last entry is crashes_before(200 s) after every query.
  const auto answer = [&](std::span<const std::size_t> order) {
    sim::CrashProcess proc(kServers, cfg);
    std::vector<double> out(2 * queries.size() + 1);
    for (const std::size_t q : order) {
      const Query& query = queries[q];
      out[2 * q] = proc.is_down(query.server, query.at) ? 1.0 : 0.0;
      const auto crash = proc.next_crash_in(query.server, query.at,
                                            query.at + Seconds{25.0});
      out[2 * q + 1] = crash.has_value() ? crash->value() : -1.0;
    }
    out.back() = static_cast<double>(proc.crashes_before(Seconds{200.0}));
    return out;
  };
  std::vector<std::size_t> order(queries.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto in_order = answer(order);
  Rng(5).shuffle(order);
  const auto shuffled = answer(order);
  EXPECT_EQ(shuffled, in_order);

  const auto crc = ml::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(shuffled.data()),
      shuffled.size() * sizeof(double)));
  EXPECT_EQ(crc, 0xc0a716bau) << std::hex << "crc=0x" << crc;
  EXPECT_EQ(shuffled.back(), 8134.0) << shuffled.back();
}

// ---------------------------------------------------- fault-aware FeiSystem

sim::FeiSystemConfig small_config() {
  sim::FeiSystemConfig cfg = sim::prototype_config();
  cfg.num_servers = 6;
  cfg.samples_per_server = 100;
  cfg.test_samples = 300;
  cfg.data.image_side = 12;
  cfg.model.input_dim = 144;
  cfg.sgd.learning_rate = 0.1;
  cfg.fl.clients_per_round = 3;
  cfg.fl.local_epochs = 5;
  cfg.fl.max_rounds = 8;
  cfg.fl.threads = 4;
  cfg.seed = 5;
  return cfg;
}

std::uint64_t fnv1a(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// Golden values captured from the pre-fault-layer build of this exact
// configuration.  With every fault knob at its default, the refactored
// system must reproduce them bit for bit: same parameter bytes, same
// metrics, same energy, same makespan.
TEST(FaultDefaults, ByteIdenticalToFaultFreeSeed) {
  sim::FeiSystem system(small_config());
  const auto r = system.run();
  ASSERT_TRUE(r.ok()) << r.error().message;

  const auto& params = r->training.final_params;
  EXPECT_EQ(fnv1a(params.data(), params.size() * sizeof(double)),
            0x7df0d05514f8f32dULL);
  EXPECT_EQ(r->training.record.last().global_loss, 0x1.e7d784c082ebp+0);
  EXPECT_EQ(r->training.record.last().test_accuracy, 0x1.fc962fc962fc9p-2);
  EXPECT_EQ(r->ledger.total().value(), 0x1.ad44a7413f57ap+2);
  EXPECT_EQ(r->wall_clock.value(), 0x1.83162202e1b3fp-1);

  // And the fault telemetry reads zero.
  EXPECT_EQ(r->total_retries, 0u);
  EXPECT_EQ(r->total_aborted_updates, 0u);
  EXPECT_EQ(r->total_straggler_drops, 0u);
  EXPECT_EQ(r->total_crashed_servers, 0u);
  EXPECT_DOUBLE_EQ(
      r->ledger.category_total(energy::EnergyCategory::kRetry).value(), 0.0);
  EXPECT_DOUBLE_EQ(
      r->ledger.category_total(energy::EnergyCategory::kAborted).value(),
      0.0);
}

// The telemetry layer's non-perturbation guarantee: recording spans and
// metrics must not touch a clock, an rng stream or any aggregation order,
// so the traced run reproduces the exact same golden bytes as the
// untraced one above.
TEST(FaultDefaults, ByteIdenticalWithTelemetryEnabled) {
  obs::Telemetry telemetry;
  const obs::TelemetryScope scope(telemetry);
  sim::FeiSystem system(small_config());
  const auto r = system.run();
  ASSERT_TRUE(r.ok()) << r.error().message;

  const auto& params = r->training.final_params;
  EXPECT_EQ(fnv1a(params.data(), params.size() * sizeof(double)),
            0x7df0d05514f8f32dULL);
  EXPECT_EQ(r->training.record.last().global_loss, 0x1.e7d784c082ebp+0);
  EXPECT_EQ(r->training.record.last().test_accuracy, 0x1.fc962fc962fc9p-2);
  EXPECT_EQ(r->ledger.total().value(), 0x1.ad44a7413f57ap+2);
  EXPECT_EQ(r->wall_clock.value(), 0x1.83162202e1b3fp-1);

  // The run really was recorded, not silently skipped.
  EXPECT_FALSE(telemetry.tracer.empty());
  const auto snapshot = telemetry.metrics.snapshot();
  EXPECT_EQ(snapshot.counter_value("fleet.rounds"), 8.0);
}

TEST(FaultRuns, DeterministicPerSeed) {
  auto cfg = small_config();
  cfg.net.link_faults.loss_probability = 0.2;
  cfg.fl.overselect = 1;
  auto run = [&] {
    sim::FeiSystem system(cfg);
    auto r = system.run();
    EXPECT_TRUE(r.ok());
    return std::move(r).value();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.training.final_params, b.training.final_params);
  EXPECT_EQ(a.total_retries, b.total_retries);
  EXPECT_EQ(a.total_aborted_updates, b.total_aborted_updates);
  EXPECT_DOUBLE_EQ(a.ledger.total().value(), b.ledger.total().value());
  EXPECT_DOUBLE_EQ(a.wall_clock.value(), b.wall_clock.value());
}

TEST(FaultRuns, LinkLossChargesRetryEnergyAndStillTrains) {
  auto cfg = small_config();
  cfg.net.link_faults.loss_probability = 0.25;
  sim::FeiSystem system(cfg);
  const auto r = system.run();
  ASSERT_TRUE(r.ok()) << r.error().message;

  EXPECT_GT(r->total_retries, 0u);
  EXPECT_GT(
      r->ledger.category_total(energy::EnergyCategory::kRetry).value(), 0.0);
  // Retransmissions stretch the makespan past the fault-free one.
  EXPECT_GT(r->wall_clock.value(), 0x1.83162202e1b3fp-1);
  // Training still makes progress despite the lossy links.
  EXPECT_LT(r->training.record.last().global_loss,
            r->training.record.round(0).global_loss);
  // Per-round telemetry reaches the record rows.
  std::size_t row_retries = 0;
  for (const auto& row : r->training.record.all()) row_retries += row.retries;
  EXPECT_EQ(row_retries, r->total_retries);
}

TEST(FaultRuns, ExhaustedLinkAbortsTheUpdate) {
  auto cfg = small_config();
  cfg.net.link_faults.loss_probability = 0.55;
  cfg.net.link_faults.max_attempts = 2;
  cfg.fl.overselect = 2;
  sim::FeiSystem system(cfg);
  const auto r = system.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_GT(r->total_aborted_updates, 0u);
  EXPECT_GT(
      r->ledger.category_total(energy::EnergyCategory::kAborted).value(),
      0.0);
  // Over-selection keeps the round populated: K' servers were selected.
  EXPECT_EQ(r->training.record.round(0).clients_selected, 5u);
}

TEST(FaultRuns, RoundDeadlineDropsStragglersAndBoundsTheClock) {
  auto cfg = small_config();
  const double deadline = 0.04;
  cfg.round_deadline = Seconds{deadline};
  sim::FeiSystem system(cfg);
  const auto r = system.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_GT(r->total_straggler_drops, 0u);
  // Each round ends at its deadline at the latest.
  EXPECT_LE(r->wall_clock.value(),
            deadline * static_cast<double>(r->training.rounds_run) + 1e-9);
}

TEST(FaultRuns, CrashesTakeServersOutAndAbortTheirWork) {
  auto cfg = small_config();
  cfg.crashes.mtbf = Seconds{0.15};
  cfg.crashes.mttr = Seconds{0.05};
  sim::FeiSystem system(cfg);
  const auto r = system.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_GT(r->total_crashed_servers, 0u);
  EXPECT_GT(
      r->ledger.category_total(energy::EnergyCategory::kAborted).value(),
      0.0);
}

TEST(FaultRuns, EvalEveryZeroIsRejected) {
  auto cfg = small_config();
  cfg.fl.eval_every = 0;
  sim::FeiSystem system(cfg);
  const auto r = system.run();
  EXPECT_FALSE(r.ok());
}

// The ISSUE's fault demo: 10% link loss plus a mid-run coordinator crash.
// Segment 1 trains with periodic checkpoint autosave and "crashes" after 12
// rounds; segment 2 resumes from the last autosave and still reaches the
// accuracy target.
TEST(FaultRuns, CheckpointAutosaveSurvivesCrashAndReachesTarget) {
  auto cfg = small_config();
  cfg.net.link_faults.loss_probability = 0.10;
  cfg.fl.overselect = 1;
  cfg.fl.checkpoint_every = 5;
  cfg.fl.max_rounds = 12;

  sim::FeiSystem first(cfg);
  const auto seg1 = first.run();
  ASSERT_TRUE(seg1.ok()) << seg1.error().message;
  ASSERT_TRUE(seg1->last_checkpoint.has_value());
  // 12 rounds with autosave every 5 → the last autosave covers round 10.
  EXPECT_EQ(seg1->last_checkpoint->rounds_completed, 10u);

  auto cfg2 = cfg;
  cfg2.fl.max_rounds = 40;
  cfg2.fl.target_accuracy = 0.5;
  sim::FeiSystem second(cfg2);
  second.resume_from(*seg1->last_checkpoint);
  const auto seg2 = second.run();
  ASSERT_TRUE(seg2.ok()) << seg2.error().message;
  EXPECT_TRUE(seg2->training.reached_target);
  // Round numbering continued from the checkpoint.
  EXPECT_EQ(seg2->training.record.round(0).round, 10u);
}

}  // namespace
}  // namespace eefei
