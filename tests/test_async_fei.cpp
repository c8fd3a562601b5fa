#include "sim/async_fei.h"

#include <gtest/gtest.h>

#include <ios>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ml/serialize.h"
#include "net/channel.h"

namespace eefei::sim {
namespace {

AsyncFeiConfig small_async() {
  AsyncFeiConfig cfg;
  cfg.base = prototype_config();
  cfg.base.num_servers = 6;
  cfg.base.samples_per_server = 100;
  cfg.base.test_samples = 300;
  cfg.base.data.image_side = 12;
  cfg.base.model.input_dim = 144;
  cfg.base.sgd.learning_rate = 0.1;
  cfg.base.sgd.decay = 0.998;
  cfg.base.fl.clients_per_round = 3;  // concurrent workers
  cfg.base.fl.local_epochs = 5;
  cfg.base.seed = 51;
  cfg.max_updates = 120;
  cfg.eval_every = 10;
  return cfg;
}

// Jittered phases, so the stop lands inside the other workers' phases (in
// lockstep they are re-dispatched at the stop instant itself).
AsyncFeiConfig jittered_async() {
  auto cfg = small_async();
  cfg.base.timing_jitter = 0.05;
  return cfg;
}

TEST(AsyncFei, RunsAndLearns) {
  AsyncFeiSystem system(small_async());
  const auto r = system.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r->updates_applied, 120u);
  EXPECT_EQ(r->updates.size(), 120u);
  EXPECT_GT(r->final_accuracy, 0.55);
  EXPECT_GT(r->wall_clock.value(), 0.0);
}

// Pinned output: ledger total and final accuracy as hexfloats, for the
// default run and for one with a lossy LAN and persistent stragglers (so
// the per-server channel streams and the straggler draws are consumed).
// Recorded with the stop booking only work that ran before it, and with
// the engine's jitter and straggler streams, drawn at event time.
void expect_async_pinned(const AsyncFeiConfig& cfg, double ledger_total,
                         double final_accuracy) {
  AsyncFeiSystem system(cfg);
  const auto r = system.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r->ledger.total().value(), ledger_total)
      << std::hexfloat << r->ledger.total().value();
  EXPECT_EQ(r->final_accuracy, final_accuracy)
      << std::hexfloat << r->final_accuracy;
}

constexpr double kSmallLedgerTotal = 0x1.841d3ef050b09p+4;
constexpr double kSmallFinalAccuracy = 0x1.2740da740da74p-1;

TEST(AsyncFei, SmallRunMatchesGolden) {
  expect_async_pinned(small_async(), kSmallLedgerTotal, kSmallFinalAccuracy);
}

TEST(AsyncFei, LossyLanStragglersMatchGolden) {
  auto cfg = small_async();
  cfg.base.net.lan.loss_probability = 0.2;
  cfg.base.timing_jitter = 0.05;
  cfg.base.straggler_fraction = 0.5;
  cfg.base.straggler_persistent = true;
  expect_async_pinned(cfg, 0x1.23e1f2fdf5ff1p+5, 0x1.2c5f92c5f92c6p-1);
}

// One AsyncFeiSystem run twice: the second run() reproduces the pins and
// the first run's update series, so no run state survives into the next.
TEST(AsyncFei, RerunMatchesGolden) {
  AsyncFeiSystem system(small_async());
  const auto first = system.run();
  const auto second = system.run();
  ASSERT_TRUE(first.ok()) << first.error().message;
  ASSERT_TRUE(second.ok()) << second.error().message;
  for (const auto* r : {&*first, &*second}) {
    EXPECT_EQ(r->ledger.total().value(), kSmallLedgerTotal);
    EXPECT_EQ(r->final_accuracy, kSmallFinalAccuracy);
  }
  EXPECT_EQ(first->wall_clock.value(), second->wall_clock.value());
  EXPECT_EQ(first->cancelled_tasks, second->cancelled_tasks);
  ASSERT_EQ(first->updates.size(), second->updates.size());
  for (std::size_t u = 0; u < first->updates.size(); ++u) {
    const auto& a = first->updates[u];
    const auto& b = second->updates[u];
    EXPECT_EQ(a.server, b.server) << "update " << u;
    EXPECT_EQ(a.staleness, b.staleness) << "update " << u;
    EXPECT_EQ(a.applied_at.value(), b.applied_at.value()) << "update " << u;
    EXPECT_EQ(a.test_accuracy, b.test_accuracy) << "update " << u;
  }
}

TEST(AsyncFei, StopsAtTarget) {
  auto cfg = small_async();
  cfg.base.fl.target_accuracy = 0.5;
  cfg.max_updates = 2000;
  AsyncFeiSystem system(cfg);
  const auto r = system.run();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->reached_target);
  EXPECT_LT(r->updates_applied, 2000u);
  EXPECT_TRUE(r->updates_to_accuracy(0.5).has_value());
}

TEST(AsyncFei, StalenessIsBounded) {
  const auto cfg = small_async();
  AsyncFeiSystem system(cfg);
  const auto r = system.run();
  ASSERT_TRUE(r.ok());
  for (const auto& u : r->updates) {
    // Staleness can never exceed the worker count − 1 (only concurrent
    // peers can bump the version while one trains) — here 3 workers.
    EXPECT_LE(u.staleness, 2u) << "update " << u.update;
    EXPECT_GT(u.mixing_weight, 0.0);
    EXPECT_LE(u.mixing_weight, 0.4 + 1e-12);
  }
}

TEST(AsyncFei, StalenessDiscountsMixingWeight) {
  auto cfg = small_async();
  cfg.staleness_exponent = 1.0;
  AsyncFeiSystem system(cfg);
  const auto r = system.run();
  ASSERT_TRUE(r.ok());
  for (const auto& u : r->updates) {
    const double expected =
        cfg.mixing_alpha /
        (1.0 + static_cast<double>(u.staleness));
    EXPECT_NEAR(u.mixing_weight, expected, 1e-12);
  }
}

TEST(AsyncFei, NoWaitingEnergy) {
  // The async protocol's selling point: servers never idle at a barrier.
  AsyncFeiSystem system(small_async());
  const auto r = system.run();
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(
      r->ledger.category_total(energy::EnergyCategory::kWaiting).value(),
      0.0);
  EXPECT_GT(
      r->ledger.category_total(energy::EnergyCategory::kTraining).value(),
      0.0);
}

TEST(AsyncFei, Deterministic) {
  AsyncFeiSystem a(small_async()), b(small_async());
  const auto ra = a.run();
  const auto rb = b.run();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_DOUBLE_EQ(ra->final_loss, rb->final_loss);
  EXPECT_DOUBLE_EQ(ra->wall_clock.value(), rb->wall_clock.value());
}

TEST(AsyncFei, UsesMultipleServers) {
  AsyncFeiSystem system(small_async());
  const auto r = system.run();
  ASSERT_TRUE(r.ok());
  std::set<std::size_t> servers;
  for (const auto& u : r->updates) servers.insert(u.server);
  EXPECT_GE(servers.size(), 3u);
}

TEST(AsyncFei, StragglersHurtLessThanSync) {
  // With persistently slow hardware on half the fleet and a
  // training-dominated round, the async makespan to the same number of
  // aggregate updates degrades less than the synchronous round-barrier
  // system's: the barrier stalls every round that contains one slow
  // server, while async lets fast servers keep contributing.
  auto make_async = [](bool slow) {
    auto cfg = small_async();
    cfg.base.fl.local_epochs = 40;  // training-dominated
    cfg.max_updates = 60;
    if (slow) {
      cfg.base.straggler_fraction = 0.5;
      cfg.base.straggler_slowdown = 10.0;
      cfg.base.straggler_persistent = true;
    }
    return cfg;
  };
  AsyncFeiSystem async_fast(make_async(false)), async_slow(make_async(true));

  auto make_sync = [](bool slow) {
    auto cfg = small_async().base;
    cfg.fl.local_epochs = 40;
    cfg.fl.max_rounds = 20;  // 20 rounds × 3 servers = 60 updates
    if (slow) {
      cfg.straggler_fraction = 0.5;
      cfg.straggler_slowdown = 10.0;
      cfg.straggler_persistent = true;
    }
    return cfg;
  };
  FeiSystem sync_fast(make_sync(false)), sync_slow(make_sync(true));

  const auto af = async_fast.run();
  const auto as = async_slow.run();
  const auto sf = sync_fast.run();
  const auto ss = sync_slow.run();
  ASSERT_TRUE(af.ok() && as.ok() && sf.ok() && ss.ok());

  const double async_degradation =
      as->wall_clock.value() / af->wall_clock.value();
  const double sync_degradation =
      ss->wall_clock.value() / sf->wall_clock.value();
  EXPECT_LT(async_degradation, sync_degradation)
      << "async should absorb stragglers better than the round barrier";
}

// Regression: after the stop, the queue used to keep draining cancelled
// completions, so wall_clock reported the finish time of a task that never
// applied — not the stopping update.  The makespan must be the time the
// last APPLIED update landed.
TEST(AsyncFei, WallClockStopsAtTheLastAppliedUpdate) {
  AsyncFeiSystem system(small_async());
  const auto r = system.run();
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->updates.empty());
  EXPECT_DOUBLE_EQ(r->wall_clock.value(),
                   r->updates.back().applied_at.value());
  for (const auto& u : r->updates) {
    EXPECT_LE(u.applied_at.value(), r->wall_clock.value());
  }
}

// Tasks still in flight when the run stops never complete: the part of
// their running phase before the stop is lost work, booked as kAborted.
TEST(AsyncFei, CancelledInFlightEnergyIsReclassifiedAsAborted) {
  AsyncFeiSystem system(jittered_async());
  const auto r = system.run();
  ASSERT_TRUE(r.ok());
  // 3 workers: when the 120th update stops the run, the other 2 workers'
  // tasks are mid-flight and get cancelled.
  EXPECT_EQ(r->cancelled_tasks, 2u);
  EXPECT_GT(
      r->ledger.category_total(energy::EnergyCategory::kAborted).value(),
      0.0);
}

// The stop books only work that ran before it.  In lockstep the 118th and
// 119th updates re-dispatch their servers at the stop instant, so those
// tasks ran 0 s: nothing is aborted, and the ledger is exactly the 120
// applied tasks' nominal energy.  Jittered, a server's aborted energy is
// bounded by training power over the time since it was last dispatched.
TEST(AsyncFei, StopBooksOnlyWorkBeforeTheStop) {
  const auto cfg = small_async();
  const auto r = AsyncFeiSystem(cfg).run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r->cancelled_tasks, 2u);
  EXPECT_EQ(
      r->ledger.category_total(energy::EnergyCategory::kAborted).value(),
      0.0);
  const FeiSystemConfig& base = cfg.base;
  net::Message msg;
  msg.payload_bytes = ml::wire_size(base.model.parameter_count());
  // The upload is the download's size, so it takes the same d.
  const Seconds d =
      net::WifiLan(base.net.lan, Rng(0)).nominal_duration(msg.wire_bytes());
  const Seconds train =
      base.timing.duration(base.fl.local_epochs, base.samples_per_server);
  const auto& p = base.profile;
  const Joules task = p.power(energy::EdgeState::kDownloading) * d +
                      p.power(energy::EdgeState::kTraining) * train +
                      p.power(energy::EdgeState::kUploading) * d;
  EXPECT_NEAR(r->ledger.total().value(), 120.0 * task.value(), 1e-9);

  const auto j = AsyncFeiSystem(jittered_async()).run();
  ASSERT_TRUE(j.ok()) << j.error().message;
  std::vector<double> last_applied(base.num_servers, 0.0);
  for (const auto& u : j->updates) {
    last_applied[u.server] = u.applied_at.value();
  }
  const double p_train = p.power(energy::EdgeState::kTraining).value();
  for (std::size_t s = 0; s < base.num_servers; ++s) {
    EXPECT_LE(j->ledger.entry(s, energy::EnergyCategory::kAborted).value(),
              p_train * (j->wall_clock.value() - last_applied[s]))
        << "server " << s;
  }
}

TEST(AsyncFei, EvalEveryZeroIsRejected) {
  auto cfg = small_async();
  cfg.eval_every = 0;
  EXPECT_FALSE(AsyncFeiSystem(cfg).run().ok());
}

TEST(AsyncFei, InvalidConfigRejected) {
  auto cfg = small_async();
  cfg.mixing_alpha = 0.0;
  EXPECT_FALSE(AsyncFeiSystem(cfg).run().ok());
  auto cfg2 = small_async();
  cfg2.mixing_alpha = 1.5;
  EXPECT_FALSE(AsyncFeiSystem(cfg2).run().ok());
  auto cfg3 = small_async();
  cfg3.base.fl.clients_per_round = 0;
  EXPECT_FALSE(AsyncFeiSystem(cfg3).run().ok());

  // A NaN α poisons ω, a negative or non-finite exponent lets α_s grow
  // past 1 with staleness, and max_updates = 0 would still apply one
  // update.  The error names the field.
  const auto rejected_naming = [](const AsyncFeiConfig& c,
                                  const std::string& field) {
    const auto r = AsyncFeiSystem(c).run();
    ASSERT_FALSE(r.ok()) << field;
    EXPECT_NE(r.error().message.find(field), std::string::npos)
        << r.error().message;
  };
  auto nan_alpha = small_async();
  nan_alpha.mixing_alpha = std::numeric_limits<double>::quiet_NaN();
  rejected_naming(nan_alpha, "mixing_alpha");
  for (const double a : {-0.5, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    auto bad_exponent = small_async();
    bad_exponent.staleness_exponent = a;
    rejected_naming(bad_exponent, "staleness_exponent");
  }
  auto no_updates = small_async();
  no_updates.max_updates = 0;
  rejected_naming(no_updates, "max_updates");

  // System knobs the async protocol does not model are rejected, not
  // silently ignored.
  using Knob = void (*)(FeiSystemConfig&);
  const std::pair<const char*, Knob> unsupported[] = {
      {"upload_quant_bits", [](FeiSystemConfig& b) { b.upload_quant_bits = 8; }},
      {"update_drop_probability",
       [](FeiSystemConfig& b) { b.update_drop_probability = 0.1; }},
      {"round_deadline",
       [](FeiSystemConfig& b) { b.round_deadline = Seconds{1.0}; }},
      {"crashes", [](FeiSystemConfig& b) { b.crashes.mtbf = Seconds{60.0}; }},
      {"net.link_faults",
       [](FeiSystemConfig& b) { b.net.link_faults.loss_probability = 0.1; }},
      {"iot_collection", [](FeiSystemConfig& b) { b.iot_collection = true; }},
      {"charge_idle_servers",
       [](FeiSystemConfig& b) { b.charge_idle_servers = true; }},
      {"fl.overselect", [](FeiSystemConfig& b) { b.fl.overselect = 1; }},
      {"fl.checkpoint_every",
       [](FeiSystemConfig& b) { b.fl.checkpoint_every = 5; }},
  };
  for (const auto& [field, set] : unsupported) {
    auto c = small_async();
    set(c.base);
    rejected_naming(c, field);
  }
  // The engine's own timing checks cover the async run too.
  auto nan_jitter = small_async();
  nan_jitter.base.timing_jitter = std::numeric_limits<double>::quiet_NaN();
  rejected_naming(nan_jitter, "timing_jitter");
}

}  // namespace
}  // namespace eefei::sim
