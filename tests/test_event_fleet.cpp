// Fleet engine: golden byte-identity against the pre-fleet FeiSystem
// fingerprint, the FeiSystem preset's per-config pins, checkpoint autosave
// and resume, pinned fingerprints for the jittered N = 1k and fault paths, thread-count invariance on every path, the virtual-population
// contract, tier latency semantics, multi-hop backhaul, telemetry, and
// config validation.
#include "sim/event_fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ios>
#include <limits>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ml/serialize.h"
#include "obs/telemetry.h"
#include "sim/fei_system.h"

namespace eefei::sim {
namespace {

// The exact configuration whose FeiSystem output was fingerprinted before
// the fleet engine existed (threads ∈ {1, 4} produced identical bits).
// Hexfloat reference values: comparisons are bit-exact.  If these move,
// the simulation's physics changed — a regression, not a tolerance issue.
FeiSystemConfig golden_config() {
  FeiSystemConfig cfg = prototype_config();
  cfg.samples_per_server = 120;
  cfg.test_samples = 400;
  cfg.fl.clients_per_round = 10;
  cfg.fl.local_epochs = 5;
  cfg.fl.max_rounds = 8;
  cfg.fl.eval_every = 2;
  cfg.fl.target_accuracy = 2.0;  // unreachable: always runs all 8 rounds
  cfg.fl.threads = 4;
  cfg.seed = 3;
  return cfg;
}

constexpr double kGoldenLedgerTotal = 0x1.fe8f44bc615ffp+7;
constexpr double kGoldenModeledTotal = 0x1.1c7bb34044fadp+5;
constexpr double kGoldenCategory[7] = {
    0x0p+0,                // data collection (off)
    0x1.8354ace0ea07bp+7,  // waiting
    0x1.a0dd585b30ce1p+4,  // download
    0x1.44ca946be5dfep+2,  // training
    0x1.e7c4c165907dbp+4,  // upload
    0x0p+0,                // retry (faults off)
    0x0p+0,                // aborted (faults off)
};
constexpr double kGoldenWallClock = 0x1.850c37394590cp+3;
constexpr double kGoldenTimelineSum = 0x1.bcf4fb069b7bcp+9;
constexpr double kGoldenFinalAccuracy = 0x1.170a3d70a3d71p-1;
constexpr double kGoldenFinalLoss = 0x1.082c5a9bb4488p+1;
// Event-queue shape of the golden config on the shared-FCFS tiered (fan-ins
// 4 and 2) and flat topologies: one event per phase completion and tier
// completion, so any change to the event taxonomy that is not one event for
// one event moves these.
constexpr std::size_t kGoldenTieredEvents = 310;
constexpr std::size_t kGoldenTieredQueueHighWater = 20;
constexpr std::size_t kGoldenFlatEvents = 264;
constexpr std::size_t kGoldenFlatQueueHighWater = 20;

void expect_golden(const EventFleetRunResult& r) {
  EXPECT_EQ(r.training.rounds_run, 8u);
  EXPECT_EQ(r.ledger.total().value(), kGoldenLedgerTotal);
  EXPECT_EQ(r.ledger.modeled_total().value(), kGoldenModeledTotal);
  for (std::size_t c = 0; c < energy::kNumEnergyCategories; ++c) {
    EXPECT_EQ(r.ledger.category_total(static_cast<energy::EnergyCategory>(c))
                  .value(),
              kGoldenCategory[c])
        << "category " << c;
  }
  EXPECT_EQ(r.wall_clock.value(), kGoldenWallClock);
  EXPECT_EQ(r.accumulated_energy().value(), kGoldenTimelineSum);
  EXPECT_EQ(r.training.record.last().test_accuracy, kGoldenFinalAccuracy);
  EXPECT_EQ(r.training.record.last().global_loss, kGoldenFinalLoss);
}

std::uint32_t crc_of(std::span<const double> values) {
  return ml::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(values.data()),
      values.size_bytes()));
}

// A run's fingerprint beyond the headline totals: the fault counters, a CRC
// over every server's (ledger total, accumulator total) pair in server
// order, and a CRC over the final model parameters.
struct PinnedRun {
  double ledger_total = 0.0;
  double wall_clock = 0.0;
  std::size_t retries = 0;
  std::size_t aborted_updates = 0;
  std::size_t straggler_drops = 0;
  std::size_t crashed_servers = 0;
  std::uint32_t per_server_crc = 0;
  std::uint32_t params_crc = 0;
  std::size_t events_processed = 0;
  std::size_t queue_high_water = 0;
};

void expect_pinned(const EventFleetRunResult& r, std::size_t n_servers,
                   const PinnedRun& pin) {
  EXPECT_EQ(r.ledger.total().value(), pin.ledger_total);
  EXPECT_EQ(r.wall_clock.value(), pin.wall_clock);
  EXPECT_EQ(r.total_retries, pin.retries);
  EXPECT_EQ(r.total_aborted_updates, pin.aborted_updates);
  EXPECT_EQ(r.total_straggler_drops, pin.straggler_drops);
  EXPECT_EQ(r.total_crashed_servers, pin.crashed_servers);
  ASSERT_EQ(r.accumulators.size(), n_servers);
  std::vector<double> per_server;
  per_server.reserve(2 * n_servers);
  for (std::size_t sid = 0; sid < n_servers; ++sid) {
    per_server.push_back(r.ledger.server_total(sid).value());
    per_server.push_back(r.accumulators[sid].total_energy().value());
  }
  EXPECT_EQ(crc_of(per_server), pin.per_server_crc);
  EXPECT_EQ(crc_of(r.training.final_params), pin.params_crc);
  EXPECT_EQ(r.events_processed, pin.events_processed);
  EXPECT_EQ(r.queue_high_water, pin.queue_high_water);
}

void expect_bitwise_equal(const EventFleetRunResult& a,
                          const EventFleetRunResult& b,
                          std::size_t n_servers) {
  EXPECT_EQ(a.ledger.total().value(), b.ledger.total().value());
  EXPECT_EQ(a.wall_clock.value(), b.wall_clock.value());
  EXPECT_EQ(a.training.final_params, b.training.final_params);
  EXPECT_EQ(a.total_retries, b.total_retries);
  EXPECT_EQ(a.total_aborted_updates, b.total_aborted_updates);
  EXPECT_EQ(a.total_straggler_drops, b.total_straggler_drops);
  EXPECT_EQ(a.total_crashed_servers, b.total_crashed_servers);
  ASSERT_EQ(a.accumulators.size(), n_servers);
  ASSERT_EQ(b.accumulators.size(), n_servers);
  for (std::size_t sid = 0; sid < n_servers; ++sid) {
    EXPECT_EQ(a.ledger.server_total(sid).value(),
              b.ledger.server_total(sid).value())
        << "server " << sid;
    EXPECT_EQ(a.accumulators[sid].total_energy().value(),
              b.accumulators[sid].total_energy().value())
        << "server " << sid;
  }
}

// One prepared engine run twice: the second run() must reproduce the first
// bit for bit, and both the pins, so no run state survives into the next
// run (fleetbench reuses one prepared engine across ops).
template <class Pins>
void expect_rerun_golden(const EventFleetEngineConfig& cfg, Pins pins) {
  EventFleetEngine engine(cfg);
  ASSERT_TRUE(engine.prepare().ok());
  const auto first = engine.run();
  const auto second = engine.run();
  ASSERT_TRUE(first.ok()) << first.error().message;
  ASSERT_TRUE(second.ok()) << second.error().message;
  pins(*first);
  pins(*second);
  expect_bitwise_equal(*first, *second, cfg.system.num_servers);
  EXPECT_EQ(first->events_processed, second->events_processed);
  EXPECT_EQ(first->queue_high_water, second->queue_high_water);
  EXPECT_EQ(first->link_messages, second->link_messages);
}

// Several gateways and regions (N = 20, fan-ins 4 and 2): the tier
// completion chain runs for real, and with zero latencies it must not move
// the clock by a single bit.
EventFleetEngineConfig shared_fcfs_golden_config() {
  EventFleetEngineConfig cfg;
  cfg.system = golden_config();
  cfg.sampled_timelines = 20;
  cfg.tiers.gateway_fanin = 4;
  cfg.tiers.region_fanin = 2;
  return cfg;
}

TEST(EventFleetEngine, MatchesGoldenFingerprint) {
  EventFleetEngine engine(shared_fcfs_golden_config());
  const auto r = engine.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_golden(*r);
  EXPECT_EQ(r->num_gateways, 5u);
  EXPECT_EQ(r->num_regions, 3u);
  // Every selected server contributes download-done, epoch-done and
  // upload-done; tier completions come on top.
  EXPECT_GE(r->events_processed, 3u * 10u * 8u);
  EXPECT_EQ(r->events_processed, kGoldenTieredEvents);
  EXPECT_EQ(r->queue_high_water, kGoldenTieredQueueHighWater);

  // Every sampled timeline agrees with its streaming accumulator to the
  // last bit.
  ASSERT_EQ(r->sampled_timelines.size(), 20u);
  for (std::size_t i = 0; i < r->sampled_servers.size(); ++i) {
    const std::size_t sid = r->sampled_servers[i];
    EXPECT_EQ(r->sampled_timelines[i].total_energy().value(),
              r->accumulators[sid].total_energy().value());
    EXPECT_EQ(r->sampled_timelines[i].total_duration().value(),
              r->accumulators[sid].total_duration().value());
  }
}

TEST(EventFleetEngine, RerunMatchesGoldenFingerprint) {
  expect_rerun_golden(shared_fcfs_golden_config(),
                      [](const EventFleetRunResult& r) {
                        expect_golden(r);
                        EXPECT_EQ(r.events_processed, kGoldenTieredEvents);
                        EXPECT_EQ(r.queue_high_water,
                                  kGoldenTieredQueueHighWater);
                      });
}

// The flat topology (no gateway or region tiers) on the same config, the
// shape the pre-event fleet engine ran: the root aggregates every upload
// directly and the fingerprint must not move.
TEST(EventFleetEngine, FlatTopologyMatchesGoldenFingerprint) {
  EventFleetEngineConfig cfg;
  cfg.system = golden_config();
  cfg.sampled_timelines = 20;
  EventFleetEngine engine(cfg);
  const auto r = engine.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_golden(*r);
  EXPECT_EQ(r->events_processed, kGoldenFlatEvents);
  EXPECT_EQ(r->queue_high_water, kGoldenFlatQueueHighWater);

  ASSERT_EQ(r->sampled_timelines.size(), 20u);
  for (std::size_t i = 0; i < r->sampled_servers.size(); ++i) {
    const std::size_t sid = r->sampled_servers[i];
    EXPECT_EQ(r->sampled_timelines[i].total_energy().value(),
              r->accumulators[sid].total_energy().value());
    EXPECT_EQ(r->sampled_timelines[i].total_duration().value(),
              r->accumulators[sid].total_duration().value());
  }
}

// A serial run split into many small shards still reproduces the golden
// constants: sharding only splits work.
TEST(EventFleetEngine, ThreadCountInvariant) {
  EventFleetEngineConfig serial = shared_fcfs_golden_config();
  serial.system.fl.threads = 1;
  serial.shard_size = 3;  // force many shards even at N = 20
  EventFleetEngine engine(serial);
  const auto r = engine.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_golden(*r);
}

// Checkpoint autosave and resume on the engine itself.  Every server joins
// every round (K = N, so selection draws cannot differ between segments)
// and the links are lossy: the fault streams are keyed by round number, so
// a segment resumed at round 3 vetoes exactly the updates the continuous
// run vetoed and lands on the same parameters.
TEST(EventFleetEngine, CheckpointAutosaveAndResume) {
  EventFleetEngineConfig cfg;
  cfg.system = golden_config();
  cfg.system.fl.clients_per_round = 20;
  cfg.system.fl.max_rounds = 7;
  cfg.system.fl.checkpoint_every = 3;
  cfg.system.net.link_faults.loss_probability = 0.3;
  cfg.system.net.link_faults.max_attempts = 2;

  EventFleetEngine continuous(cfg);
  const auto full = continuous.run();
  ASSERT_TRUE(full.ok()) << full.error().message;
  ASSERT_TRUE(full->last_checkpoint.has_value());
  EXPECT_EQ(full->last_checkpoint->rounds_completed, 6u);
  EXPECT_GT(full->total_aborted_updates, 0u);

  EventFleetEngineConfig first_cfg = cfg;
  first_cfg.system.fl.max_rounds = 4;
  EventFleetEngine first(first_cfg);
  const auto seg1 = first.run();
  ASSERT_TRUE(seg1.ok()) << seg1.error().message;
  ASSERT_TRUE(seg1->last_checkpoint.has_value());
  EXPECT_EQ(seg1->last_checkpoint->rounds_completed, 3u);

  EventFleetEngine second(first_cfg);
  second.resume_from(*seg1->last_checkpoint);
  const auto seg2 = second.run();
  ASSERT_TRUE(seg2.ok()) << seg2.error().message;
  EXPECT_EQ(seg2->training.record.round(0).round, 3u);
  EXPECT_EQ(seg2->training.record.last().round, 6u);
  ASSERT_TRUE(seg2->last_checkpoint.has_value());
  EXPECT_EQ(seg2->last_checkpoint->rounds_completed, 6u);
  EXPECT_EQ(seg2->training.final_params, full->training.final_params);

  // No autosave without checkpoint_every.
  EventFleetEngineConfig off = first_cfg;
  off.system.fl.checkpoint_every = 0;
  EventFleetEngine plain(off);
  const auto r = plain.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_FALSE(r->last_checkpoint.has_value());
}

TEST(EventFleetEngine, DataPoolingRunsAndFullPoolIsIdentity) {
  FeiSystemConfig sys = golden_config();
  sys.num_servers = 24;
  sys.net.num_edge_servers = 24;
  sys.fl.max_rounds = 3;

  // P >= N must be byte-identical to the unpooled population.
  EventFleetEngineConfig full;
  full.system = sys;
  EventFleetEngineConfig pooled_full = full;
  pooled_full.data_pool_shards = 24;
  EventFleetEngine ea(full);
  EventFleetEngine eb(pooled_full);
  const auto ra = ea.run();
  const auto rb = eb.run();
  ASSERT_TRUE(ra.ok()) << ra.error().message;
  ASSERT_TRUE(rb.ok()) << rb.error().message;
  EXPECT_EQ(ra->ledger.total().value(), rb->ledger.total().value());
  EXPECT_EQ(ra->training.final_params, rb->training.final_params);

  // P < N shares shards round-robin but still trains and accounts energy
  // for every distinct server.
  EventFleetEngineConfig pooled;
  pooled.system = sys;
  pooled.data_pool_shards = 6;
  EventFleetEngine ec(pooled);
  const auto rc = ec.run();
  ASSERT_TRUE(rc.ok()) << rc.error().message;
  EXPECT_EQ(rc->accumulators.size(), 24u);
  EXPECT_GT(rc->ledger.total().value(), 0.0);
  EXPECT_EQ(rc->training.rounds_run, 3u);
}

// Data another live engine rendered gives the same bits as data an engine
// renders alone in a fresh process: the shared block is the same bytes.
TEST(Population, SharedDataRunMatchesGoldenFingerprint) {
  FeiSystemConfig holder_cfg = golden_config();
  holder_cfg.fl.local_epochs = 1;  // not part of the data recipe
  FeiSystem holder(holder_cfg);
  ASSERT_TRUE(holder.prepare().ok());

  EventFleetEngineConfig cfg;
  cfg.system = golden_config();
  cfg.sampled_timelines = 20;
  cfg.tiers.gateway_fanin = 4;
  cfg.tiers.region_fanin = 2;
  EventFleetEngine engine(cfg);
  ASSERT_TRUE(engine.prepare().ok());
  ASSERT_EQ(&engine.population().test_set(), &holder.test_set());
  const auto r = engine.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_golden(*r);

  FeiSystem reference(golden_config());
  const auto ref = reference.run();
  ASSERT_TRUE(ref.ok()) << ref.error().message;
  ASSERT_EQ(&reference.test_set(), &holder.test_set());
  EXPECT_EQ(ref->ledger.total().value(), kGoldenLedgerTotal);
  EXPECT_EQ(ref->wall_clock.value(), kGoldenWallClock);
  EXPECT_EQ(ref->training.final_params, r->training.final_params);
}

// N = 1k with timing jitter and transient stragglers on, so the RNG
// streams are consumed for real.  Pinned to the output of the former
// round-synchronous engine (a sorted upload drain), which the event order
// reproduced bit for bit.
FeiSystemConfig jittered_n1k_config() {
  FeiSystemConfig sys = prototype_config();
  sys.num_servers = 1000;
  sys.net.num_edge_servers = 1000;
  sys.samples_per_server = 30;
  sys.test_samples = 200;
  sys.data.image_side = 12;
  sys.model.input_dim = 144;
  sys.sgd.learning_rate = 0.1;
  sys.fl.clients_per_round = 20;
  sys.fl.local_epochs = 2;
  sys.fl.max_rounds = 4;
  sys.fl.eval_every = 2;
  sys.fl.threads = 4;
  sys.timing_jitter = 0.05;
  sys.straggler_fraction = 0.2;
  sys.straggler_slowdown = 3.0;
  sys.charge_idle_servers = true;
  sys.seed = 17;
  return sys;
}

TEST(EventFleetEngine, JitteredStragglersAtN1kMatchGolden) {
  EventFleetEngineConfig cfg;
  cfg.system = jittered_n1k_config();
  cfg.data_pool_shards = 50;
  cfg.tiers.gateway_fanin = 32;
  cfg.tiers.region_fanin = 8;
  EventFleetEngine engine(cfg);
  const auto r = engine.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_pinned(*r, 1000,
                {.ledger_total = 0x1.19a4f5c42b42ep+13,
                 .wall_clock = 0x1.43676087293afp+1,
                 .per_server_crc = 0x5634c1ccu,
                 .params_crc = 0x39e61b94u,
                 .events_processed = 321,
                 .queue_high_water = 40});
}

// A pooled 200-server fleet with jitter; materialized unless the caller
// turns virtual_population on.
EventFleetEngineConfig pooled_fleet_config() {
  EventFleetEngineConfig cfg;
  FeiSystemConfig& sys = cfg.system;
  sys = prototype_config();
  sys.num_servers = 200;
  sys.net.num_edge_servers = 200;
  sys.samples_per_server = 40;
  sys.test_samples = 200;
  sys.data.image_side = 12;
  sys.model.input_dim = 144;
  sys.sgd.learning_rate = 0.1;
  sys.fl.clients_per_round = 12;
  sys.fl.local_epochs = 2;
  sys.fl.max_rounds = 3;
  sys.fl.threads = 4;
  sys.timing_jitter = 0.1;
  sys.charge_idle_servers = true;
  sys.seed = 5;
  cfg.data_pool_shards = 16;
  return cfg;
}

EventFleetEngineConfig virtual_population_config() {
  EventFleetEngineConfig cfg = pooled_fleet_config();
  cfg.virtual_population = true;
  return cfg;
}

TEST(EventFleetEngine, VirtualPopulationMatchesMaterialized) {
  const EventFleetEngineConfig mat = pooled_fleet_config();
  const EventFleetEngineConfig virt = virtual_population_config();

  EventFleetEngine ea(mat);
  EventFleetEngine eb(virt);
  const auto ra = ea.run();
  const auto rb = eb.run();
  ASSERT_TRUE(ra.ok()) << ra.error().message;
  ASSERT_TRUE(rb.ok()) << rb.error().message;
  expect_bitwise_equal(*ra, *rb, 200);
  EXPECT_EQ(ra->events_processed, rb->events_processed);
}

// FeiSystem is the engine's N-timeline preset.  Its output is pinned per
// config: the ledger total and wall clock as hexfloats, a CRC over every
// server's (seven ledger cells, timeline energy, timeline interval count)
// in server order, and a CRC over the final parameters.  The values were
// recorded from the standalone FeiSystem round simulation the preset
// replaced, so each pin also proves the preset books what it booked.
struct FeiPin {
  double ledger_total = 0.0;
  double wall_clock = 0.0;
  std::uint32_t per_server_crc = 0;
  std::uint32_t params_crc = 0;
};

void expect_fei_pinned(const FeiRunResult& r, const FeiPin& pin) {
  EXPECT_EQ(r.ledger.total().value(), pin.ledger_total)
      << std::hexfloat << r.ledger.total().value();
  EXPECT_EQ(r.wall_clock.value(), pin.wall_clock)
      << std::hexfloat << r.wall_clock.value();
  const std::size_t n = r.ledger.num_servers();
  ASSERT_EQ(r.timelines.size(), n);
  std::vector<double> per_server;
  per_server.reserve(n * (energy::kNumEnergyCategories + 2));
  for (std::size_t sid = 0; sid < n; ++sid) {
    for (std::size_t c = 0; c < energy::kNumEnergyCategories; ++c) {
      per_server.push_back(
          r.ledger.entry(sid, static_cast<energy::EnergyCategory>(c))
              .value());
    }
    per_server.push_back(r.timelines[sid].total_energy().value());
    per_server.push_back(
        static_cast<double>(r.timelines[sid].intervals().size()));
  }
  EXPECT_EQ(crc_of(per_server), pin.per_server_crc)
      << std::hex << crc_of(per_server);
  EXPECT_EQ(crc_of(r.training.final_params), pin.params_crc)
      << std::hex << crc_of(r.training.final_params);
}

FeiRunResult run_fei(const FeiSystemConfig& cfg) {
  FeiSystem system(cfg);
  auto r = system.run();
  EXPECT_TRUE(r.ok()) << r.error().message;
  return r.ok() ? std::move(r).value() : FeiRunResult{};
}

TEST(FeiSystem, FcfsMatchesGolden) {
  const FeiRunResult r = run_fei(golden_config());
  EXPECT_EQ(r.ledger.total().value(), kGoldenLedgerTotal);
  EXPECT_EQ(r.wall_clock.value(), kGoldenWallClock);
  expect_fei_pinned(r, {.ledger_total = 0x1.fe8f44bc615ffp+7,
                        .wall_clock = 0x1.850c37394590cp+3,
                        .per_server_crc = 0xac1ba856u,
                        .params_crc = 0x5278de24u});
}

// Every fault-free knob at once: IoT collection, idle charging, jitter,
// persistent stragglers, a lossy LAN, 4-bit uploads and update drops.
TEST(FeiSystem, AllKnobsFaultFreeMatchesGolden) {
  FeiSystemConfig cfg = golden_config();
  cfg.iot_collection = true;
  cfg.charge_idle_servers = true;
  cfg.timing_jitter = 0.05;
  cfg.straggler_fraction = 0.25;
  cfg.straggler_persistent = true;
  cfg.net.lan.loss_probability = 0.1;
  cfg.upload_quant_bits = 4;
  cfg.update_drop_probability = 0.1;
  expect_fei_pinned(run_fei(cfg), {.ledger_total = 0x1.cb2877f9f7c3bp+15,
                                   .wall_clock = 0x1.f4e3937d8302p+2,
                                   .per_server_crc = 0x74a18d65u,
                                   .params_crc = 0xa68a1054u});
}

// A 0.6 s deadline against ~1.5 s rounds and crashes every 0.5 s on
// average: deadline drops and crashes decide which updates aggregate.
TEST(FeiSystem, DeadlineAndCrashesMatchGolden) {
  FeiSystemConfig cfg = golden_config();
  cfg.round_deadline = Seconds{0.6};
  cfg.crashes.mtbf = Seconds{0.5};
  cfg.crashes.mttr = Seconds{0.2};
  cfg.fl.overselect = 2;
  const FeiRunResult r = run_fei(cfg);
  EXPECT_GT(r.total_straggler_drops, 0u);
  EXPECT_GT(r.total_crashed_servers, 0u);
  expect_fei_pinned(r, {.ledger_total = 0x1.3706274ab4b32p+6,
                        .wall_clock = 0x1.3333333333333p+2,
                        .per_server_crc = 0x9946a247u,
                        .params_crc = 0x6c6653f3u});
}

// Checkpoint autosave every 2 rounds over 5 rounds, then a 3-round segment
// resumed from the last autosave (after round 4).
TEST(FeiSystem, CheckpointResumeMatchesGolden) {
  FeiSystemConfig cfg = golden_config();
  cfg.fl.checkpoint_every = 2;
  cfg.fl.max_rounds = 5;
  const FeiRunResult first = run_fei(cfg);
  ASSERT_TRUE(first.last_checkpoint.has_value());
  EXPECT_EQ(first.last_checkpoint->rounds_completed, 4u);
  EXPECT_EQ(crc_of(first.last_checkpoint->params), 0x775d0bbeu)
      << std::hex << crc_of(first.last_checkpoint->params);
  expect_fei_pinned(first, {.ledger_total = 0x1.3f198af5bcdaep+7,
                            .wall_clock = 0x1.e64f450796f2dp+2,
                            .per_server_crc = 0xe3382c23u,
                            .params_crc = 0xb3e469fbu});

  cfg.fl.max_rounds = 3;
  FeiSystem second(cfg);
  second.resume_from(*first.last_checkpoint);
  const auto resumed = second.run();
  ASSERT_TRUE(resumed.ok()) << resumed.error().message;
  EXPECT_EQ(resumed->training.record.round(0).round, 4u);
  expect_fei_pinned(*resumed, {.ledger_total = 0x1.7eeb738d4906bp+6,
                               .wall_clock = 0x1.23c9296af42b5p+2,
                               .per_server_crc = 0x3cd8f00eu,
                               .params_crc = 0xc5a97423u});
}

FeiSystemConfig faulty_config() {
  FeiSystemConfig cfg = prototype_config();
  cfg.num_servers = 30;
  cfg.net.num_edge_servers = 30;
  cfg.samples_per_server = 60;
  cfg.test_samples = 200;
  cfg.data.image_side = 12;
  cfg.model.input_dim = 144;
  cfg.sgd.learning_rate = 0.1;
  cfg.fl.clients_per_round = 8;
  cfg.fl.local_epochs = 3;
  cfg.fl.max_rounds = 5;
  cfg.fl.overselect = 2;
  cfg.fl.threads = 4;
  cfg.net.link_faults.loss_probability = 0.2;
  cfg.net.link_faults.max_attempts = 3;
  cfg.round_deadline = Seconds{60.0};
  cfg.crashes.mtbf = Seconds{400.0};
  cfg.crashes.mttr = Seconds{20.0};
  cfg.charge_idle_servers = true;
  cfg.seed = 11;
  return cfg;
}

EventFleetEngineConfig fault_path_config() {
  EventFleetEngineConfig cfg;
  cfg.system = faulty_config();
  cfg.tiers.gateway_fanin = 8;
  return cfg;
}

// Crashes, lossy links and a deadline all fire (the pinned retry and abort
// counts are nonzero) and each failure resolves its aggregation tier
// instead of uploading.
constexpr PinnedRun kFaultPathPin = {.ledger_total = 0x1.80ce4e5484462p+7,
                                     .wall_clock = 0x1.0c12ad81adeadp+1,
                                     .retries = 20,
                                     .aborted_updates = 1,
                                     .per_server_crc = 0x3d04bea6u,
                                     .params_crc = 0x29abaaebu,
                                     .events_processed = 178,
                                     .queue_high_water = 20};

TEST(EventFleetEngine, FaultPathMatchesGolden) {
  EventFleetEngine engine(fault_path_config());
  const auto r = engine.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_pinned(*r, 30, kFaultPathPin);
}

TEST(EventFleetEngine, FaultPathRerunMatchesGolden) {
  expect_rerun_golden(fault_path_config(), [](const EventFleetRunResult& r) {
    expect_pinned(r, 30, kFaultPathPin);
  });
}

// The fault path run serially in small shards reproduces the same pin:
// the per-server fault RNG streams do not depend on who steps them.
TEST(EventFleetEngine, FaultPathThreadInvariant) {
  EventFleetEngineConfig cfg = fault_path_config();
  cfg.system.fl.threads = 1;
  cfg.shard_size = 4;
  EventFleetEngine engine(cfg);
  const auto r = engine.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_pinned(*r, 30, kFaultPathPin);
}

// The fault path with every RNG-consuming timing knob on as well: timing
// jitter, transient stragglers, nonzero tier latencies and a lossy WifiLan.
// Under faults a leg's timing comes from the link-fault plan, so the LAN's
// own loss model must stay unused.
EventFleetEngineConfig fault_jitter_lossy_lan_config() {
  EventFleetEngineConfig cfg = fault_path_config();
  cfg.system.timing_jitter = 0.05;
  cfg.system.straggler_fraction = 0.2;
  cfg.system.net.lan.loss_probability = 0.1;
  cfg.tiers.region_fanin = 2;
  cfg.gateway_latency = Seconds{0.05};
  cfg.region_latency = Seconds{0.1};
  cfg.root_latency = Seconds{0.2};
  return cfg;
}

TEST(EventFleetEngine, FaultPathJitterLossyLanMatchesGolden) {
  EventFleetEngine engine(fault_jitter_lossy_lan_config());
  const auto r = engine.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_pinned(*r, 30,
                {.ledger_total = 0x1.3f769d37bf3bdp+8,
                 .wall_clock = 0x1.ed3dc61632503p+1,
                 .retries = 20,
                 .aborted_updates = 1,
                 .per_server_crc = 0x24bb4703u,
                 .params_crc = 0x29abaaebu,
                 .events_processed = 183,
                 .queue_high_water = 20});
}

// A deadline shorter than most rounds, frequent crashes, slow stragglers and
// a lossy two-attempt link, so every way a member can drop fires: down at
// round start, a dispatch or upload queue past the deadline, a download,
// training or upload cut by the deadline, a lost download or upload, and a
// crash mid-training.
EventFleetEngineConfig tight_deadline_crash_config() {
  EventFleetEngineConfig cfg = fault_jitter_lossy_lan_config();
  cfg.system.round_deadline = Seconds{0.3};
  cfg.system.crashes.mtbf = Seconds{2.0};
  cfg.system.crashes.mttr = Seconds{0.5};
  cfg.system.net.link_faults.loss_probability = 0.5;
  cfg.system.net.link_faults.max_attempts = 2;
  cfg.system.straggler_fraction = 0.3;
  cfg.system.straggler_slowdown = 10.0;
  return cfg;
}

TEST(EventFleetEngine, TightDeadlineAndCrashesMatchGolden) {
  EventFleetEngine engine(tight_deadline_crash_config());
  const auto r = engine.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_pinned(*r, 30,
                {.ledger_total = 0x1.04657f01dc596p+8,
                 .wall_clock = 0x1.ap+1,
                 .retries = 28,
                 .aborted_updates = 9,
                 .straggler_drops = 34,
                 .crashed_servers = 4,
                 .per_server_crc = 0xad5d02cau,
                 .params_crc = 0x732b76abu,
                 .events_processed = 129,
                 .queue_high_water = 18});
}

// The property the single round scan rests on: a deadline that never binds,
// with no link faults and no crashes, routes every leg through the fault
// plan and the scan through the pre-aggregation filter, yet books exactly
// what the fault-free run books.
EventFleetEngineConfig inert_fault_base_config() {
  EventFleetEngineConfig cfg = fault_path_config();
  cfg.system.net.link_faults = net::LinkFaultConfig{};
  cfg.system.crashes = CrashProcessConfig{};
  cfg.system.round_deadline = Seconds{0.0};
  cfg.system.timing_jitter = 0.05;
  cfg.system.straggler_fraction = 0.2;
  cfg.tiers.region_fanin = 2;
  return cfg;
}

void expect_inert_faults_match(const EventFleetEngineConfig& fault_free) {
  EventFleetEngineConfig inert = fault_free;
  inert.system.round_deadline = Seconds{1e9};
  EventFleetEngine ea(fault_free);
  EventFleetEngine eb(inert);
  const auto ra = ea.run();
  const auto rb = eb.run();
  ASSERT_TRUE(ra.ok()) << ra.error().message;
  ASSERT_TRUE(rb.ok()) << rb.error().message;
  const std::size_t n = fault_free.system.num_servers;
  expect_bitwise_equal(*ra, *rb, n);
  for (std::size_t c = 0; c < energy::kNumEnergyCategories; ++c) {
    const auto cat = static_cast<energy::EnergyCategory>(c);
    EXPECT_EQ(ra->ledger.category_total(cat).value(),
              rb->ledger.category_total(cat).value())
        << energy::to_string(cat);
    for (std::size_t sid = 0; sid < n; ++sid) {
      EXPECT_EQ(ra->ledger.entry(sid, cat).value(),
                rb->ledger.entry(sid, cat).value())
          << energy::to_string(cat) << " server " << sid;
    }
  }
  EXPECT_EQ(ra->events_processed, rb->events_processed);
}

TEST(EventFleetEngine, InertFaultConfigMatchesFaultFree) {
  EventFleetEngineConfig cfg = inert_fault_base_config();
  {
    SCOPED_TRACE("zero tier latencies");
    expect_inert_faults_match(cfg);
  }
  cfg.gateway_latency = Seconds{0.3};
  cfg.region_latency = Seconds{0.3};
  cfg.root_latency = Seconds{0.3};
  {
    SCOPED_TRACE("0.3 s tier latencies");
    expect_inert_faults_match(cfg);
  }
  // IoT collection with uplink collisions: the retransmitted share books
  // as kRetry on both paths.
  cfg.system.iot_collection = true;
  cfg.system.net.device.uplink.collision_probability = 0.3;
  SCOPED_TRACE("IoT collection with collisions");
  expect_inert_faults_match(cfg);
}

// The round table's `aggregated` column is what the coordinator actually
// averaged: link losses and deadline drops first, then the coordinator's
// own update drop roll.
TEST(EventFleetEngine, AggregatedColumnMatchesRecordUnderUpdateDrops) {
  EventFleetEngineConfig cfg = fault_path_config();
  cfg.system.update_drop_probability = 0.3;
  obs::Telemetry tel;
  EventFleetEngine engine(cfg);
  const auto r = [&] {
    obs::TelemetryScope scope(tel);
    return engine.run();
  }();
  ASSERT_TRUE(r.ok()) << r.error().message;
  const auto& records = r->training.record.all();
  ASSERT_EQ(tel.rounds.size(), records.size());
  const auto rounds = tel.rounds.snapshot();
  const auto& aggregated = *rounds.column("aggregated");
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(aggregated[i],
              static_cast<double>(records[i].updates_aggregated))
        << "round " << i;
  }
}

TEST(EventFleetEngine, TierLatenciesExtendTheMakespan) {
  EventFleetEngineConfig base;
  base.system = golden_config();
  base.tiers.gateway_fanin = 4;
  base.tiers.region_fanin = 2;
  EventFleetEngineConfig slow = base;
  slow.gateway_latency = Seconds{0.5};
  slow.region_latency = Seconds{0.25};
  slow.root_latency = Seconds{0.25};

  EventFleetEngine ea(base);
  EventFleetEngine eb(slow);
  const auto ra = ea.run();
  const auto rb = eb.run();
  ASSERT_TRUE(ra.ok()) << ra.error().message;
  ASSERT_TRUE(rb.ok()) << rb.error().message;
  // Every round now ends at root-done, which trails the last upload by at
  // least the three hop latencies.
  EXPECT_GE(rb->wall_clock.value(),
            ra->wall_clock.value() + 8 * (0.5 + 0.25 + 0.25));
  // Aggregation latency idles servers longer but changes no phase energy:
  // training totals are unaffected.
  EXPECT_EQ(
      ra->ledger.category_total(energy::EnergyCategory::kTraining).value(),
      rb->ledger.category_total(energy::EnergyCategory::kTraining).value());
}

TEST(EventFleetEngine, ScalableSelectionRunsAndStaysUniform) {
  EventFleetEngineConfig cfg;
  cfg.system = golden_config();
  cfg.system.num_servers = 100;
  cfg.system.net.num_edge_servers = 100;
  cfg.system.fl.max_rounds = 4;
  cfg.data_pool_shards = 10;
  cfg.scalable_selection = true;
  EventFleetEngine engine(cfg);
  const auto r = engine.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r->training.rounds_run, 4u);
  for (const auto& rec : r->training.record.all()) {
    EXPECT_EQ(rec.selected.size(), 10u);
    std::set<std::size_t> distinct(rec.selected.begin(), rec.selected.end());
    EXPECT_EQ(distinct.size(), rec.selected.size());
    for (const auto sid : rec.selected) EXPECT_LT(sid, 100u);
  }
}

TEST(EventFleetEngine, PerServerAccumulatorsCanBeDisabled) {
  EventFleetEngineConfig cfg;
  cfg.system = golden_config();
  cfg.per_server_accumulators = false;
  EventFleetEngine engine(cfg);
  const auto r = engine.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_TRUE(r->accumulators.empty());
  // The ledger is accumulator-independent and still matches golden.
  EXPECT_EQ(r->ledger.total().value(), kGoldenLedgerTotal);
  EXPECT_EQ(r->wall_clock.value(), kGoldenWallClock);
}

TEST(EventFleetEngine, RejectsInvalidConfigs) {
  {  // virtual population requires data pooling
    EventFleetEngineConfig cfg;
    cfg.system = golden_config();
    cfg.virtual_population = true;
    EXPECT_FALSE(EventFleetEngine(cfg).run().ok());
  }
  {  // ... and a loss-free LAN
    EventFleetEngineConfig cfg;
    cfg.system = golden_config();
    cfg.system.net.lan.loss_probability = 0.1;
    cfg.virtual_population = true;
    cfg.data_pool_shards = 4;
    EXPECT_FALSE(EventFleetEngine(cfg).run().ok());
  }
  {  // ... and no per-device IoT collection
    EventFleetEngineConfig cfg;
    cfg.system = golden_config();
    cfg.system.iot_collection = true;
    cfg.virtual_population = true;
    cfg.data_pool_shards = 4;
    EXPECT_FALSE(EventFleetEngine(cfg).run().ok());
  }
  {  // degenerate tier fan-in
    EventFleetEngineConfig cfg;
    cfg.system = golden_config();
    cfg.tiers.gateway_fanin = 0;
    EXPECT_FALSE(EventFleetEngine(cfg).run().ok());
  }
  // Timing knobs that would otherwise run as something else: a NaN jitter
  // halves every phase, a negative one or a negative/NaN deadline runs as
  // off, and fractions and slowdowns outside their range are clamped.  The
  // error names the field.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  using Knob = void (*)(FeiSystemConfig&);
  const std::pair<const char*, Knob> timing[] = {
      {"timing_jitter", [](FeiSystemConfig& s) { s.timing_jitter = kNaN; }},
      {"timing_jitter", [](FeiSystemConfig& s) { s.timing_jitter = -0.1; }},
      {"round_deadline",
       [](FeiSystemConfig& s) { s.round_deadline = Seconds{-1.0}; }},
      {"round_deadline",
       [](FeiSystemConfig& s) { s.round_deadline = Seconds{kNaN}; }},
      {"straggler_fraction",
       [](FeiSystemConfig& s) { s.straggler_fraction = kNaN; }},
      {"straggler_fraction",
       [](FeiSystemConfig& s) { s.straggler_fraction = 1.5; }},
      {"straggler_slowdown",
       [](FeiSystemConfig& s) { s.straggler_slowdown = 0.2; }},
      {"straggler_slowdown",
       [](FeiSystemConfig& s) { s.straggler_slowdown = kNaN; }},
  };
  for (const auto& [field, set] : timing) {
    EventFleetEngineConfig cfg;
    cfg.system = golden_config();
    set(cfg.system);
    const auto r = EventFleetEngine(cfg).run();
    ASSERT_FALSE(r.ok()) << field;
    EXPECT_NE(r.error().message.find(field), std::string::npos)
        << r.error().message;
  }
}

// --- Multi-hop backhaul graph ---------------------------------------------

// The golden twin: zero-rate / zero-latency / unbounded links make every
// hop instantaneous, charge no energy and consume no RNG — the run must
// reproduce the point-to-point golden fingerprint bit for bit, while the
// hop chain demonstrably ran (two admissions per upload).
TEST(EventFleetEngine, MultiHopZeroConfigMatchesGoldenFingerprint) {
  EventFleetEngineConfig cfg;
  cfg.system = golden_config();
  cfg.sampled_timelines = 20;
  cfg.tiers.gateway_fanin = 4;
  cfg.tiers.region_fanin = 2;
  cfg.multi_hop = true;  // default LinkConfigs: transparent links
  EventFleetEngine engine(cfg);
  const auto r = engine.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_golden(*r);
  // 5 gateways + 3 regions -> 5 gateway links + 3 backhaul links.
  EXPECT_EQ(r->num_links, 8u);
  // Every upload crosses gateway -> region -> coordinator: 2 admissions.
  EXPECT_EQ(r->link_messages, 10u * 8u * 2u);
  EXPECT_EQ(r->link_drops, 0u);
  EXPECT_EQ(r->link_wait.value(), 0.0);
  EXPECT_EQ(r->link_util_peak, 0.0);
  // Two hop arrivals per upload on top of the point-to-point events.
  EXPECT_EQ(r->events_processed, kGoldenTieredEvents + 10u * 8u * 2u);
}

TEST(EventFleetEngine, MultiHopZeroConfigRerunMatchesGoldenFingerprint) {
  EventFleetEngineConfig cfg = shared_fcfs_golden_config();
  cfg.multi_hop = true;
  expect_rerun_golden(cfg, [](const EventFleetRunResult& r) {
    expect_golden(r);
    EXPECT_EQ(r.link_messages, 10u * 8u * 2u);
    EXPECT_EQ(r.events_processed, kGoldenTieredEvents + 10u * 8u * 2u);
  });
}

// Bit-identity for any thread count at N = 1k, and the zero-config
// multi-hop run is byte-identical to the point-to-point engine on the
// same jittered / straggler-heavy configuration.
TEST(EventFleetEngine, MultiHopZeroConfigBitwiseTwinAtN1k) {
  FeiSystemConfig sys = prototype_config();
  sys.num_servers = 1000;
  sys.net.num_edge_servers = 1000;
  sys.samples_per_server = 30;
  sys.test_samples = 200;
  sys.data.image_side = 12;
  sys.model.input_dim = 144;
  sys.sgd.learning_rate = 0.1;
  sys.fl.clients_per_round = 20;
  sys.fl.local_epochs = 2;
  sys.fl.max_rounds = 4;
  sys.fl.eval_every = 2;
  sys.fl.threads = 4;
  sys.timing_jitter = 0.05;
  sys.straggler_fraction = 0.2;
  sys.straggler_slowdown = 3.0;
  sys.charge_idle_servers = true;
  sys.seed = 17;

  EventFleetEngineConfig plain;
  plain.system = sys;
  plain.data_pool_shards = 50;
  plain.tiers.gateway_fanin = 32;
  plain.tiers.region_fanin = 8;
  EventFleetEngine ref_engine(plain);
  const auto ref = ref_engine.run();
  ASSERT_TRUE(ref.ok()) << ref.error().message;

  EventFleetEngineConfig mh = plain;
  mh.multi_hop = true;
  EventFleetEngine e4(mh);
  const auto r4 = e4.run();
  ASSERT_TRUE(r4.ok()) << r4.error().message;

  EventFleetEngineConfig mh1 = mh;
  mh1.system.fl.threads = 1;
  mh1.shard_size = 64;
  EventFleetEngine e1(mh1);
  const auto r1 = e1.run();
  ASSERT_TRUE(r1.ok()) << r1.error().message;

  expect_bitwise_equal(*ref, *r4, 1000);
  expect_bitwise_equal(*r4, *r1, 1000);
  EXPECT_EQ(r4->events_processed, r1->events_processed);
  EXPECT_EQ(r4->link_messages, r1->link_messages);
  EXPECT_EQ(r4->link_wait.value(), 0.0);
  EXPECT_EQ(r4->link_messages, 20u * 4u * 2u);
}

// Congestion config: 8 gateways funneling into ONE region whose backhaul
// link is narrow — every upload serializes through it, so queueing delay
// emerges from the offered load.
EventFleetEngineConfig congested_config(std::size_t clients_per_round) {
  EventFleetEngineConfig cfg;
  cfg.system = prototype_config();
  cfg.system.num_servers = 64;
  cfg.system.net.num_edge_servers = 64;
  cfg.system.samples_per_server = 30;
  cfg.system.test_samples = 200;
  cfg.system.data.image_side = 12;
  cfg.system.model.input_dim = 144;
  cfg.system.sgd.learning_rate = 0.1;
  cfg.system.fl.clients_per_round = clients_per_round;
  cfg.system.fl.local_epochs = 2;
  cfg.system.fl.max_rounds = 3;
  cfg.system.fl.threads = 4;
  cfg.system.seed = 23;
  cfg.tiers.gateway_fanin = 8;
  cfg.tiers.region_fanin = 64;  // one region: a single backhaul bottleneck
  cfg.multi_hop = true;
  cfg.backhaul_uplink.rate = BitsPerSecond::from_mbps(0.2);
  return cfg;
}

// --- Thread-count invariance on every round path --------------------------

struct RoundPath {
  const char* name;
  EventFleetEngineConfig (*config)();
};

void PrintTo(const RoundPath& path, std::ostream* os) { *os << path.name; }

constexpr RoundPath kRoundPaths[] = {
    {"SharedFcfsGolden", shared_fcfs_golden_config},
    {"FaultPath", fault_path_config},
    {"FaultJitterLossyLan", fault_jitter_lossy_lan_config},
    {"TightDeadlineCrashes", tight_deadline_crash_config},
    {"CongestedMultiHop", [] { return congested_config(32); }},
    {"VirtualPopulation", virtual_population_config},
};

class EventFleetThreads
    : public ::testing::TestWithParam<std::tuple<RoundPath, std::size_t>> {};

// A serial single-shard run and a run on `threads` workers with 3-server
// shards must agree on every per-server bit: the thread count and the
// shard size only split work.
TEST_P(EventFleetThreads, ThreadCountInvariant) {
  const auto& [path, threads] = GetParam();
  EventFleetEngineConfig serial = path.config();
  serial.system.fl.threads = 1;
  serial.shard_size = 1024;
  EventFleetEngineConfig threaded = serial;
  threaded.system.fl.threads = threads;
  threaded.shard_size = 3;

  EventFleetEngine ea(serial);
  EventFleetEngine eb(threaded);
  const auto ra = ea.run();
  const auto rb = eb.run();
  ASSERT_TRUE(ra.ok()) << ra.error().message;
  ASSERT_TRUE(rb.ok()) << rb.error().message;
  expect_bitwise_equal(*ra, *rb, serial.system.num_servers);
  EXPECT_EQ(ra->events_processed, rb->events_processed);
  EXPECT_EQ(ra->queue_high_water, rb->queue_high_water);
  EXPECT_EQ(ra->link_messages, rb->link_messages);
  EXPECT_EQ(ra->link_wait.value(), rb->link_wait.value());
}

INSTANTIATE_TEST_SUITE_P(
    , EventFleetThreads,
    ::testing::Combine(::testing::ValuesIn(kRoundPaths),
                       ::testing::Values<std::size_t>(1, 2, 4)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

TEST(EventFleetEngine, MultiHopCongestionGrowsWithOfferedLoad) {
  EventFleetEngine light(congested_config(8));
  EventFleetEngine heavy(congested_config(32));
  const auto rl = light.run();
  const auto rh = heavy.run();
  ASSERT_TRUE(rl.ok()) << rl.error().message;
  ASSERT_TRUE(rh.ok()) << rh.error().message;

  // The narrow link actually queued messages, and 4x the offered load
  // means more total waiting — congestion is emergent, not configured.
  EXPECT_GT(rl->link_wait.value(), 0.0);
  EXPECT_GT(rh->link_wait.value(), rl->link_wait.value());
  EXPECT_GT(rh->link_util_peak, 0.0);
  EXPECT_LE(rh->link_util_peak, 1.0);

  // The backhaul stretches the makespan relative to transparent links.
  EventFleetEngineConfig transparent = congested_config(32);
  transparent.backhaul_uplink = net::LinkConfig{};
  EventFleetEngine fast(transparent);
  const auto rf = fast.run();
  ASSERT_TRUE(rf.ok()) << rf.error().message;
  EXPECT_GT(rh->wall_clock.value(), rf->wall_clock.value());
  // ... but hops charge nothing: every energy category is bit-identical
  // except kWaiting, whose LAN queue-wait is a subtraction of absolute
  // event times — congestion shifts later rounds' absolute clock, so its
  // LOW BITS may round differently even though no hop books a joule.
  for (std::size_t c = 0; c < energy::kNumEnergyCategories; ++c) {
    const auto cat = static_cast<energy::EnergyCategory>(c);
    if (cat == energy::EnergyCategory::kWaiting) {
      EXPECT_NEAR(rh->ledger.category_total(cat).value(),
                  rf->ledger.category_total(cat).value(), 1e-9);
    } else {
      EXPECT_EQ(rh->ledger.category_total(cat).value(),
                rf->ledger.category_total(cat).value())
          << energy::to_string(cat);
    }
  }
  EXPECT_NEAR(rh->ledger.total().value(), rf->ledger.total().value(), 1e-9);
  EXPECT_EQ(rh->training.final_params, rf->training.final_params);
}

TEST(EventFleetEngine, MultiHopBoundedQueueDropsAreTimingOnly) {
  EventFleetEngineConfig bounded = congested_config(32);
  bounded.backhaul_uplink.queue_capacity = 2;
  EventFleetEngine eb(bounded);
  const auto rb = eb.run();
  ASSERT_TRUE(rb.ok()) << rb.error().message;
  EXPECT_GT(rb->link_drops, 0u);
  // Rounds still complete (a drop resolves the member at drop time) and
  // the numeric aggregation is untouched: same params as unbounded.
  EXPECT_EQ(rb->training.rounds_run, 3u);
  EventFleetEngine eu(congested_config(32));
  const auto ru = eu.run();
  ASSERT_TRUE(ru.ok()) << ru.error().message;
  EXPECT_EQ(rb->training.final_params, ru->training.final_params);
  // Same absolute-clock caveat as the congestion test: drops charge
  // nothing, but shifting round starts can move kWaiting's low bits.
  for (std::size_t c = 0; c < energy::kNumEnergyCategories; ++c) {
    const auto cat = static_cast<energy::EnergyCategory>(c);
    if (cat == energy::EnergyCategory::kWaiting) {
      EXPECT_NEAR(rb->ledger.category_total(cat).value(),
                  ru->ledger.category_total(cat).value(), 1e-9);
    } else {
      EXPECT_EQ(rb->ledger.category_total(cat).value(),
                ru->ledger.category_total(cat).value())
          << energy::to_string(cat);
    }
  }
  EXPECT_NEAR(rb->ledger.total().value(), ru->ledger.total().value(), 1e-9);
}

TEST(EventFleetEngine, MultiHopRejectsIncompatibleModes) {
  {  // fault injection unsupported
    EventFleetEngineConfig cfg;
    cfg.system = faulty_config();
    cfg.multi_hop = true;
    EXPECT_FALSE(EventFleetEngine(cfg).run().ok());
  }
  {  // invalid link config caught at validation
    EventFleetEngineConfig cfg;
    cfg.system = golden_config();
    cfg.multi_hop = true;
    cfg.gateway_uplink.latency = Seconds{-1.0};
    EXPECT_FALSE(EventFleetEngine(cfg).run().ok());
  }
}

// Multi-hop telemetry: the link columns land in the round table, the
// per-hop wait sketch is registered, and totals reconcile with the run
// result — while recording perturbs nothing (same fingerprint bits as the
// untraced congested run).
TEST(EventFleetEngine, MultiHopTelemetryExportsLinkColumns) {
  EventFleetEngine untraced(congested_config(16));
  const auto ru = untraced.run();
  ASSERT_TRUE(ru.ok()) << ru.error().message;

  obs::Telemetry tel;
  EventFleetEngine engine(congested_config(16));
  const auto r = [&] {
    obs::TelemetryScope scope(tel);
    return engine.run();
  }();
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r->ledger.total().value(), ru->ledger.total().value());
  EXPECT_EQ(r->wall_clock.value(), ru->wall_clock.value());
  EXPECT_EQ(r->link_wait.value(), ru->link_wait.value());

  ASSERT_EQ(tel.rounds.size(), 3u);
  const auto rounds = tel.rounds.snapshot();
  const auto& msgs = *rounds.column("link_msgs");
  const auto& wait = *rounds.column("link_wait_s");
  const auto& util = *rounds.column("link_util_max");
  const auto& drops = *rounds.column("link_drops");
  double total_msgs = 0.0;
  double total_wait = 0.0;
  double total_drops = 0.0;
  double util_peak = 0.0;
  for (std::size_t i = 0; i < rounds.rows(); ++i) {
    total_msgs += msgs[i];
    total_wait += wait[i];
    total_drops += drops[i];
    util_peak = std::max(util_peak, util[i]);
    EXPECT_GE(util[i], 0.0);
    EXPECT_LE(util[i], 1.0);
  }
  EXPECT_EQ(total_msgs, static_cast<double>(r->link_messages));
  EXPECT_EQ(total_drops, static_cast<double>(r->link_drops));
  EXPECT_NEAR(total_wait, r->link_wait.value(),
              1e-9 * (1.0 + r->link_wait.value()));
  EXPECT_EQ(util_peak, r->link_util_peak);

  const auto metrics = tel.metrics.snapshot();
  EXPECT_EQ(metrics.gauge_value("fleet.links"),
            static_cast<double>(r->num_links));
  const auto* wait_sketch = metrics.sketch("fleet.link.wait_s");
  ASSERT_NE(wait_sketch, nullptr);
  EXPECT_EQ(wait_sketch->count, r->link_messages);
}

// Server ids of the run's edge_server_* trace tracks, ascending; each track
// must sit on its server's pid.
std::vector<std::size_t> edge_track_servers(const obs::Telemetry& tel) {
  std::vector<std::size_t> sids;
  for (const auto& [pid, name] : tel.tracer.track_names()) {
    if (name.rfind("edge_server_", 0) != 0) continue;
    const std::size_t sid = std::stoul(name.substr(12));
    EXPECT_EQ(pid, obs::Tracer::server_pid(sid)) << name;
    sids.push_back(sid);
  }
  std::sort(sids.begin(), sids.end());
  return sids;
}

// The telemetry contract at fleet scale: tracing must leave the simulation
// byte-identical (the golden fingerprint pins every result bit), give
// exactly the mirrored servers a track (so sampled_timelines bounds the
// track count), fill the round table one row per round, and populate the
// first-class sketches.
TEST(EventFleetEngine, TracedRunIsGoldenWithBoundedSampledTracks) {
  EventFleetEngineConfig cfg;
  cfg.system = golden_config();
  cfg.tiers.gateway_fanin = 4;
  cfg.tiers.region_fanin = 2;

  {  // fewer mirrors than servers: 4 tracks, the mirrored ones
    cfg.sampled_timelines = 4;
    obs::Telemetry tel;
    EventFleetEngine engine(cfg);
    const auto r = [&] {
      obs::TelemetryScope scope(tel);
      return engine.run();
    }();
    ASSERT_TRUE(r.ok()) << r.error().message;
    expect_golden(*r);
    ASSERT_EQ(r->sampled_servers.size(), 4u);
    EXPECT_EQ(edge_track_servers(tel), r->sampled_servers);
  }

  cfg.sampled_timelines = 20;
  obs::Telemetry tel;
  EventFleetEngine engine(cfg);
  const auto r = [&] {
    obs::TelemetryScope scope(tel);
    return engine.run();
  }();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_golden(*r);  // bit-for-bit the untraced result
  EXPECT_EQ(r->events_processed, kGoldenTieredEvents);
  EXPECT_EQ(r->queue_high_water, kGoldenTieredQueueHighWater);

  // Per-server lanes are exactly the mirrors; coordinator/tier lanes stay
  // on.
  EXPECT_EQ(edge_track_servers(tel), r->sampled_servers);
  bool has_coordinator = false;
  for (const auto& [pid, name] : tel.tracer.track_names()) {
    if (name == "coordinator") has_coordinator = true;
  }
  EXPECT_TRUE(has_coordinator);
  EXPECT_FALSE(tel.tracer.empty());

  // Round table: one row per round, radar-annotated.
  ASSERT_EQ(tel.rounds.size(), 8u);
  const auto rounds = tel.rounds.snapshot();
  const auto& selected = *rounds.column("selected");
  const auto& duration = *rounds.column("duration_s");
  for (std::size_t i = 0; i < rounds.rows(); ++i) {
    EXPECT_EQ(selected[i], 10.0) << "round " << i;
    EXPECT_GT(duration[i], 0.0) << "round " << i;
  }

  // First-class sketches: one round-time sample per round, one joules
  // sample per server (N = 20 is far below the sampling cap).
  const auto metrics = tel.metrics.snapshot();
  const auto* round_s = metrics.sketch("fleet.round.seconds");
  ASSERT_NE(round_s, nullptr);
  EXPECT_EQ(round_s->count, 8u);
  const auto* joules = metrics.sketch("fleet.server.joules");
  ASSERT_NE(joules, nullptr);
  EXPECT_EQ(joules->count, 20u);
  // The sketch saw exactly the per-server ledger totals (different
  // accumulation order, so a tight relative tolerance, not bitwise).
  double per_server_sum = 0.0;
  for (std::size_t sid = 0; sid < 20; ++sid) {
    per_server_sum += r->ledger.server_total(sid).value();
  }
  EXPECT_NEAR(joules->sum, per_server_sum, 1e-9 * per_server_sum);
  ASSERT_NE(metrics.sketch("fleet.upload.wait_s"), nullptr);
  ASSERT_NE(metrics.sketch("fleet.server.turnaround_s"), nullptr);
}

// The traced idle-energy counter at fleet scale (N = 2·10^4, idle charging
// on, at most 36 servers ever selected): the never-selected servers reach
// energy.joules.waiting through one add of their count × the run's idle
// energy, which matches the ledger's category total to rounding, and
// tracing leaves every result bit alone.
TEST(EventFleetEngine, TracedWaitingCounterMatchesLedgerAtN20k) {
  EventFleetEngineConfig cfg = virtual_population_config();
  cfg.system.num_servers = 20000;
  cfg.system.net.num_edge_servers = 20000;
  ASSERT_TRUE(cfg.system.charge_idle_servers);

  EventFleetEngine untraced(cfg);
  const auto ru = untraced.run();
  ASSERT_TRUE(ru.ok()) << ru.error().message;

  obs::Telemetry tel;
  EventFleetEngine engine(cfg);
  const auto r = [&] {
    obs::TelemetryScope scope(tel);
    return engine.run();
  }();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_bitwise_equal(*r, *ru, 20000);
  EXPECT_EQ(r->events_processed, ru->events_processed);

  const double counted =
      tel.metrics.snapshot().counter_value("energy.joules.waiting");
  const double booked =
      r->ledger.category_total(energy::EnergyCategory::kWaiting).value();
  ASSERT_GT(booked, 0.0);
  EXPECT_NEAR(counted, booked, 1e-12 * booked);
}

// sampled_timelines = 0 leaves no per-server lane but must not perturb the
// run or the round table.
TEST(EventFleetEngine, ZeroSampledTracksStillGoldenAndRecordsRounds) {
  EventFleetEngineConfig cfg;
  cfg.system = golden_config();
  cfg.sampled_timelines = 0;
  cfg.tiers.gateway_fanin = 4;
  cfg.tiers.region_fanin = 2;

  obs::Telemetry tel;
  EventFleetEngine engine(cfg);
  const auto r = [&] {
    obs::TelemetryScope scope(tel);
    return engine.run();
  }();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_golden(*r);

  EXPECT_TRUE(r->sampled_servers.empty());
  EXPECT_TRUE(edge_track_servers(tel).empty());
  EXPECT_EQ(tel.rounds.size(), 8u);
}

// The joules sampling cap: with the cap forced below N the sketch must hold
// exactly ceil(N / stride) observations (stride bumped to odd), and the
// stride-sampled subset must still produce finite quantiles.
TEST(EventFleetEngine, JoulesSampleCapBoundsSketchObservations) {
  EventFleetEngineConfig cfg;
  cfg.system = golden_config();
  cfg.sampled_timelines = 8;
  cfg.joules_sample_cap = 6;  // N = 20 -> stride 3 (20/6 = 3, already odd)
  cfg.tiers.gateway_fanin = 4;

  obs::Telemetry tel;
  EventFleetEngine engine(cfg);
  const auto r = [&] {
    obs::TelemetryScope scope(tel);
    return engine.run();
  }();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_golden(*r);  // the cap only changes what telemetry reads

  const auto metrics = tel.metrics.snapshot();
  const auto* joules = metrics.sketch("fleet.server.joules");
  ASSERT_NE(joules, nullptr);
  EXPECT_EQ(joules->count, 7u);  // ceil(20 / 3)
  EXPECT_GT(joules->quantile(0.5), 0.0);
  EXPECT_LE(joules->quantile(0.999), r->ledger.total().value());
}

}  // namespace
}  // namespace eefei::sim
