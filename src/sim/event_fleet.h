// The FEI round engine: the paper's round model (steps 1-4, priced by
// Eqs. 3-4) as a discrete-event simulation on a calendar queue, so idle
// servers cost nothing per round and N = 10^6 becomes tractable.  It is the
// only implementation of the round model: FeiSystem, the N = 20 prototype
// experiment, is this engine's preset with every timeline kept
// (sampled_timelines = N), and AsyncFeiSystem is the same preset run
// without the round barrier (see simulate() below).
//
// Each run builds one private run state (EventFleetEngine::Run, in
// event_fleet.cpp) and discards it, so none of it survives into the next run.
// Its members follow the paper's round: step 1 (IoT collection, e^I) and
// the timing of steps 2-3 (download, local training) in the dispatch scan
// (begin_round, start_task, leg, drops); the phase bookings and step 4
// (FCFS upload, e^U, tier aggregation) in the typed dispatch; then async's
// rules, record_round and finish()'s end-of-run passes.
//
//   - Per-server phase completions are EVENTS (download-done, epoch-done,
//     upload-done, dropped) scheduled on the event queue; the round
//     clock is whatever the queue drained to, not an O(N) barrier sweep.
//   - Energy streams through one CompactEnergyAccumulator per server (O(1)
//     memory); a configurable, evenly spaced subset of servers keeps full
//     EdgeServerSim timelines for Fig. 3-style traces, and exactly those
//     servers own a per-server track when tracing is on.
//   - Aggregation is hierarchical: device → gateway → regional coordinator
//     → root (fl::TierPlan), each tier's fan-in bounded by configuration.
//     A gateway completes when its last selected member resolves, a region
//     when its last active gateway reports, the root when the last region
//     does — three more event layers, each with an optional per-hop
//     latency.  The NUMERIC FedAvg reduction stays flat at the root (the
//     coordinator aggregates the K survivors in index order): re-running
//     the floating-point sum per tier would re-associate it and break the
//     bit-identity contract below.
//   - Idle-server waiting energy is settled LAZILY (energy/idle_settlement):
//     the per-round O(N) ledger sweep becomes one deferred charge per
//     touched server plus a single fold for never-selected servers, with
//     per-cell addition order preserved — so the ledger is still
//     bit-identical to an eager per-round sweep.
//   - The population can be VIRTUAL: datasets and shards are built eagerly
//     (same bytes as ever), but a Client is built on each access
//     (fl::LazyClientPool) and LAN timings come from the shared
//     WifiLanConfig instead of per-server channel objects.  Requires a
//     loss-free LAN and no IoT collection; under those conditions the run
//     is bit-identical to a materialized one.
//   - Periodic checkpoint autosave (fl.checkpoint_every) lands in
//     EventFleetRunResult::last_checkpoint; resume_from() continues a run
//     from one, round numbering included.
//
// Determinism contract (pinned by tests/test_event_fleet.cpp): results are
// byte-identical for any thread count and shard size, and — with zero tier
// latencies, uniform selection and no data pooling — byte-identical to the
// FeiSystem.*MatchesGolden pins, which were recorded from the standalone
// round simulation FeiSystem ran before it became this preset.  The
// argument: the dispatch scan consumes the jitter and straggler streams
// serially in selection order; uploads drain in the queue's (time,
// FIFO) order, which is (train_end, selection index) order; transfer fault
// plans draw from per-(round, server, direction) streams; every event and
// every ledger write runs on the calling thread; and the only pool work —
// the sharded O(N) passes and the coordinator's training — touches disjoint
// per-server state.  The round's scan and drain run as the coordinator's
// update filter, beside that training (fl::PendingUpdates): a server's
// fate reads only its n_k and E, never a trained weight.
//
// Trained models route through the coordinator's ml::ModelBank batched
// path — the DES replaces the *timing* layer, not the fused training hot
// loop.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "energy/compact_accumulator.h"
#include "energy/ledger.h"
#include "energy/timeline.h"
#include "fl/checkpoint.h"
#include "fl/coordinator.h"
#include "fl/tiering.h"
#include "net/link_queue.h"
#include "sim/fei_system.h"
#include "sim/population.h"

namespace eefei::sim {

struct EventFleetEngineConfig {
  /// Full system description (population, learning, network, energy,
  /// faults); `system.fl.threads` also sizes the pool for the sharded
  /// O(N) passes.
  FeiSystemConfig system;

  /// Servers per shard for the (rare) O(N) passes.  Work-split knob only:
  /// any value produces byte-identical results.
  std::size_t shard_size = 1024;

  /// Servers keeping a full PowerStateTimeline, evenly spaced over the
  /// fleet.  Clamped to N; N retains every timeline (the FeiSystem preset).
  /// When tracing is on, exactly these servers own a per-server trace
  /// track, so this also bounds a traced run's track count and trace size.
  std::size_t sampled_timelines = 8;

  /// Data pooling for very large fleets: generate P < N distinct local
  /// datasets and map server k to pool shard k mod P.  0 keeps the full
  /// per-server population (the FeiSystem preset's world).  Mandatory
  /// (0 < P < N) in virtual-population mode: without pooling the dataset
  /// itself is O(N) and the virtual mode's memory argument is void.
  std::size_t data_pool_shards = 0;

  /// Aggregation hierarchy fan-in bounds (servers per gateway, gateways
  /// per region).  The root's fan-in is then at most
  /// ceil(N / (gateway_fanin · region_fanin)).
  fl::TierConfig tiers;

  /// Per-hop aggregation latencies.  All zero (the default) keeps the
  /// makespan — and therefore every energy bit — independent of the tier
  /// plan; nonzero values model the tier hops' communication cost.
  Seconds gateway_latency{0.0};
  Seconds region_latency{0.0};
  Seconds root_latency{0.0};

  /// true: do not materialize Client/Topology arrays; clients build lazily
  /// on first selection.  Requires data pooling, a loss-free LAN and
  /// iot_collection off (rejected otherwise).
  bool virtual_population = false;

  /// false: skip the O(N) CompactEnergyAccumulator array (the ledger and
  /// sampled timelines remain).  The memory lever for N = 10^6; leave on
  /// for per-server energies (accumulated_energy()).
  bool per_server_accumulators = true;

  /// true: replace the O(N)-per-round partial-Fisher–Yates selection with
  /// the O(K) Floyd sampler (fl::ScalableUniformSelection).  Still exactly
  /// uniform, but a different random stream — selections (and therefore
  /// results) no longer match the FeiSystem preset for the same seed.  The
  /// knob the N = 1M bench row turns on.
  bool scalable_selection = false;

  /// At most this many servers feed the fleet.server.joules sketch (0 =
  /// all).  Above the cap the end-of-run pass stride-samples server ids
  /// (odd stride, so power-of-two data-pool periods stay fully covered) —
  /// a full O(N) ledger read at N = 10^6 costs more memory bandwidth than
  /// the whole telemetry overhead budget.  Pure telemetry.
  std::size_t joules_sample_cap = 131072;

  /// true: after its access-medium upload completes, each update traverses
  /// a multi-hop backhaul graph (net::NetGraph) mapped from the tier plan
  /// — gateway → backhaul → coordinator — where every hop is a scheduled
  /// arrival event through a per-link FIFO queue (net::LinkQueue), so
  /// queueing delay and congestion emerge from the round's offered load.
  /// A member's tier resolution moves from upload-done to
  /// coordinator-arrival; when a bounded queue drops the update, the
  /// member resolves at the drop time instead (fault-free aggregation
  /// is never vetoed — a drop is a timing/telemetry outcome, mirroring
  /// how tier latencies never gate the numeric FedAvg).  With the default
  /// zero-rate/zero-latency/unbounded links every hop is instantaneous,
  /// charges no energy and consumes no RNG, so results stay bit-identical
  /// to the point-to-point path (the golden twin test).  Incompatible with
  /// fault injection.
  bool multi_hop = false;
  /// Per-link model for each gateway → backhaul link.
  net::LinkConfig gateway_uplink;
  /// Per-link model for each backhaul → coordinator link.
  net::LinkConfig backhaul_uplink;
};

struct EventFleetRunResult {
  fl::TrainingOutcome training;
  energy::EnergyLedger ledger{1};
  Seconds wall_clock{0.0};  // simulated makespan

  /// One streaming accumulator per server (empty when
  /// per_server_accumulators is off) — the fleet-scale stand-in for
  /// FeiRunResult::timelines, bit-identical in every total.
  std::vector<energy::CompactEnergyAccumulator> accumulators;
  /// Server ids that kept full timelines, and those timelines, aligned.
  std::vector<std::size_t> sampled_servers;
  std::vector<energy::PowerStateTimeline> sampled_timelines;

  // Fault-tolerance telemetry, summed over rounds (zero with faults off).
  std::size_t total_retries = 0;
  std::size_t total_aborted_updates = 0;
  std::size_t total_straggler_drops = 0;
  std::size_t total_crashed_servers = 0;

  /// Total events the simulation processed (phase completions, crashes,
  /// tier completions, hop arrivals) — the DES cost measure: O(K·T), not
  /// O(N·T).
  std::size_t events_processed = 0;
  /// Tier-plan shape actually used.
  std::size_t num_gateways = 0;
  std::size_t num_regions = 0;
  /// Multi-hop link totals (all zero when multi_hop is off).
  std::size_t num_links = 0;
  std::size_t link_messages = 0;   // hop admissions across the run
  std::size_t link_drops = 0;      // messages rejected by bounded queues
  Seconds link_wait{0.0};          // summed per-hop queueing delay
  double link_util_peak = 0.0;     // max per-round single-link utilization
  /// Deepest the event queue got across the run.
  std::size_t queue_high_water = 0;
  /// Most recent periodic autosave (set when system.fl.checkpoint_every >
  /// 0): what a restarted coordinator would resume_from().
  std::optional<fl::TrainingCheckpoint> last_checkpoint;

  [[nodiscard]] Joules measured_energy() const { return ledger.total(); }

  /// Sum of per-server accumulator energies, added in server order — bit
  /// for bit the summed energies of full per-server timelines.
  [[nodiscard]] Joules accumulated_energy() const {
    Joules total{0.0};
    for (const auto& acc : accumulators) total += acc.total_energy();
    return total;
  }
};

/// The preset FeiSystem and AsyncFeiSystem run: every server keeps a full
/// timeline and owns a trace track.
[[nodiscard]] EventFleetEngineConfig prototype_preset(
    const FeiSystemConfig& config);

struct AsyncFeiConfig;
struct AsyncRunResult;
class AsyncFeiSystem;

class EventFleetEngine {
 public:
  explicit EventFleetEngine(EventFleetEngineConfig config);

  /// Builds the population (or, in virtual mode, just the datasets)
  /// without running.
  [[nodiscard]] Status prepare();

  /// Runs the federated loop under the event-driven timing simulation.
  [[nodiscard]] Result<EventFleetRunResult> run();

  /// The next run() resumes training from `checkpoint` (e.g. a periodic
  /// autosave recovered after a coordinator crash): ω is restored and round
  /// numbering continues, so fl.max_rounds means "this many MORE rounds".
  /// The ledger and clock of the resumed run start from zero; the fault
  /// streams are keyed by the continued round numbers.
  void resume_from(fl::TrainingCheckpoint checkpoint) {
    resume_ = std::move(checkpoint);
  }

  [[nodiscard]] const EventFleetEngineConfig& config() const {
    return config_;
  }
  /// The built population (valid after prepare()).
  [[nodiscard]] const Population& population() const { return population_; }

 private:
  [[nodiscard]] bool fault_injection_active() const {
    const FeiSystemConfig& sys = config_.system;
    return sys.net.link_faults.enabled() ||
           sys.round_deadline.value() > 0.0 || sys.crashes.enabled();
  }

  [[nodiscard]] Status validate() const;

  /// One run's state (event_fleet.cpp), built fresh by each simulate().
  struct Run;

  /// The whole run.  With `async` set (by AsyncFeiSystem, which validates
  /// it; its `base` is config().system) it runs FedAsync instead of rounds
  /// and fills *async_result: no FCFS chain, and upload-done trains the
  /// task on the model its server pulled, mixes it into ω with
  /// α_s = α·(1 + staleness)^(−a) and re-dispatches the server.  At the
  /// stop each pending phase books the part that ran before it as kAborted.
  [[nodiscard]] Result<EventFleetRunResult> simulate(
      const AsyncFeiConfig* async = nullptr,
      AsyncRunResult* async_result = nullptr);
  friend class AsyncFeiSystem;

  /// Pool for the O(N) sharded passes; matches the coordinator's sizing
  /// rules (null = serial, shared() when sizes agree, else owned).
  [[nodiscard]] ThreadPool* acquire_pool();

  /// Calls fn(lo, hi) for consecutive `shard_size` blocks covering [0, n),
  /// across the pool.  `fn` must only touch state owned by its block.
  void for_each_shard(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& fn);

  EventFleetEngineConfig config_;
  bool prepared_ = false;
  std::optional<fl::TrainingCheckpoint> resume_;
  Population population_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace eefei::sim
