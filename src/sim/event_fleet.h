// Event-driven fleet engine: the same FEI round model as FleetEngine,
// rebuilt as a discrete-event simulation on sim::EventQueue so idle servers
// cost nothing per round and N = 10^6 becomes tractable.
//
// What changes relative to the round-synchronous FleetEngine:
//
//   - Per-server phase completions are EVENTS (download-done, epoch-done,
//     upload-done, server-crash) scheduled on the event queue; the round
//     clock is whatever the queue drained to, not an O(N) barrier sweep.
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
//     bit-identical to the eager engine's.
//   - The population can be VIRTUAL: datasets and shards are built eagerly
//     (same bytes as ever), but Client objects materialize lazily on first
//     selection (fl::LazyClientPool) and LAN timings come from the shared
//     WifiLanConfig instead of per-server channel objects.  Requires a
//     loss-free LAN and no IoT collection; under those conditions the run
//     is bit-identical to a materialized one.
//
// Determinism contract (pinned by tests/test_event_fleet.cpp): results are
// byte-identical for any thread count, and — on overlapping configurations
// (zero tier latencies, shared-medium contention, materialized or
// loss-free-virtual population) — byte-identical to FleetEngine, and hence
// to the reference FeiSystem.  The argument: the dispatch scan consumes the
// FeiSystem RNG streams serially in selection order, uploads drain in the
// queue's (time, FIFO) order which equals FleetEngine's (train_end, index)
// sort, per-server state is disjoint across the sharded O(N) passes, and
// parallel per-gateway drains merge in ascending gateway order.
//
// Trained models route through the coordinator's ml::ModelBank batched
// path, exactly like FleetEngine — the DES replaces the *timing* layer,
// not the fused training hot loop.
#pragma once

#include <cstddef>
#include <memory>

#include "common/result.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "fl/client_pool.h"
#include "fl/tiering.h"
#include "net/link_queue.h"
#include "obs/track_sampler.h"
#include "sim/fleet_engine.h"

namespace eefei::sim {

/// Scheduler backing the fleet engine's typed event loop.  Both process
/// POD sim::FleetEvent payloads through the engine's switch dispatch and
/// implement the exact same (time, seq) FIFO total order, so results are
/// bit-identical across the two — the calendar queue is the O(1)-amortized
/// default, the binary heap the reference the equivalence tests pin it to.
enum class FleetQueueImpl {
  kCalendar,    // sim::CalendarQueue (bucketed, O(1) amortized)
  kBinaryHeap,  // sim::TypedEventQueue (push_heap/pop_heap reference)
};

struct EventFleetEngineConfig {
  /// Full system description; `system.fl.threads` sizes the worker pool
  /// for sharded passes and per-gateway drains.
  FeiSystemConfig system;

  /// Servers per shard for the (rare) O(N) passes.  Work-split knob only:
  /// any value produces byte-identical results.
  std::size_t shard_size = 1024;

  /// Servers keeping a full PowerStateTimeline (evenly spaced), as in
  /// FleetEngine.
  std::size_t sampled_timelines = 8;

  /// Data pooling (see FleetEngineConfig::data_pool_shards).  Mandatory
  /// (0 < P < N) in virtual-population mode: without pooling the dataset
  /// itself is O(N) and the virtual mode's memory argument is void.
  std::size_t data_pool_shards = 0;

  /// Aggregation hierarchy fan-in bounds (servers per gateway, gateways
  /// per region).  The root's fan-in is then at most
  /// ceil(N / (gateway_fanin · region_fanin)).
  fl::TierConfig tiers;

  /// Per-hop aggregation latencies.  All zero (the default) keeps the
  /// makespan — and therefore every energy bit — identical to FleetEngine;
  /// nonzero values model the tier hops' communication cost.
  Seconds gateway_latency{0.0};
  Seconds region_latency{0.0};
  Seconds root_latency{0.0};

  /// true: do not materialize Client/Topology arrays; clients build lazily
  /// on first selection.  Requires data pooling, a loss-free LAN and
  /// iot_collection off (rejected otherwise).
  bool virtual_population = false;

  /// false: skip the O(N) CompactEnergyAccumulator array (the ledger and
  /// sampled timelines remain).  The memory lever for N = 10^6; leave on
  /// for FleetEngine-comparable results (accumulated_energy()).
  bool per_server_accumulators = true;

  /// true: each gateway is its own FCFS LAN segment instead of one shared
  /// medium — uploads only queue behind their gateway-mates, and the
  /// per-gateway event streams drain in parallel across the thread pool
  /// (deterministic ascending-gateway merge).  A new scenario, not
  /// FleetEngine-comparable; FCFS only, fault injection off.
  bool gateway_contention = false;

  /// true: replace the O(N)-per-round partial-Fisher–Yates selection with
  /// the O(K) Floyd sampler (fl::ScalableUniformSelection).  Still exactly
  /// uniform, but a different random stream — selections (and therefore
  /// results) no longer match FleetEngine for the same seed.  The knob the
  /// N = 1M bench row turns on.
  bool scalable_selection = false;

  /// Which of the sampled-timeline mirrors also own a per-server trace
  /// track when tracing is on (sampling is over the mirror list, since
  /// only mirrors replay per-phase spans).  The default stride mode with
  /// max_tracks >= sampled_timelines keeps every mirror traced, exactly
  /// the pre-sampling behavior; at fleet scale the bound keeps a traced
  /// N = 1M run's track count — and trace size — fixed.  Pure telemetry:
  /// any setting produces byte-identical run results.
  obs::TrackSamplerConfig trace_tracks;

  /// Cap on servers feeding the fleet.server.joules sketch (0 = all); see
  /// FleetEngineConfig::joules_sample_cap.
  std::size_t joules_sample_cap = 131072;

  /// true: after its access-medium upload completes, each update traverses
  /// a multi-hop backhaul graph (net::NetGraph) mapped from the tier plan
  /// — gateway → backhaul → coordinator — where every hop is a scheduled
  /// arrival event through a per-link FIFO queue (net::LinkQueue), so
  /// queueing delay and congestion emerge from the round's offered load.
  /// A member's tier resolution moves from upload-done to
  /// coordinator-arrival; when a bounded queue drops the update, the
  /// member resolves at the drop time instead (observer-mode aggregation
  /// is never vetoed — a drop is a timing/telemetry outcome, mirroring
  /// how tier latencies never gate the numeric FedAvg).  With the default
  /// zero-rate/zero-latency/unbounded links every hop is instantaneous,
  /// charges no energy and consumes no RNG, so results stay bit-identical
  /// to the point-to-point path (the golden twin test).  FCFS access only;
  /// incompatible with gateway_contention, CSMA and fault injection.
  bool multi_hop = false;
  /// Per-link model for each gateway → backhaul link.
  net::LinkConfig gateway_uplink;
  /// Per-link model for each backhaul → coordinator link.
  net::LinkConfig backhaul_uplink;

  /// Event scheduler implementation.  Pure performance knob: both options
  /// dispatch the same typed events in the same total order and produce
  /// byte-identical results (pinned by tests/test_event_fleet.cpp).
  FleetQueueImpl event_queue = FleetQueueImpl::kCalendar;
};

struct EventFleetRunResult : FleetRunResult {
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
  /// Deepest any event queue got across the run (global queue and, in
  /// gateway-contention mode, the per-gateway local queues).
  std::size_t queue_high_water = 0;
};

class EventFleetEngine {
 public:
  explicit EventFleetEngine(EventFleetEngineConfig config);

  /// Builds the population (or, in virtual mode, just the datasets)
  /// without running.
  [[nodiscard]] Status prepare();

  /// Runs the federated loop under the event-driven timing simulation.
  [[nodiscard]] Result<EventFleetRunResult> run();

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
  [[nodiscard]] ThreadPool* acquire_pool();
  void for_each_server_sharded(const std::function<void(std::size_t)>& fn);

  /// The whole simulation, parameterized over the typed event scheduler
  /// (CalendarQueue or TypedEventQueue); run() picks per config.  Both
  /// instantiations execute the identical round logic in the identical
  /// event order — the queue choice is invisible to the results.
  template <class Q>
  [[nodiscard]] Result<EventFleetRunResult> run_impl();

  EventFleetEngineConfig config_;
  bool prepared_ = false;
  Population population_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace eefei::sim
