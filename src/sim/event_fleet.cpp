#include "sim/event_fleet.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "energy/idle_settlement.h"
#include "fl/client_pool.h"
#include "fl/selection.h"
#include "ml/model_bank.h"
#include "ml/model_spec.h"
#include "ml/quantize.h"
#include "ml/serialize.h"
#include "net/fault.h"
#include "net/graph.h"
#include "net/router.h"
#include "obs/telemetry.h"
#include "sim/async_fei.h"
#include "sim/calendar_queue.h"
#include "sim/edge_server_sim.h"
#include "sim/fault_process.h"
#include "sim/fleet_event.h"

namespace eefei::sim {

EventFleetEngineConfig prototype_preset(const FeiSystemConfig& config) {
  EventFleetEngineConfig cfg;
  cfg.system = config;
  cfg.sampled_timelines = config.num_servers;
  cfg.per_server_accumulators = false;  // the timelines carry the same sums
  return cfg;
}

EventFleetEngine::EventFleetEngine(EventFleetEngineConfig config)
    : config_(std::move(config)) {}

Status EventFleetEngine::validate() const {
  const FeiSystemConfig& sys = config_.system;
  const bool virtual_pop = config_.virtual_population;
  const std::pair<bool, const char*> rejected[] = {
      {!config_.tiers.valid(), "tier fan-in must be >= 1"},
      {sys.num_servers > std::numeric_limits<std::uint32_t>::max(),
       "num_servers must fit 32 bits (typed event ids)"},
      {config_.gateway_latency.value() < 0.0 ||
           config_.region_latency.value() < 0.0 ||
           config_.root_latency.value() < 0.0,
       "tier latencies must be >= 0"},
      {!(std::isfinite(sys.timing_jitter) && sys.timing_jitter >= 0.0),
       "timing_jitter must be finite and >= 0"},
      {!(sys.straggler_fraction >= 0.0 && sys.straggler_fraction <= 1.0),
       "straggler_fraction must be in [0, 1]"},
      {!(std::isfinite(sys.straggler_slowdown) &&
         sys.straggler_slowdown >= 1.0),
       "straggler_slowdown must be finite and >= 1"},
      {!(sys.round_deadline.value() >= 0.0), "round_deadline must be >= 0"},
      {virtual_pop && sys.net.lan.loss_probability != 0.0,
       "virtual population requires a loss-free LAN (per-server channel RNG "
       "streams are never materialized)"},
      {virtual_pop && sys.iot_collection,
       "virtual population cannot simulate per-device IoT collection (device "
       "fleets are never materialized)"},
      {virtual_pop && (config_.data_pool_shards == 0 ||
                       config_.data_pool_shards >= sys.num_servers),
       "virtual population requires data pooling (0 < data_pool_shards < "
       "num_servers)"},
      {config_.multi_hop && fault_injection_active(),
       "multi-hop backhaul does not support fault injection"},
  };
  for (const auto& [bad, what] : rejected) {
    if (bad) {
      return Error::invalid_argument(std::string("event fleet: ") + what);
    }
  }
  if (config_.multi_hop) {
    for (const auto* link :
         {&config_.gateway_uplink, &config_.backhaul_uplink}) {
      if (const auto st = link->validate(); !st.ok()) return st;
    }
  }
  return Status::success();
}

Status EventFleetEngine::prepare() {
  if (prepared_) return Status::success();
  if (const auto st = validate(); !st.ok()) return st;
  PopulationConfig pop = population_config_for(config_.system);
  pop.data_pool_shards = config_.data_pool_shards;
  pop.materialize_world = !config_.virtual_population;
  if (const auto st = population_.build(pop); !st.ok()) return st;
  prepared_ = true;
  return Status::success();
}

ThreadPool* EventFleetEngine::acquire_pool() {
  const std::size_t threads = config_.system.fl.threads;
  if (threads <= 1) {
    pool_ = nullptr;
  } else if (pool_ == nullptr) {
    if (threads == ThreadPool::shared().size()) {
      pool_ = &ThreadPool::shared();
    } else {
      owned_pool_ = std::make_unique<ThreadPool>(threads);
      pool_ = owned_pool_.get();
    }
  }
  return pool_;
}

void EventFleetEngine::for_each_shard(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  const std::size_t shard = std::max<std::size_t>(1, config_.shard_size);
  const std::size_t num_shards = (n + shard - 1) / shard;
  auto run_shard = [&](std::size_t s) {
    fn(s * shard, std::min(n, (s + 1) * shard));
  };
  if (pool_ != nullptr && num_shards > 1) {
    pool_->parallel_for(num_shards, run_shard);
  } else {
    for (std::size_t s = 0; s < num_shards; ++s) run_shard(s);
  }
}

Result<EventFleetRunResult> EventFleetEngine::run() { return simulate(); }

// ---- one run's state --------------------------------------------------------
// Everything a run reads and writes besides the engine's config and
// population, built fresh by each simulate().  Every event is a POD
// FleetEvent on the calendar queue, dispatched by dispatch(): values frozen
// at schedule time ride in the event's t0/t1/t2 fields, everything else is
// read from the round state at fire time.  The members come in the order of
// the round they serve: setup; round start and idle settlement; the
// dispatch scan (steps 1-3: collection, download, training); the typed
// dispatch with tier resolution (step 4: upload and aggregation); multi-hop
// hops; async's rules; telemetry; the end of the run.
struct EventFleetEngine::Run {
  // ---- setup ----------------------------------------------------------------
  Run(EventFleetEngine& e, const AsyncFeiConfig* a, AsyncRunResult* ar)
      : engine(e), async(a), async_result(ar) {
    result.ledger = energy::EnergyLedger(n_servers);
    if (cfg.per_server_accumulators) {
      result.accumulators.assign(
          n_servers, energy::CompactEnergyAccumulator(sys.profile));
    }
    result.num_gateways = tier_plan.num_gateways();
    result.num_regions = tier_plan.num_regions();

    // Sampled full-timeline mirrors, evenly spaced over the fleet; a hash
    // map instead of an O(N) mirror index array.
    const std::size_t n_sampled = std::min(cfg.sampled_timelines, n_servers);
    mirrors.reserve(n_sampled);
    if (n_sampled > 0) {
      const std::size_t stride = n_servers / n_sampled;
      for (std::size_t k = 0; k < n_sampled; ++k) {
        const std::size_t sid = k * stride;
        mirror_of.emplace(sid, static_cast<std::uint32_t>(mirrors.size()));
        result.sampled_servers.push_back(sid);
        mirrors.emplace_back(sid, sys.profile);
      }
    }
    // Every mirror owns a pseudo-process trace track, and only mirrors do:
    // sampled_timelines bounds the track count, never the server count.
    // Coordinator/tier lanes are always on.
    if (tracer != nullptr) {
      name_track(obs::Tracer::kCoordinatorPid, "coordinator");
      name_track(obs::Tracer::kTierRootPid, "fleet_root");
      for (const std::size_t sid : result.sampled_servers) {
        name_track(obs::Tracer::server_pid(sid),
                   "edge_server_" + std::to_string(sid));
      }
    }
    // Telemetry handles are resolved once per run (registry lookups are
    // mutex + map — too hot for per-event or per-round paths).  All of
    // these are null/unused when telemetry is off, and recording into them
    // only READS sim state, so the non-perturbation contract holds.
    if (obs::Telemetry* tel = obs::telemetry()) {
      tel->metrics.gauge("fleet.servers").set(static_cast<double>(n_servers));
      tel->metrics.gauge("fleet.gateways")
          .set(static_cast<double>(result.num_gateways));
      tel->metrics.gauge("fleet.regions")
          .set(static_cast<double>(result.num_regions));
      sk_round_s = &tel->metrics.sketch("fleet.round.seconds");
      sk_wait_s = &tel->metrics.sketch("fleet.upload.wait_s");
      sk_turnaround_s = &tel->metrics.sketch("fleet.server.turnaround_s");
      sk_joules = &tel->metrics.sketch("fleet.server.joules");
      if (cfg.multi_hop) {
        // Registered only for multi-hop runs so point-to-point runs keep
        // their exact pre-existing sketch export set.
        sk_link_wait_s = &tel->metrics.sketch("fleet.link.wait_s");
      }
      for (std::size_t c = 0; c < energy::kNumEnergyCategories; ++c) {
        energy_counters[c] = &tel->metrics.counter(
            std::string("energy.joules.") +
            energy::to_string(static_cast<energy::EnergyCategory>(c)));
        prev_energy[c] = energy_counters[c]->value();
      }
    }

    const std::size_t param_count = sys.model.parameter_count();
    down_msg.payload_bytes = ml::wire_size(param_count);
    up_msg = down_msg;
    if (ml::valid_quant_bits(sys.upload_quant_bits)) {
      up_msg.payload_bytes =
          ml::quantized_wire_size(param_count, sys.upload_quant_bits);
    }

    if (sys.straggler_persistent && sys.straggler_fraction > 0.0) {
      // The O(N) array only exists when the knob is on (it is one of the
      // few remaining per-server allocations).
      persistent_slowdown.assign(n_servers, 1.0);
      for (auto& f : persistent_slowdown) {
        if (straggler_rng.bernoulli(sys.straggler_fraction)) {
          f = sys.straggler_slowdown;
        }
      }
    }
    if (charge_idle) {
      // K' = K + overselect servers per round at most.
      settled_upto.assign(n_servers, 0);
      settled_sids.reserve(std::min<std::size_t>(
          n_servers, (sys.fl.clients_per_round + sys.fl.overselect) *
                         std::max<std::size_t>(1, sys.fl.max_rounds)));
    }
    // CrashProcess keeps an O(N) seed array (8 B per server) — only pay
    // for it when crashes are on.
    CrashProcessConfig crash_cfg = sys.crashes;
    crash_cfg.seed =
        crash_cfg.seed * 2862933555777941757ULL + sys.seed * 977 + 3;
    if (crash_cfg.enabled()) {
      crash_process = std::make_unique<CrashProcess>(n_servers, crash_cfg);
    }
    if (async != nullptr) {
      pulled.resize(n_servers);
      eval_model = ml::make_model(sys.model);
      global.assign(eval_model->parameters().begin(),
                    eval_model->parameters().end());
      bank.configure(sys.model.lr_config());
      task.epochs = sys.fl.local_epochs;
      workers = std::min(sys.fl.clients_per_round, n_servers);
    }
  }

  EventFleetEngine& engine;
  const EventFleetEngineConfig& cfg = engine.config_;
  const FeiSystemConfig& sys = cfg.system;
  Population& population = engine.population_;
  const AsyncFeiConfig* const async;
  AsyncRunResult* const async_result;
  const std::size_t n_servers = sys.num_servers;
  const bool faults = engine.fault_injection_active();
  const bool virtual_pop = cfg.virtual_population;
  const bool charge_idle = sys.charge_idle_servers;
  const bool has_deadline = sys.round_deadline.value() > 0.0;

  EventFleetRunResult result;
  fl::TierPlan tier_plan{n_servers, cfg.tiers};
  std::unordered_map<std::size_t, std::uint32_t> mirror_of;
  std::vector<EdgeServerSim> mirrors;
  obs::Tracer* const tracer = obs::tracer();
  std::unordered_set<std::int32_t> named_tracks;
  obs::QuantileSketch* sk_round_s = nullptr;       // per-round makespan
  obs::QuantileSketch* sk_wait_s = nullptr;        // per-upload queue wait
  obs::QuantileSketch* sk_turnaround_s = nullptr;  // dispatch->delivered
  obs::QuantileSketch* sk_joules = nullptr;        // per-server run total
  obs::QuantileSketch* sk_link_wait_s = nullptr;   // per-hop queueing delay
  std::array<obs::Counter*, energy::kNumEnergyCategories> energy_counters{};
  std::array<double, energy::kNumEnergyCategories> prev_energy{};
  net::Message down_msg;
  net::Message up_msg;

  // The dispatch scan consumes these streams serially in selection order
  // (the order the FeiSystem.*MatchesGolden pins fix).
  Rng jitter_rng{sys.seed * 104729 + 5};
  Rng straggler_rng{sys.seed * 15485863 + 7};
  std::vector<double> persistent_slowdown;
  const Watts p_wait = sys.profile.power(energy::EdgeState::kWaiting);

  // Lazy idle settlement (see energy/idle_settlement.h): no O(N) sweep per
  // round.  Dense state instead of a hash map: settled_upto[sid] stores
  // (rounds already reflected in sid's row) + 1, 0 meaning never selected,
  // and settled_sids lists touched servers in first-touch order — reserved
  // for K'·T, so the per-selection path never allocates, and the end-of-run
  // fold iterates only touched servers (per-row charges, so order cannot
  // change bits).
  energy::IdleChargeSchedule idle_schedule{p_wait};
  std::vector<std::uint32_t> settled_upto;
  std::vector<std::uint32_t> settled_sids;

  // Typed event queue and per-round tier completion state.  Dense tier
  // tables replace per-round ordered maps: node state is indexed by
  // gateway/region id, and the per-round active-id lists both bound the
  // reset cost to O(touched) and provide the deterministic iteration order.
  CalendarQueue<FleetEvent> queue;
  struct TierNodeState {
    std::size_t remaining = 0;  // children not yet resolved this round
    std::size_t members = 0;    // children active this round
    Seconds last{0.0};          // latest child resolution time
  };
  struct TierTable {
    std::vector<TierNodeState> nodes;
    std::vector<std::uint32_t> active;  // this round's nodes, first touch first
    // One more member of node `id`; true if it is the node's first.
    bool add_member(std::size_t id) {
      TierNodeState& n = nodes[id];
      if (n.members == 0) active.push_back(static_cast<std::uint32_t>(id));
      ++n.remaining;
      return n.members++ == 0;
    }
    void reset() {
      for (const std::uint32_t id : active) nodes[id] = {};
      active.clear();
    }
  };
  TierTable gateways{std::vector<TierNodeState>(tier_plan.num_gateways()), {}};
  TierTable regions{std::vector<TierNodeState>(tier_plan.num_regions()), {}};
  TierNodeState root;  // its members are the round's active regions
  Seconds root_done{0.0};

  // Multi-hop backhaul graph.  Tier plan → graph mapping: one gateway node
  // per tier-plan gateway, one backhaul node per region, one coordinator
  // node; links follow the aggregation tree.  At N = 1M the graph holds
  // ~16k nodes — the device → gateway leg stays the access-medium model
  // (WifiLan), so no O(N) per-device nodes are ever materialized.  Nodes
  // are numbered in insertion order: gateway g is node g, region r is node
  // G + r, and the coordinator comes last.
  net::NetGraph net_graph;
  net::Router router{&net_graph};
  std::vector<net::LinkQueue> link_queues;
  std::size_t coordinator_node = 0;
  // Per-round link aggregates, maintained incrementally by hop_arrival;
  // touched_links dedups via a round epoch so round-end cost is
  // O(touched), never O(links).
  struct RoundLinkStats {
    std::size_t msgs = 0;
    std::size_t drops = 0;
    double wait_s = 0.0;
  };
  RoundLinkStats round_links;
  std::vector<double> link_busy_prev;  // cumulative busy at last round end
  std::vector<std::uint32_t> link_epoch;
  std::vector<std::size_t> touched_links;
  std::uint32_t round_epoch = 0;

  // Round state shared by the scan and the dispatch: the FCFS chain, the
  // round end watermark, the deadline, the round's fault counters and the
  // updates the scan may veto.  All round-scoped — every event fires
  // inside its own round's drain.
  Seconds clock{0.0};
  Seconds round_start_time{0.0};
  std::size_t current_round = 0;
  Seconds lan_free{0.0};
  Seconds round_end{0.0};
  Seconds deadline{0.0};
  fl::RoundFaultStats round_stats;
  fl::PendingUpdates round_updates;
  std::size_t round_events = 0;
  double round_link_util = 0.0;

  // Transfer fault plans draw from per-(server, round) counted RNG
  // streams, so a server's fault fate does not depend on which other
  // servers the scan visited before it.
  const RngStreamFamily fault_streams{sys.net.link_faults.seed *
                                          0x9e3779b97f4a7c15ULL +
                                      sys.seed * 7349 + 101};
  std::unique_ptr<CrashProcess> crash_process;
  // Virtual mode never materializes per-server channels: every server
  // shares the WifiLanConfig, and with loss_probability == 0 a transfer's
  // duration IS the nominal duration (one attempt, no loss roll), so the
  // shared model reproduces the per-server objects' bits exactly.
  net::WifiLan shared_lan{sys.net.lan, Rng(0)};

  // Async only.  pulled[k] holds the model server k took at its dispatch
  // and the version it was (one task in flight per server).
  struct Pulled {
    std::vector<double> model;
    std::size_t version = 0;
  };
  std::vector<Pulled> pulled;
  std::unique_ptr<ml::Model> eval_model;
  std::vector<double> global;
  ml::ModelBank bank;
  ml::ModelBank::Task task;
  std::size_t version = 0;  // bumps on every applied update
  std::size_t workers = 0;
  std::optional<Seconds> stop_time;

  void name_track(std::int32_t pid, std::string name) {
    if (tracer != nullptr && named_tracks.insert(pid).second) {
      tracer->set_track_name(pid, std::move(name));
    }
  }

  Status build_backhaul() {
    if (!cfg.multi_hop) return Status::success();
    const std::size_t n_gateways = tier_plan.num_gateways();
    const std::size_t n_regions = tier_plan.num_regions();
    for (std::size_t g = 0; g < n_gateways; ++g) {
      net_graph.add_node(net::NodeKind::kGateway);
    }
    for (std::size_t r = 0; r < n_regions; ++r) {
      net_graph.add_node(net::NodeKind::kBackhaul);
    }
    coordinator_node = net_graph.add_node(net::NodeKind::kCoordinator);
    for (std::size_t g = 0; g < n_gateways; ++g) {
      const auto lid = net_graph.add_link(
          g, n_gateways + tier_plan.region_of_gateway(g), cfg.gateway_uplink);
      if (!lid.ok()) return lid.error();
    }
    for (std::size_t r = 0; r < n_regions; ++r) {
      const auto lid = net_graph.add_link(n_gateways + r, coordinator_node,
                                          cfg.backhaul_uplink);
      if (!lid.ok()) return lid.error();
    }
    if (const auto st = router.add_destination(coordinator_node); !st.ok()) {
      return st;
    }
    link_queues.reserve(net_graph.num_links());
    for (std::size_t l = 0; l < net_graph.num_links(); ++l) {
      link_queues.emplace_back(net_graph.link(l).config);
    }
    link_busy_prev.assign(net_graph.num_links(), 0.0);
    link_epoch.assign(net_graph.num_links(), 0);
    result.num_links = net_graph.num_links();
    if (obs::Telemetry* tel = obs::telemetry()) {
      tel->metrics.gauge("fleet.links")
          .set(static_cast<double>(net_graph.num_links()));
    }
    return Status::success();
  }

  // ---- round start and idle settlement --------------------------------------
  // Charges sid's idle rounds that its ledger row does not reflect yet.
  void settle_idle(std::size_t sid) {
    std::uint32_t& s = settled_upto[sid];
    const auto charges = idle_schedule.per_round();
    for (std::size_t r = (s == 0 ? 0 : s - 1); r < charges.size(); ++r) {
      result.ledger.charge(sid, energy::EnergyCategory::kWaiting, charges[r]);
    }
    s = static_cast<std::uint32_t>(charges.size()) + 1;
  }

  void begin_round(std::size_t round, std::span<const fl::ClientId> selected) {
    round_start_time = clock;
    current_round = round;
    deadline = round_start_time + sys.round_deadline;
    queue.reset_high_water();  // per-round queue-depth window
    gateways.reset();
    regions.reset();
    // Direct dense fill of the round participation (the block arithmetic
    // TierPlan::participation() sorts into maps): per gateway the number
    // of selected members, per region the number of active gateways, at
    // the root the number of active regions — selection never repeats a
    // server, so counting occurrences equals counting distinct members.
    for (const auto sid : selected) {
      const std::size_t gid = tier_plan.gateway_of(sid);
      if (gateways.add_member(gid)) {
        regions.add_member(tier_plan.region_of_gateway(gid));
      }
    }
    root = {.remaining = regions.active.size()};
    root_done = round_start_time;
    round_links = RoundLinkStats{};
    touched_links.clear();
    ++round_epoch;
    if (charge_idle) {
      for (const auto sid : selected) {
        if (settled_upto[sid] == 0) {
          settled_sids.push_back(static_cast<std::uint32_t>(sid));
        }
        settle_idle(sid);
        // Skips the round now starting: the server is active, not idle.
        ++settled_upto[sid];
      }
    }
    lan_free = round_start_time;
    round_end = round_start_time;
    round_stats = fl::RoundFaultStats{};
  }

  // ---- the dispatch scan: timing, booking and drops -------------------------
  Seconds jittered(Seconds nominal) {
    if (sys.timing_jitter <= 0.0) return nominal;
    return nominal *
           std::max(0.5, 1.0 + jitter_rng.normal(0.0, sys.timing_jitter));
  }
  double straggler_factor(std::size_t sid) {
    if (sys.straggler_fraction <= 0.0) return 1.0;
    if (sys.straggler_persistent) return persistent_slowdown[sid];
    return straggler_rng.bernoulli(sys.straggler_fraction)
               ? sys.straggler_slowdown
               : 1.0;
  }
  // Deadline clamp for round-end and FCFS watermarks.
  Seconds capped(Seconds at) const {
    return has_deadline ? std::min(at, deadline) : at;
  }
  // Air time a phase that ran from `start` to `finish` spent before `cut`
  // (the round deadline, or the async stop).
  static Seconds cut_at(Seconds cut, Seconds start, Seconds finish,
                        Seconds air) {
    if (finish <= cut) return air;
    const double frac = (cut - start) / (finish - start);
    return air * std::clamp(frac, 0.0, 1.0);
  }

  void run_phase(std::size_t sid, energy::EdgeState state, Seconds start,
                 Seconds duration) {
    if (cfg.per_server_accumulators) {
      result.accumulators[sid].run_phase(state, start, duration);
    }
    if (const auto it = mirror_of.find(sid); it != mirror_of.end()) {
      mirrors[it->second].run_phase(state, start, duration);
    }
  }
  // Charges `scale · whole` under `category`, its retransmitted share
  // `scale · wasted` first, as kRetry.
  template <class Scale, class Amount>
  void charge_split(std::size_t sid, energy::EnergyCategory category,
                    Scale scale, Amount whole, Amount wasted) {
    if (wasted.value() > 0.0) {
      result.ledger.charge(sid, energy::EnergyCategory::kRetry,
                           scale * wasted);
      result.ledger.charge(sid, category, scale * (whole - wasted));
    } else {
      result.ledger.charge(sid, category, scale * whole);
    }
  }
  // Books a completed phase event: its timeline phase, and its energy with
  // the retransmitted share (t2) as kRetry.
  void book_phase(const FleetEvent& ev, energy::EdgeState state,
                  energy::EnergyCategory category) {
    run_phase(ev.a, state, ev.t0, ev.t1);
    charge_split(ev.a, category, sys.profile.power(state), ev.t1, ev.t2);
  }
  // Books `ran` of an interrupted phase that started at `start`.
  void book_aborted(std::size_t sid, energy::EdgeState state, Seconds start,
                    Seconds ran) {
    if (ran.value() <= 0.0) return;
    result.ledger.charge(sid, energy::EnergyCategory::kAborted,
                         sys.profile.power(state) * ran);
    run_phase(sid, state, start, ran);
  }

  // One access-medium leg starting at `start`.  Under faults its timing is
  // planned over the per-(server, round) fault stream from the nominal
  // duration (the WifiLan's own loss model stays unused); otherwise it is
  // the WifiLan transfer, delivered at its first attempt.  Either way
  // jittered() consumes exactly one normal per leg.
  using Leg = net::FaultTransferOutcome;
  Leg leg(std::size_t sid, bool upload, Seconds start) {
    const net::Message& msg = upload ? up_msg : down_msg;
    if (faults) {
      const Seconds nominal =
          virtual_pop ? shared_lan.nominal_duration(msg.wire_bytes())
                      : population.topology().lan(sid).nominal_duration(
                            msg.wire_bytes());
      Rng stream =
          fault_streams.stream(current_round, sid * 2 + (upload ? 1 : 0));
      return net::plan_faulty_transfer(stream, sys.net.link_faults, start,
                                       jittered(nominal));
    }
    Seconds duration{0.0};
    Seconds wasted{0.0};
    if (virtual_pop) {
      duration = shared_lan.nominal_duration(msg.wire_bytes());
    } else {
      const auto r = population.topology().lan(sid).transfer(msg);
      duration = r.duration;
      wasted = r.wasted;
    }
    const Seconds d = jittered(duration);
    // The retransmitted share scales with the jitter, never re-rolled.
    return {.delivered = true,
            .attempts = 1,
            .finish = start + d,
            .air_time = d,
            .wasted_air_time = wasted.value() > 0.0 ? d * (wasted / duration)
                                                    : Seconds{0.0}};
  }
  // Runs update i's leg from `start`, advancing the FCFS chain.  A leg the
  // deadline cuts or that is never delivered schedules the kDropped that
  // resolves its server and yields nullopt.
  std::optional<Leg> checked_leg(std::size_t i, std::size_t sid, bool upload,
                                 Seconds start) {
    const Leg l = leg(sid, upload, start);
    round_stats.retries += l.retries();
    lan_free = capped(l.finish);
    const auto state = upload ? energy::EdgeState::kUploading
                              : energy::EdgeState::kDownloading;
    if (has_deadline && l.finish > deadline) {
      schedule_drop(i, sid, DropReason::kDeadline, deadline, state, start,
                    cut_at(deadline, start, l.finish, l.air_time));
      return std::nullopt;
    }
    if (!l.delivered) {
      schedule_drop(i, sid, DropReason::kLost, l.finish, state, start,
                    l.air_time);
      return std::nullopt;
    }
    return l;
  }

  // Per DropReason: the trace instant and the round counter it bumps.
  struct DropKind {
    const char* trace;
    std::size_t fl::RoundFaultStats::*counter;
  };
  static constexpr DropKind kDropKinds[] = {
      {"server.down", &fl::RoundFaultStats::crashed_servers},
      {"deadline.drop", &fl::RoundFaultStats::straggler_drops},
      {"update.lost", &fl::RoundFaultStats::aborted_updates},
      {"server.crash", &fl::RoundFaultStats::crashed_servers}};
  // A selected server that will not upload this round: vetoes its update,
  // counts it, and returns the kDropped event that books and resolves it
  // at `at`.  Only reachable with a fault knob on.
  FleetEvent drop_event(std::size_t i, std::size_t sid, DropReason why,
                        Seconds at,
                        energy::EdgeState state = energy::EdgeState::kWaiting,
                        Seconds start = Seconds{0.0},
                        Seconds ran = Seconds{0.0}) {
    assert(i < round_updates.size());
    round_updates.veto(i);
    ++(round_stats.*kDropKinds[static_cast<std::size_t>(why)].counter);
    round_end = std::max(round_end, capped(at));
    return FleetEvent{
        FleetEventKind::kDropped, static_cast<std::uint32_t>(sid),
        drop_code(why, static_cast<std::uint32_t>(state)), start, ran};
  }
  // drop_event, scheduled at its own `at`.
  template <class... Phase>
  void schedule_drop(std::size_t i, std::size_t sid, DropReason why,
                     Seconds at, Phase... phase) {
    queue.schedule_at(at, drop_event(i, sid, why, at, phase...));
  }
  void resolve_dropped(const FleetEvent& ev, Seconds at) {
    const std::size_t sid = ev.a;
    book_aborted(sid, static_cast<energy::EdgeState>(ev.b & 0xff), ev.t0,
                 ev.t1);
    if (tracer != nullptr && mirror_of.contains(sid)) {
      tracer->sim_instant(kDropKinds[ev.b >> 8].trace, "sim.fault",
                          obs::Tracer::server_pid(sid), at);
    }
    resolve_member(sid, at);
  }

  // Times one task's download from `download_start` and its training right
  // after, and schedules their events; a fault (deadline, crash, lost
  // transfer) schedules the kDropped that resolves the server instead.  The
  // round scan calls it in selection order (`i` indexes the round's
  // updates), async at each dispatch; either way the jitter and straggler
  // streams are drawn here, the download's first.
  void start_task(std::size_t i, std::size_t sid, Seconds download_start,
                  Seconds nominal_train) {
    if (has_deadline && download_start >= deadline) {
      schedule_drop(i, sid, DropReason::kDeadline, deadline);
      return;
    }
    const auto down = checked_leg(i, sid, /*upload=*/false, download_start);
    if (!down) return;
    const auto id = static_cast<std::uint32_t>(sid);
    const auto index = static_cast<std::uint32_t>(i);
    queue.schedule_at(down->finish,
                      FleetEvent{FleetEventKind::kDownloadDone, id, index,
                                 download_start, down->air_time,
                                 down->wasted_air_time});

    const Seconds train_start = down->finish;
    Seconds t = jittered(nominal_train);
    t *= straggler_factor(sid);
    const Seconds train_end = train_start + t;
    if (crash_process) {
      if (const auto crash = crash_process->next_crash_in(
              sid, train_start, capped(train_end))) {
        schedule_drop(i, sid, DropReason::kCrash, *crash,
                      energy::EdgeState::kTraining, train_start,
                      *crash - train_start);
        return;
      }
    }
    if (has_deadline && train_end > deadline) {
      schedule_drop(i, sid, DropReason::kDeadline, deadline,
                    energy::EdgeState::kTraining, train_start,
                    deadline - train_start);
      return;
    }
    queue.schedule_at(train_end, FleetEvent{FleetEventKind::kEpochDone, id,
                                            index, train_start, t});
  }

  // One round: the dispatch scan, then the drain.  The scan books step 1
  // (IoT collection) and times each selected server's download and
  // training in selection order, which is the order the jitter and
  // straggler streams and the FCFS chain are consumed in.  Every other
  // booking lands on its event boundary.  A failure (crash, deadline, lost
  // transfer) resolves its aggregation tier through a kDropped event; a
  // reboot is implicit: CrashProcess's down interval ends and the server is
  // selectable again.
  void run_round(std::size_t round, std::span<const fl::ClientId> selected) {
    begin_round(round, selected);
    for (std::size_t i = 0; i < selected.size(); ++i) {
      const std::size_t sid = selected[i];
      if (sys.iot_collection) {
        const auto collected = population.topology().fleet(sid).collect(
            round_updates.samples_used(i));
        charge_split(sid, energy::EnergyCategory::kDataCollection, 1.0,
                     collected.total_energy, collected.wasted_energy);
      }
      if (crash_process && crash_process->is_down(sid, round_start_time)) {
        schedule_drop(i, sid, DropReason::kServerDown, round_start_time);
        continue;
      }
      start_task(i, sid, lan_free,
                 sys.timing.duration(round_updates.epochs_run(i),
                                     round_updates.samples_used(i)));
    }

    round_events = queue.run(
        [this](const FleetEvent& ev, Seconds at) { dispatch(ev, at); });
    result.events_processed += round_events;
    result.queue_high_water =
        std::max(result.queue_high_water, queue.high_water());
    // Every leg ends at or before its server's resolution, so the last
    // resolution bounds the FCFS chain too.
    clock = std::max(round_end, root_done);

    // Per-round link utilization: busy-time delta over the round span,
    // maxed across the links this round actually touched (none without
    // multi-hop, where every link total stays zero).
    round_link_util = 0.0;
    const double span = (clock - round_start_time).value();
    for (const std::size_t lid : touched_links) {
      const double busy = link_queues[lid].stats().busy.value();
      if (span > 0.0) {
        round_link_util =
            std::max(round_link_util,
                     std::min(1.0, (busy - link_busy_prev[lid]) / span));
      }
      link_busy_prev[lid] = busy;
    }
    result.link_messages += round_links.msgs;
    result.link_drops += round_links.drops;
    result.link_wait += Seconds{round_links.wait_s};
    result.link_util_peak = std::max(result.link_util_peak, round_link_util);

    if (charge_idle) idle_schedule.push_round(clock - round_start_time);
  }

  // ---- the typed dispatch and tier resolution -------------------------------
  // A tier node hears from one more member at `at`; when it was the last,
  // the node completes `latency` after its latest member.
  void resolve(TierNodeState& node, Seconds latency, FleetEvent done,
               Seconds at) {
    node.last = std::max(node.last, at);
    if (--node.remaining == 0) queue.schedule_at(node.last + latency, done);
  }
  // A member "resolves" its gateway by uploading — or, on the fault path,
  // by definitively failing (crash, deadline, lost transfer): either way
  // the gateway knows it will hear nothing more from it this round.
  void resolve_member(std::size_t sid, Seconds at) {
    const std::size_t gid = tier_plan.gateway_of(sid);
    resolve(gateways.nodes[gid], cfg.gateway_latency,
            {FleetEventKind::kGatewayDone, static_cast<std::uint32_t>(gid)},
            at);
  }
  // The aggregation span of a completed region or gateway, on its track.
  void trace_tier(bool region, std::size_t id, Seconds at) {
    if (tracer == nullptr) return;
    const std::int32_t pid = region ? obs::Tracer::tier_region_pid(id)
                                    : obs::Tracer::tier_gateway_pid(id);
    name_track(pid, (region ? "fleet_region_" : "fleet_gateway_") +
                        std::to_string(id));
    tracer->sim_span(
        region ? "fleet.region.aggregate" : "fleet.gateway.aggregate",
        "sim.tier", pid, round_start_time, at - round_start_time,
        {{"round", static_cast<double>(current_round)},
         {region ? "gateways" : "devices",
          static_cast<double>(
              (region ? regions : gateways).nodes[id].members)}});
  }

  // Per-kind field mapping is documented in sim/fleet_event.h.  `at` is the
  // scheduled time itself: the engine's monotone round structure means the
  // queue's past-time clamp never rewrites it.
  void dispatch(const FleetEvent& ev, Seconds at) {
    switch (ev.kind) {
      case FleetEventKind::kRootDone:
        root_done = at;
        if (tracer != nullptr) {
          tracer->sim_span(
              "fleet.root.aggregate", "sim.tier", obs::Tracer::kTierRootPid,
              round_start_time, at - round_start_time,
              {{"round", static_cast<double>(current_round)}});
        }
        break;
      case FleetEventKind::kRegionDone:
        trace_tier(/*region=*/true, ev.a, at);
        resolve(root, cfg.root_latency, FleetEvent{FleetEventKind::kRootDone},
                at);
        break;
      case FleetEventKind::kGatewayDone: {
        trace_tier(/*region=*/false, ev.a, at);
        const std::size_t rid = tier_plan.region_of_gateway(ev.a);
        resolve(regions.nodes[rid], cfg.region_latency,
                {FleetEventKind::kRegionDone, static_cast<std::uint32_t>(rid)},
                at);
        break;
      }
      case FleetEventKind::kHopArrival:
        hop_arrival(ev.a, ev.b, at);
        break;
      case FleetEventKind::kDownloadDone:
        book_phase(ev, energy::EdgeState::kDownloading,
                   energy::EnergyCategory::kDownload);
        break;
      case FleetEventKind::kEpochDone:
        epoch_done(ev, at);
        break;
      case FleetEventKind::kUploadDone: {
        const std::size_t sid = ev.a;
        book_phase(ev, energy::EdgeState::kUploading,
                   energy::EnergyCategory::kUpload);
        if (async != nullptr) {
          async_upload_done(sid, at);
          break;
        }
        if (sk_turnaround_s != nullptr) {
          sk_turnaround_s->record((at - round_start_time).value());
        }
        if (cfg.multi_hop) {
          hop_arrival(tier_plan.gateway_of(sid), sid, at);
        } else {
          resolve_member(sid, at);
        }
        break;
      }
      case FleetEventKind::kDropped:
        resolve_dropped(ev, at);
        break;
    }
  }

  // Books training, then runs the upload leg against the access medium at
  // the actual train end: the queue's FIFO drains uploads in (train_end,
  // selection index) order.
  void epoch_done(const FleetEvent& ev, Seconds train_end) {
    const std::size_t sid = ev.a;
    book_phase(ev, energy::EdgeState::kTraining,
               energy::EnergyCategory::kTraining);
    Seconds upload_start = train_end;
    if (async == nullptr) {  // uploads queue behind the FCFS chain
      upload_start = std::max(train_end, lan_free);
      const Seconds queue_wait = capped(upload_start) - train_end;
      if (queue_wait.value() > 0.0) {
        result.ledger.charge(sid, energy::EnergyCategory::kWaiting,
                             p_wait * queue_wait);
      }
      if (sk_wait_s != nullptr) sk_wait_s->record(queue_wait.value());
    }
    if (has_deadline && upload_start >= deadline) {
      resolve_dropped(drop_event(ev.b, sid, DropReason::kDeadline, deadline),
                      deadline);
      return;
    }
    const auto up = checked_leg(ev.b, sid, /*upload=*/true, upload_start);
    if (!up) return;
    round_end = std::max(round_end, capped(up->finish));
    queue.schedule_at(up->finish,
                      FleetEvent{FleetEventKind::kUploadDone, ev.a, ev.b,
                                 upload_start, up->air_time,
                                 up->wasted_air_time});
  }

  // ---- multi-hop hops -------------------------------------------------------
  // Hop-by-hop forwarding: each admission schedules the next hop's arrival
  // as an event, so queueing delay accumulates along the path and
  // congestion emerges from the round's offered load.  Hop events charge
  // no energy and consume no RNG; with the default zero-config links every
  // admission is instantaneous (wait 0, arrive == at), which is why the
  // zero-config twin reproduces the point-to-point bits exactly.
  void hop_arrival(std::size_t node, std::size_t sid, Seconds at) {
    if (node == coordinator_node) {
      resolve_member(sid, at);
      return;
    }
    const std::size_t lid = router.next_link(node, coordinator_node);
    assert(lid != net::Router::kNoRoute);
    const auto adm = link_queues[lid].offer(at, up_msg.wire_bytes());
    if (link_epoch[lid] != round_epoch) {
      link_epoch[lid] = round_epoch;
      touched_links.push_back(lid);
    }
    if (!adm.accepted) {
      // Bounded queue full: the update is lost in the backhaul.  The
      // member still resolves — at the drop time — so the tier chain
      // completes; fault-free aggregation is never vetoed (drops are a
      // timing/telemetry outcome, like tier latencies).
      ++round_links.drops;
      resolve_member(sid, at);
      return;
    }
    ++round_links.msgs;
    round_links.wait_s += adm.wait.value();
    if (sk_link_wait_s != nullptr) sk_link_wait_s->record(adm.wait.value());
    const std::size_t next_node = net_graph.link(lid).to;
    queue.schedule_at(adm.arrive,
                      FleetEvent{FleetEventKind::kHopArrival,
                                 static_cast<std::uint32_t>(next_node),
                                 static_cast<std::uint32_t>(sid)});
  }

  // ---- async: dispatch, upload-done, the stop cut ---------------------------
  // Seeds the worker pool with distinct servers; every upload-done then
  // re-dispatches its server until the stop, and the drain cuts what is
  // left.
  void run_async() {
    Rng pick_rng(sys.seed * 7727 + 3);
    std::vector<std::size_t> ids(n_servers);
    std::iota(ids.begin(), ids.end(), std::size_t{0});
    pick_rng.shuffle(ids);
    for (std::size_t w = 0; w < workers; ++w) async_dispatch(ids[w], {});
    result.events_processed =
        queue.run([this](const FleetEvent& ev, Seconds at) {
          stop_time ? cut_at_stop(ev, at) : dispatch(ev, at);
        });
    clock = stop_time.value_or(queue.now());
    async_result->updates_applied = async_result->updates.size();
  }
  // Pulls ω and starts a task at `now`: the download starts at once.
  void async_dispatch(std::size_t sid, Seconds now) {
    pulled[sid].model.assign(global.begin(), global.end());
    pulled[sid].version = version;
    start_task(0, sid, now,
               sys.timing.duration(sys.fl.local_epochs,
                                   population.clients()[sid].num_samples()));
  }
  // Trains the task on the model its server pulled, mixes it into ω with
  // α_s = α·(1 + staleness)^(−a) and re-dispatches the server.
  void async_upload_done(std::size_t sid, Seconds at) {
    const std::size_t applied = async_result->updates.size();
    task.batch = population.clients()[sid].local_batch();
    task.learning_rate =
        sys.sgd.learning_rate *
        std::pow(sys.sgd.decay, static_cast<double>(applied / workers));
    bank.train(pulled[sid].model, {&task, 1});
    const auto update = bank.params_of(0);
    const std::size_t staleness = version - pulled[sid].version;
    const double alpha_s =
        async->mixing_alpha / std::pow(1.0 + static_cast<double>(staleness),
                                       async->staleness_exponent);
    for (std::size_t p = 0; p < global.size(); ++p) {
      global[p] = (1.0 - alpha_s) * global[p] + alpha_s * update[p];
    }
    ++version;

    AsyncUpdateRecord& rec = async_result->updates.emplace_back(
        AsyncUpdateRecord{applied, sid, staleness, alpha_s, at});
    if (applied % async->eval_every == 0 ||
        applied + 1 == async->max_updates) {
      std::copy(global.begin(), global.end(),
                eval_model->parameters().begin());
      const auto eval = eval_model->evaluate(population.test_set().view());
      rec.global_loss = async_result->final_loss = eval.loss;
      rec.test_accuracy = async_result->final_accuracy = eval.accuracy;
      async_result->reached_target =
          sys.fl.target_accuracy.has_value() &&
          eval.accuracy >= *sys.fl.target_accuracy;
    }
    if (obs::Telemetry* tel = obs::telemetry()) {
      tel->tracer.sim_instant(
          "update.applied", "sim.async", obs::Tracer::kCoordinatorPid, at,
          {{"update", static_cast<double>(applied)},
           {"server", static_cast<double>(sid)},
           {"staleness", static_cast<double>(staleness)},
           {"alpha", alpha_s}});
      tel->metrics.counter("async.updates").increment();
    }
    if (async_result->reached_target || applied + 1 >= async->max_updates) {
      stop_time = at;
    } else {
      async_dispatch(sid, at);
    }
  }
  // After the stop, each pending phase books the part that ran before it as
  // kAborted; a pending epoch-done or upload-done is a cancelled task.
  void cut_at_stop(const FleetEvent& ev, Seconds at) {
    assert(ev.kind == FleetEventKind::kDownloadDone ||
           ev.kind == FleetEventKind::kEpochDone ||
           ev.kind == FleetEventKind::kUploadDone);
    const std::size_t sid = ev.a;
    const auto state = ev.kind == FleetEventKind::kDownloadDone
                           ? energy::EdgeState::kDownloading
                       : ev.kind == FleetEventKind::kEpochDone
                           ? energy::EdgeState::kTraining
                           : energy::EdgeState::kUploading;
    book_aborted(sid, state, ev.t0, cut_at(*stop_time, ev.t0, at, ev.t1));
    if (ev.kind == FleetEventKind::kDownloadDone) return;
    ++async_result->cancelled_tasks;
    if (obs::Telemetry* tel = obs::telemetry()) {
      tel->tracer.sim_instant("task.cancelled", "sim.async",
                              obs::Tracer::server_pid(sid), *stop_time);
      tel->metrics.counter("async.cancelled").increment();
    }
  }

  // ---- the synchronous rounds: the coordinator wiring -----------------------
  Status run_coordinator() {
    fl::CoordinatorConfig fl_cfg = sys.fl;
    fl_cfg.upload_quant_bits = sys.upload_quant_bits;
    fl_cfg.update_drop_probability = sys.update_drop_probability;
    fl_cfg.drop_seed = sys.seed * 2654435761 + 13;
    std::unique_ptr<fl::SelectionPolicy> policy;
    if (cfg.scalable_selection) {
      policy = std::make_unique<fl::ScalableUniformSelection>(
          Rng(sys.seed * 613 + 29));
    } else {
      policy = std::make_unique<fl::UniformRandomSelection>(
          Rng(sys.seed * 613 + 29));
    }

    std::unique_ptr<fl::ClientPool> clients;
    if (virtual_pop) {
      fl::ClientConfig ccfg;
      ccfg.model = sys.model;
      ccfg.sgd = sys.sgd;
      clients = std::make_unique<fl::LazyClientPool>(
          n_servers, &population.shards(), ccfg);
    } else {
      clients = std::make_unique<fl::DenseClientPool>(&population.clients());
    }
    fl::Coordinator coordinator(clients.get(), &population.test_set(), fl_cfg,
                                std::move(policy));
    // The scan is the coordinator's update filter: it runs on this thread
    // while the pool's helpers train the round, and its vetoes (none without
    // a fault knob) decide which updates the coordinator averages.
    coordinator.set_update_filter(
        [this](std::size_t round, std::span<const fl::ClientId> selected,
               fl::PendingUpdates updates) {
          round_updates = updates;
          run_round(round, selected);
          round_updates = {};
          return round_stats;
        });
    coordinator.set_round_observer(
        [this](const fl::RoundRecord& record,
               std::span<const fl::LocalTrainResult> /*updates*/) {
          record_round(record);
        });
    if (sys.fl.checkpoint_every != 0) {
      coordinator.set_checkpoint_sink([this](const fl::TrainingCheckpoint& cp) {
        result.last_checkpoint = cp;
      });
    }
    if (engine.resume_.has_value()) coordinator.resume_from(*engine.resume_);

    auto outcome = coordinator.run();
    if (!outcome.ok()) return outcome.error();
    result.training = std::move(outcome).value();
    for (const auto& r : result.training.record.all()) {
      result.total_retries += r.retries;
      result.total_aborted_updates += r.aborted_updates;
      result.total_straggler_drops += r.straggler_drops;
      result.total_crashed_servers += r.crashed_servers;
    }
    return Status::success();
  }

  // ---- telemetry: one row and round span per round --------------------------
  // Written after aggregation, so `aggregated` is what the coordinator
  // actually averaged (fault vetoes and its own drop roll included).  O(1)
  // per round.
  void record_round(const fl::RoundRecord& record) {
    obs::Telemetry* tel = obs::telemetry();
    if (tel == nullptr) return;
    const std::size_t dropped = record.straggler_drops +
                                record.aborted_updates +
                                record.crashed_servers;
    tel->tracer.sim_span(
        "round", "sim.round", obs::Tracer::kCoordinatorPid, round_start_time,
        clock - round_start_time,
        {{"round", static_cast<double>(record.round)},
         {"selected", static_cast<double>(record.selected.size())},
         {"accuracy", record.test_accuracy},
         {"loss", record.global_loss},
         {"retries", static_cast<double>(record.retries)},
         {"dropped", static_cast<double>(dropped)}});
    tel->metrics.counter("fleet.rounds").increment();
    tel->metrics.counter("fleet.selected")
        .add(static_cast<double>(record.selected.size()));
    tel->metrics.counter("fleet.events")
        .add(static_cast<double>(round_events));
    obs::RoundStats rs;
    rs.round = static_cast<double>(record.round);
    rs.start_s = round_start_time.value();
    rs.duration_s = (clock - round_start_time).value();
    rs.selected = static_cast<double>(record.selected.size());
    rs.aggregated = static_cast<double>(record.updates_aggregated);
    rs.stragglers = static_cast<double>(record.straggler_drops);
    rs.crashes = static_cast<double>(record.crashed_servers);
    rs.retries = static_cast<double>(record.retries);
    rs.aborted = static_cast<double>(record.aborted_updates);
    rs.events = static_cast<double>(round_events);
    rs.queue_peak = static_cast<double>(queue.high_water());
    rs.gateways = static_cast<double>(gateways.active.size());
    rs.link_msgs = static_cast<double>(round_links.msgs);
    rs.link_wait_s = round_links.wait_s;
    rs.link_util_max = round_link_util;
    rs.link_drops = static_cast<double>(round_links.drops);
    // Per-category joules come from the energy.joules.* counter deltas
    // (idle settlement is lazy, so non-selected servers' waiting energy
    // lands in the rounds where it is folded, i.e. at end of run).
    std::array<double*, energy::kNumEnergyCategories> cols = {
        &rs.energy_data_collection_j, &rs.energy_waiting_j,
        &rs.energy_download_j,        &rs.energy_training_j,
        &rs.energy_upload_j,          &rs.energy_retry_j,
        &rs.energy_aborted_j};
    for (std::size_t c = 0; c < energy::kNumEnergyCategories; ++c) {
      const double now = energy_counters[c]->value();
      *cols[c] = now - prev_energy[c];
      rs.energy_j += now - prev_energy[c];
      prev_energy[c] = now;
    }
    if (sk_round_s != nullptr) sk_round_s->record(rs.duration_s);
    tel->rounds.append(rs);
  }

  // ---- end of run: idle fold, joules sketch, closing the timelines ----------
  EventFleetRunResult finish() {
    result.wall_clock = clock;
    if (charge_idle) {
      // Selected servers replay their outstanding idle rounds in round
      // order (per-row, so iteration order cannot change any bits).
      // materialize() first: a server whose only selection ended in a
      // pre-round crash may have an empty replay AND no direct charges, and
      // such a row must not receive the never-selected bulk fold below.
      for (const std::uint32_t sid : settled_sids) {
        result.ledger.materialize(sid);
        settle_idle(sid);
      }
      // Never-selected servers get the whole run's idle energy through the
      // ledger's shared baseline row: ONE O(1) add instead of the O(N)
      // per-row sweep (0.0 + x == x, so every readable value is bitwise
      // what the sweep produced).  The telemetry counter takes one add of
      // untouched_total × count too, so energy.joules.waiting matches
      // category_total to rounding, not bitwise (its sum is ordered by
      // charge and by counter shard, the ledger's by server).
      const Joules untouched_total = idle_schedule.all_rounds_total();
      if (obs::Telemetry* tel = obs::telemetry()) {
        const std::size_t untouched = n_servers - settled_sids.size();
        tel->metrics
            .counter(std::string("energy.joules.") +
                     energy::to_string(energy::EnergyCategory::kWaiting))
            .add(untouched_total.value() * static_cast<double>(untouched));
        tel->metrics.counter("fleet.idle_charges")
            .add(static_cast<double>(n_servers));
      }
      result.ledger.charge_untouched(energy::EnergyCategory::kWaiting,
                                     untouched_total);
    }

    // Joules-per-server distribution: one read-only sharded pass over the
    // settled ledger.  Telemetry-gated, so untraced runs never pay it; the
    // bulk recorder (one local bucket run per shard, no log per value)
    // keeps the traced N = 1M pass inside the 5% overhead budget.
    if (sk_joules != nullptr) {
      std::size_t stride = 1;
      if (const std::size_t cap = cfg.joules_sample_cap;
          cap != 0 && n_servers > cap) {
        stride = n_servers / cap;
        if (stride % 2 == 0) ++stride;  // coprime with pow-2 pool periods
      }
      engine.for_each_shard(
          (n_servers + stride - 1) / stride,
          [&](std::size_t lo, std::size_t hi) {
            obs::QuantileSketch::BulkRecorder rec(*sk_joules);
            for (std::size_t k = lo; k < hi; ++k) {
              rec.record(result.ledger.server_total(k * stride).value());
            }
          });
    }

    // Close every tracked timeline at the makespan.
    if (cfg.per_server_accumulators) {
      engine.for_each_shard(n_servers, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k < hi; ++k) {
          result.accumulators[k].idle_until(clock);
        }
      });
    }
    result.sampled_timelines.reserve(mirrors.size());
    for (auto& m : mirrors) {
      m.idle_until(clock);
      result.sampled_timelines.push_back(m.timeline());
    }
    return std::move(result);
  }
};

// The whole run: a fresh run state, then either async's drain or the
// coordinator's rounds, then the end-of-run passes.
Result<EventFleetRunResult> EventFleetEngine::simulate(
    const AsyncFeiConfig* async, AsyncRunResult* async_result) {
  if (const auto st = prepare(); !st.ok()) return st.error();
  (void)acquire_pool();
  Run run(*this, async, async_result);
  if (const auto st = run.build_backhaul(); !st.ok()) return st.error();
  if (async != nullptr) {
    run.run_async();
  } else if (const auto st = run.run_coordinator(); !st.ok()) {
    return st.error();
  }
  return run.finish();
}

}  // namespace eefei::sim
