// The traced run (--trace 1): splits one workload's engine op across the
// layers it drives, from the outside.  Spans go around the benchmark's own
// calls into each layer's public functions; nothing inside the program is
// instrumented beyond what obs::Telemetry already records.
//
//   - the FL loop: a standalone fl::Coordinator over the workload's
//     population (the "coordinator twin"), with a timing decorator around
//     its SelectionPolicy and a RoundObserver bounding each round;
//   - the engine: ops at T and 2T rounds (fixed cost per op), at 1 and 2
//     workers (pool speedup), with and without telemetry (overhead);
//   - every other layer: a replay of its public call at the workload's
//     shapes and counts.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/synth_digits.h"
#include "energy/idle_settlement.h"
#include "energy/ledger.h"
#include "fl/aggregator.h"
#include "fl/client_pool.h"
#include "fl/coordinator.h"
#include "fl/selection.h"
#include "fl/tiering.h"
#include "ml/model_bank.h"
#include "ml/model_spec.h"
#include "ml/serialize.h"
#include "net/graph.h"
#include "net/link_queue.h"
#include "net/router.h"
#include "obs/telemetry.h"
#include "sim/calendar_queue.h"
#include "sim/fleet_event.h"
#include "sim/population.h"

namespace fleetbench {
namespace {

using eefei::sim::EventFleetEngine;
using eefei::sim::EventFleetEngineConfig;

/// Times select() and marks each round's start: the coordinator selects
/// once per round, first thing.
class TimedSelection final : public eefei::fl::SelectionPolicy {
 public:
  TimedSelection(std::unique_ptr<eefei::fl::SelectionPolicy> inner,
                 std::vector<std::int64_t>* round_start,
                 std::vector<double>* select_us)
      : inner_(std::move(inner)),
        round_start_(round_start),
        select_us_(select_us) {}

  std::vector<eefei::fl::ClientId> select(std::size_t n, std::size_t k,
                                          std::size_t round) override {
    const std::int64_t t0 = now_ns();
    round_start_->push_back(t0);
    auto ids = inner_->select(n, k, round);
    select_us_->push_back(static_cast<double>(now_ns() - t0) / 1e3);
    return ids;
  }

 private:
  std::unique_ptr<eefei::fl::SelectionPolicy> inner_;
  std::vector<std::int64_t>* round_start_;
  std::vector<double>* select_us_;
};

/// fl::Coordinator over the workload's population, wired with the same
/// config, seeds, selection policy and client pool as the engine wires it,
/// minus the engine's timing simulation.
class CoordinatorTwin {
 public:
  explicit CoordinatorTwin(const EventFleetEngineConfig& cfg) : cfg_(cfg) {}

  Status build() {
    auto pop = eefei::sim::population_config_for(cfg_.system);
    pop.data_pool_shards = cfg_.data_pool_shards;
    pop.materialize_world = !cfg_.virtual_population;
    if (const auto st = population_.build(pop); !st.ok()) {
      return st.error().message;
    }
    pool_ = make_pool();
    return "";
  }

  std::unique_ptr<eefei::fl::ClientPool> make_pool() {
    if (cfg_.virtual_population) {
      eefei::fl::ClientConfig ccfg;
      ccfg.model = cfg_.system.model;
      ccfg.sgd = cfg_.system.sgd;
      return std::make_unique<eefei::fl::LazyClientPool>(
          cfg_.system.num_servers, &population_.shards(), ccfg);
    }
    return std::make_unique<eefei::fl::DenseClientPool>(
        &population_.clients());
  }

  struct Run {
    bool ok = false;
    std::vector<double> final_params;
    std::size_t rounds = 0;
    double ms = 0.0;
    std::vector<double> round_ms;
    std::vector<double> select_us;
  };

  Run run(SpanLog& spans, int op) {
    const auto& sys = cfg_.system;
    eefei::fl::CoordinatorConfig fl_cfg = sys.fl;
    fl_cfg.upload_quant_bits = sys.upload_quant_bits;
    fl_cfg.update_drop_probability = sys.update_drop_probability;
    fl_cfg.drop_seed = sys.seed * 2654435761 + 13;
    fl_cfg.pack_cache = true;
    std::unique_ptr<eefei::fl::SelectionPolicy> policy;
    const eefei::Rng rng(sys.seed * 613 + 29);
    if (cfg_.scalable_selection) {
      policy = std::make_unique<eefei::fl::ScalableUniformSelection>(rng);
    } else {
      policy = std::make_unique<eefei::fl::UniformRandomSelection>(rng);
    }
    Run out;
    std::vector<std::int64_t> round_start, round_end;
    auto clients = make_pool();
    eefei::fl::Coordinator coordinator(
        clients.get(), &population_.test_set(), fl_cfg,
        std::make_unique<TimedSelection>(std::move(policy), &round_start,
                                         &out.select_us));
    // Called last in each round, after aggregation and evaluation.
    coordinator.set_round_observer(
        [&round_end](const eefei::fl::RoundRecord&,
                     std::span<const eefei::fl::LocalTrainResult>) {
          round_end.push_back(now_ns());
        });
    const int span = spans.open("fl.coordinator.run", op);
    auto outcome = coordinator.run();
    out.ms = static_cast<double>(spans.close()) / 1e6;
    for (std::size_t r = 0; r < round_end.size(); ++r) {
      spans.add("fl.round", round_start[r], round_end[r], span, op);
      const auto select_ns =
          static_cast<std::int64_t>(out.select_us[r] * 1e3);
      spans.add("fl.select", round_start[r], round_start[r] + select_ns,
                static_cast<int>(spans.spans().size()) - 1, op);
      out.round_ms.push_back(
          static_cast<double>(round_end[r] - round_start[r]) / 1e6);
    }
    if (!outcome.ok()) return out;
    out.ok = true;
    out.rounds = outcome->rounds_run;
    out.final_params = std::move(outcome->final_params);
    return out;
  }

  const eefei::sim::Population& population() const { return population_; }
  eefei::fl::ClientPool& clients() { return *pool_; }

 private:
  EventFleetEngineConfig cfg_;
  eefei::sim::Population population_;
  std::unique_ptr<eefei::fl::ClientPool> pool_;
};

/// Runs `body` repeatedly (at least `min_reps`, then until `budget_s` is
/// spent or `max_reps` reached) and returns each rep's wall time in ns.
template <class F>
std::vector<double> repeat_ns(F&& body, std::size_t min_reps,
                              std::size_t max_reps, double budget_s) {
  std::vector<double> ns;
  const std::int64_t start = now_ns();
  while (ns.size() < max_reps &&
         (ns.size() < min_reps ||
          static_cast<double>(now_ns() - start) / 1e9 < budget_s)) {
    const std::int64_t t0 = now_ns();
    body();
    ns.push_back(static_cast<double>(now_ns() - t0));
  }
  return ns;
}

/// Prepared engine for a variant of the representative point.
std::unique_ptr<EventFleetEngine> variant(const EventFleetEngineConfig& cfg,
                                          SpanLog& spans, Status& err) {
  auto e = std::make_unique<EventFleetEngine>(cfg);
  spans.open("sim.population.build");
  if (const auto st = e->prepare(); !st.ok()) err = st.error().message;
  spans.close();
  return e;
}

}  // namespace

int run_traced(const Workload& w, const Args& args) {
  // Never destroyed: a pool worker may still record into the registry after
  // the scope that installed it has ended, so the registry outlives every
  // worker by living until process exit.
  static eefei::obs::Telemetry* const telemetry = new eefei::obs::Telemetry();

  SpanLog spans;
  Tally tally;
  PointChecks checks(w);
  const Point& rep = w.points[w.rep_point];
  const auto& sys = rep.config.system;
  Status err;
  int op = 0;

  // ---- set-up: every point's engine, as in the end-to-end run ----------
  Engines engines;
  std::vector<double> build_s;
  spans.open("setup");
  for (const Point& p : w.points) {
    engines.push_back(std::make_unique<EventFleetEngine>(p.config));
    spans.open("sim.population.build");
    const auto st = engines.back()->prepare();
    build_s.push_back(static_cast<double>(spans.close()) / 1e9);
    if (!st.ok()) err = st.error().message;
  }
  spans.close();
  if (!err.empty()) {
    std::fprintf(stderr, "prepare failed: %s\n", err.c_str());
    return 1;
  }
  EventFleetEngine& engine = *engines[w.rep_point];

  // ---- reference op (untraced warm-up) --------------------------------
  spans.open("sim.engine.op", op++);
  const OpRun ref = run_op(engine);
  spans.close();
  if (!checks.record(tally, w.rep_point, ref.out) || !ref.result) {
    print_result(tally, false, {});
    return 1;
  }
  const auto& R = *ref.result;
  const std::size_t T = R.training.rounds_run;
  const double rounds = static_cast<double>(T);

  // ---- telemetry overhead: interleaved untraced / traced ops ----------
  std::vector<double> plain_ms, ratio;
  const std::int64_t pairs_start = now_ns();
  while (plain_ms.size() < 3 ||
         (plain_ms.size() < 9 &&
          static_cast<double>(now_ns() - pairs_start) / 1e9 <
              args.seconds / 3.0)) {
    spans.open("sim.engine.op", op);
    const OpRun plain = run_op(engine);
    spans.close();
    checks.record(tally, w.rep_point, plain.out);
    OpRun traced;
    {
      const eefei::obs::TelemetryScope scope(*telemetry);
      spans.open("sim.engine.op.traced", op);
      traced = run_op(engine);
      spans.close();
    }
    ++op;
    // Traced results must be bit-identical to the untraced reference.
    checks.record(tally, w.rep_point, traced.out);
    plain_ms.push_back(plain.ms);
    ratio.push_back(traced.ms / plain.ms);
  }
  const double engine_ms = median(plain_ms);

  // ---- fixed cost per op: the T-round ops above against 2T-round ops ---
  double t2_ms = 0.0;
  {
    auto cfg = rep.config;
    cfg.system.fl.target_accuracy.reset();
    cfg.system.fl.max_rounds = 2 * T;
    auto e = variant(cfg, spans, err);
    OpExpect expect;
    expect.rounds = 2 * T;
    std::vector<double> ms;
    for (int r = 0; r < 3; ++r) {
      spans.open("sim.engine.op.2T", op++);
      const OpRun o = run_op(*e);
      spans.close();
      tally.record(o.out, expect, w.name + "[2T-round op]");
      if (r == 0) {
        expect.first = Reference{o.out.ledger_total, o.out.params_hash};
      } else {
        ms.push_back(o.ms);  // the first op is a warm-up
      }
    }
    t2_ms = median(ms);
  }
  const double run_fixed_ms = 2.0 * engine_ms - t2_ms;

  // ---- pool speedup: the same op on one worker ------------------------
  double serial_ms = 0.0;
  {
    auto cfg = rep.config;
    cfg.system.fl.threads = 1;
    auto e = variant(cfg, spans, err);
    std::vector<double> ms;
    for (int r = 0; r < 2; ++r) {
      spans.open("sim.engine.op.serial", op++);
      const OpRun o = run_op(*e);
      spans.close();
      // Thread-count invariance: same bits as the 2-worker reference.
      checks.record(tally, w.rep_point, o.out);
      if (r > 0) ms.push_back(o.ms);
    }
    serial_ms = median(ms);
  }

  // ---- coordinator twin ------------------------------------------------
  CoordinatorTwin twin(rep.config);
  spans.open("sim.population.build");
  const Status twin_err = twin.build();
  spans.close();
  if (!twin_err.empty()) {
    std::fprintf(stderr, "twin build failed: %s\n", twin_err.c_str());
    return 1;
  }
  std::vector<double> twin_ms, twin_round_ms, select_us;
  bool twin_ok = true;
  for (int r = 0; r < 3; ++r) {
    auto t = twin.run(spans, op++);
    twin_ok = twin_ok && t.ok && t.rounds == T;
    // The engine's timing layer never touches the numeric FL loop on a
    // fault-free workload, so the twin must train the same model.
    if (w.fault_free) {
      twin_ok = twin_ok && hash_params(t.final_params) == ref.out.params_hash;
    }
    if (r == 0) continue;  // warm-up
    twin_ms.push_back(t.ms);
    twin_round_ms.insert(twin_round_ms.end(), t.round_ms.begin(),
                         t.round_ms.end());
    select_us.insert(select_us.end(), t.select_us.begin(),
                     t.select_us.end());
  }
  tally.record_check(twin_ok, w.name + ": coordinator twin diverged");
  const double other_ms_per_round = (engine_ms - median(twin_ms)) / rounds;
  std::printf("engine op %.3f ms = coordinator twin %.3f ms + other "
              "%.4f ms/round x %zu rounds\n",
              engine_ms, median(twin_ms), other_ms_per_round, T);

  // ---- shapes for the replays -----------------------------------------
  const std::size_t n = sys.num_servers;
  const std::size_t k = sys.fl.clients_per_round + sys.fl.overselect;
  const std::size_t e = sys.fl.local_epochs;
  const std::size_t d = sys.model.input_dim;
  const std::size_t c = sys.model.num_classes;
  const std::size_t n_k = sys.samples_per_server;
  const auto& final_params = R.training.final_params;
  const double budget = std::max(0.2, args.seconds / 40.0);

  // common: fork/join over K tasks.
  double parallel_for_us = 0.0;
  {
    eefei::ThreadPool pool(kThreads);
    std::vector<std::size_t> slot(k);
    const auto touch = [&](std::size_t i) { slot[i] = i; };
    spans.open("common.pool.parallel_for");
    parallel_for_us =
        median(repeat_ns([&] { pool.parallel_for(k, touch); }, 50, 20000,
                         budget)) / 1e3;
    spans.close();
  }

  // data: render the workload's distinct samples.
  double render_s = 0.0;
  {
    const std::size_t distinct =
        (rep.config.data_pool_shards == 0
             ? n
             : std::min(n, rep.config.data_pool_shards)) * n_k +
        sys.test_samples;
    auto dcfg = sys.data;
    dcfg.seed = sys.seed * 1000003 + 17;
    spans.open("data.render");
    eefei::data::SynthDigits gen(dcfg);
    const auto ds = gen.generate(distinct);
    render_s = static_cast<double>(spans.close()) / 1e9;
    (void)ds;
  }

  // sim: typed calendar queue at the run's depth.
  double queue_ns = 0.0;
  {
    const std::size_t depth = std::max<std::size_t>(1, R.queue_high_water);
    eefei::sim::CalendarQueue<eefei::sim::FleetEvent> q;
    eefei::Rng rng(args.seed);
    std::vector<double> offsets(depth);
    for (auto& o : offsets) o = rng.uniform(0.0, 1.0);
    std::size_t fired = 0;
    spans.open("sim.queue");
    const auto ns = repeat_ns(
        [&] {
          const eefei::Seconds now{static_cast<double>(fired)};
          for (std::size_t i = 0; i < depth; ++i) {
            q.schedule_at(now + eefei::Seconds{offsets[i]},
                          eefei::sim::FleetEvent{
                              eefei::sim::FleetEventKind::kEpochDone,
                              static_cast<std::uint32_t>(i)});
          }
          fired += q.run([](const eefei::sim::FleetEvent&, eefei::Seconds) {});
        },
        5, 1000000, budget);
    spans.close();
    queue_ns = median(ns) / static_cast<double>(depth);
  }

  // fl: FedAvg over K updates.
  double aggregate_us = 0.0;
  {
    std::vector<eefei::fl::LocalTrainResult> updates(k);
    for (auto& u : updates) u.params = final_params;
    std::vector<double> global;
    spans.open("fl.aggregate");
    aggregate_us =
        median(repeat_ns(
            [&] {
              (void)eefei::fl::aggregate(
                  updates, eefei::fl::AggregationRule::kUniformMean, global);
            },
            5, 100000, budget)) / 1e3;
    spans.close();
  }

  // ml: one round of batched training for K models, on one bank.
  double train_ms = 0.0;
  {
    eefei::ml::ModelBank bank;
    bank.configure(sys.model.lr_config());
    bank.set_pack_cache(true);
    std::vector<eefei::ml::ModelBank::Task> tasks(k);
    for (std::size_t i = 0; i < k; ++i) {
      tasks[i].batch =
          twin.clients().client(static_cast<eefei::fl::ClientId>(i % n))
              .local_batch();
      tasks[i].epochs = e;
      tasks[i].learning_rate = sys.sgd.learning_rate;
    }
    spans.open("ml.bank.train");
    bank.train(final_params, tasks);  // warm-up: packs the batches
    train_ms = median(repeat_ns([&] { bank.train(final_params, tasks); }, 3,
                                1000, budget)) / 1e6;
    spans.close();
  }
  // Nominal FLOPs: forward logits + gradient outer product, 2·d·c each
  // per sample-epoch (loss passes and softmax not counted).
  const double flops = 4.0 * static_cast<double>(d * c * n_k * e * k);

  double eval_ms = 0.0;
  {
    auto model = eefei::ml::make_model(sys.model);
    auto p = model->parameters();
    std::copy(final_params.begin(), final_params.end(), p.begin());
    std::vector<eefei::ml::Workspace> ws;
    eefei::ThreadPool pool(kThreads);
    const auto view = twin.population().test_set().view();
    spans.open("ml.eval");
    eval_ms = median(repeat_ns(
                  [&] {
                    (void)eefei::ml::evaluate_sharded(*model, view, &pool, ws);
                  },
                  3, 10000, budget)) / 1e6;
    spans.close();
  }

  double serialize_gb_s = 0.0;
  {
    eefei::ml::ModelBlob blob;
    spans.open("ml.serialize");
    const double ns = median(repeat_ns(
        [&] { eefei::ml::serialize_parameters_into(final_params, blob); }, 5,
        100000, budget));
    spans.close();
    serialize_gb_s = static_cast<double>(blob.size_bytes()) / ns;
  }

  // net: per-link FIFO admission and route build at the tier-plan shape.
  double offer_ns = 0.0;
  {
    eefei::net::LinkConfig link = rep.config.backhaul_uplink;
    if (!rep.config.multi_hop) {
      link.rate = eefei::BitsPerSecond::from_mbps(0.5);
    }
    const eefei::Bytes bytes{static_cast<double>(
        eefei::ml::wire_size(sys.model.parameter_count()))};
    const std::size_t msgs = std::max<std::size_t>(k, 1000);
    spans.open("net.link_queue.offer");
    offer_ns = median(repeat_ns(
                   [&] {
                     eefei::net::LinkQueue q(link);
                     for (std::size_t i = 0; i < msgs; ++i) {
                       (void)q.offer(eefei::Seconds{1e-3 *
                                                    static_cast<double>(i)},
                                     bytes);
                     }
                   },
                   5, 100000, budget)) /
               static_cast<double>(msgs);
    spans.close();
  }

  double router_ms = 0.0;
  {
    const eefei::fl::TierPlan plan(n, rep.config.tiers);
    eefei::net::NetGraph graph;
    std::vector<std::size_t> region_node;
    for (std::size_t r = 0; r < plan.num_regions(); ++r) {
      region_node.push_back(graph.add_node(eefei::net::NodeKind::kBackhaul));
    }
    const std::size_t root = graph.add_node(eefei::net::NodeKind::kCoordinator);
    for (std::size_t g = 0; g < plan.num_gateways(); ++g) {
      const std::size_t node = graph.add_node(eefei::net::NodeKind::kGateway);
      (void)graph.add_link(node, region_node[plan.region_of_gateway(g)],
                           rep.config.gateway_uplink);
    }
    for (const std::size_t r : region_node) {
      (void)graph.add_link(r, root, rep.config.backhaul_uplink);
    }
    spans.open("net.router.build");
    router_ms = median(repeat_ns(
                    [&] {
                      eefei::net::Router router(&graph);
                      (void)router.add_destination(root);
                    },
                    3, 10000, budget)) / 1e6;
    spans.close();
  }

  // energy: one charge per selected server-round, then the idle fold.
  double charge_ns = 0.0, idle_ms = 0.0;
  {
    eefei::Rng rng(args.seed * 31 + 7);
    std::vector<std::size_t> ids(k * T);
    for (auto& id : ids) id = rng.uniform_index(n);
    const eefei::Joules j{1.0};
    eefei::energy::EnergyLedger ledger(n);
    spans.open("energy.ledger.charge");
    charge_ns = median(repeat_ns(
                    [&] {
                      for (const std::size_t id : ids) {
                        ledger.charge(id,
                                      eefei::energy::EnergyCategory::kTraining,
                                      j);
                      }
                    },
                    3, 10000, budget)) /
                static_cast<double>(ids.size());
    spans.close();

    const auto p_wait =
        sys.profile.power(eefei::energy::EdgeState::kWaiting);
    spans.open("energy.idle_settle");
    idle_ms = median(repeat_ns(
                  [&] {
                    eefei::energy::IdleChargeSchedule sched(p_wait);
                    for (std::size_t r = 0; r < T; ++r) {
                      sched.push_round(eefei::Seconds{1.0});
                    }
                    eefei::energy::EnergyLedger ledger(n);
                    const auto charges = sched.per_round();
                    for (const std::size_t id : ids) {
                      ledger.materialize(id);
                      for (const auto& ch : charges) {
                        ledger.charge(
                            id, eefei::energy::EnergyCategory::kWaiting, ch);
                      }
                    }
                    ledger.charge_untouched(
                        eefei::energy::EnergyCategory::kWaiting,
                        sched.all_rounds_total());
                  },
                  3, 1000, budget)) / 1e6;
    spans.close();
  }

  // ---- counts from the reference op's result --------------------------
  double selected = 0.0, aggregated = 0.0;
  for (const auto& rec : R.training.record.all()) {
    selected += static_cast<double>(rec.clients_selected);
    aggregated += static_cast<double>(rec.updates_aggregated);
  }
  const double transfers = 2.0 * selected;
  const auto cat = [&](eefei::energy::EnergyCategory cc) {
    return R.ledger.category_total(cc).value();
  };
  const double retry_share =
      (cat(eefei::energy::EnergyCategory::kRetry) +
       cat(eefei::energy::EnergyCategory::kAborted)) /
      R.ledger.total().value();

  const std::string spans_path = args.spans_path;
  if (!spans_path.empty() && !spans.write_json(spans_path)) {
    std::fprintf(stderr, "could not write %s\n", spans_path.c_str());
  }
  std::printf("workload %s seed %llu: %zu spans, %zu rounds per op\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              spans.spans().size(), T);
  std::printf("update survival %.0f / %.0f selected; retries %zu over %.0f "
              "transfers; crashed %zu, aborted %zu, deadline drops %zu\n",
              aggregated, selected, R.total_retries, transfers,
              R.total_crashed_servers, R.total_aborted_updates,
              R.total_straggler_drops);

  const std::vector<Metric> m = {
      {"common.pool.parallel_for_us", parallel_for_us, "us"},
      {"common.pool.speedup_vs_serial", serial_ms / engine_ms, "ratio"},
      {"data.render_s", render_s, "s"},
      {"sim.population.build_s", median(build_s), "s"},
      {"sim.engine.run_fixed_ms", run_fixed_ms, "ms"},
      {"sim.engine.other_ms_per_round", other_ms_per_round, "ms"},
      {"sim.events_per_round",
       static_cast<double>(R.events_processed) / rounds, "count"},
      {"sim.queue_high_water", static_cast<double>(R.queue_high_water),
       "count"},
      {"sim.queue.ns_per_event", queue_ns, "ns"},
      {"fl.round_ms_p50", median(twin_round_ms), "ms"},
      {"fl.select_us", median(select_us), "us"},
      {"fl.aggregate_us", aggregate_us, "us"},
      {"fl.update_survival", aggregated / selected, "ratio"},
      {"ml.bank.train_ms_per_round", train_ms, "ms"},
      {"ml.bank.gflops", flops / (train_ms * 1e6), "GFLOP/s"},
      {"ml.bank.us_per_model", train_ms * 1e3 / static_cast<double>(k),
       "us"},
      {"ml.eval_ms", eval_ms, "ms"},
      {"ml.serialize_gb_s", serialize_gb_s, "GB/s"},
      {"net.link.messages_per_round",
       static_cast<double>(R.link_messages) / rounds, "count"},
      {"net.link.wait_s_per_msg",
       R.link_messages > 0 ? R.link_wait.value() /
                                 static_cast<double>(R.link_messages)
                           : 0.0,
       "s"},
      {"net.link_queue.ns_per_offer", offer_ns, "ns"},
      {"net.router.build_ms", router_ms, "ms"},
      {"net.fault.attempts_per_delivery",
       (transfers + static_cast<double>(R.total_retries)) / transfers,
       "ratio"},
      {"energy.retry_share", retry_share, "ratio"},
      {"energy.ledger.ns_per_charge", charge_ns, "ns"},
      {"energy.idle_settle_ms", idle_ms, "ms"},
      {"obs.traced_overhead", median(ratio), "ratio"},
  };
  for (const Metric& x : m) {
    std::printf("  %-32s %.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  print_result(tally, err.empty(), m);
  return 0;
}

}  // namespace fleetbench
