// Repository benchmark.  One process runs one workload:
//
//   fleetbench --workload <paper_grid|fleet_1m|fleet_backhaul|fleet_faults>
//              --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//
// --trace 0 measures the end-to-end metrics with telemetry off; --trace 1
// is the separate traced run that splits the time across layers (see
// traced.cpp).  Either way the last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"

namespace fleetbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

OpRun run_op(eefei::sim::EventFleetEngine& engine) {
  OpRun op;
  const std::int64_t t0 = now_ns();
  auto r = engine.run();
  op.ms = static_cast<double>(now_ns() - t0) / 1e6;
  if (!r.ok()) {
    op.out.error = r.error().message;
    return op;
  }
  op.out = summarize(r->ledger, r->training.final_params,
                     r->training.rounds_run, r->training.reached_target);
  op.result = std::move(r).value();
  return op;
}

PointChecks::PointChecks(const Workload& w) {
  const auto refs = recorded_references(w.name);
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    const Point& p = w.points[i];
    OpExpect e;
    e.need_target = p.to_target;
    e.rounds = p.to_target ? 0 : p.config.system.fl.max_rounds;
    if (p.config.system.seed == kDefaultSeed && i < refs.size()) {
      e.recorded = refs[i];
    }
    expects_.push_back(e);
    labels_.push_back(w.name + "[" + p.label + "]");
  }
}

bool PointChecks::record(Tally& tally, std::size_t point,
                         const OpOutput& out) {
  OpExpect& e = expects_[point];
  const bool ok = tally.record(out, e, labels_[point]);
  if (!e.first.has_value() && out.ran) {
    e.first = Reference{out.ledger_total, out.params_hash};
    std::fprintf(stderr, "reference %s ledger_total=%a params_hash=0x%016llx rounds=%zu\n",
                 labels_[point].c_str(), out.ledger_total,
                 static_cast<unsigned long long>(out.params_hash), out.rounds_run);
  }
  return ok;
}

Status prepare_all(const Workload& w, Engines& engines) {
  engines.clear();
  for (const Point& p : w.points) {
    engines.push_back(std::make_unique<eefei::sim::EventFleetEngine>(p.config));
    if (const auto st = engines.back()->prepare(); !st.ok()) {
      return st.error().message;
    }
  }
  return "";
}

void print_result(const Tally& tally, bool extra_ok,
                  const std::vector<Metric>& metrics) {
  for (const auto& f : tally.failures) {
    std::fprintf(stderr, "failed: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              tally.failed == 0 && extra_ok && tally.attempted > 0 ? "true"
                                                                   : "false",
              tally.attempted, tally.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

namespace {

/// The untraced run: set-up repeated setup_reps times (median = setup_s),
/// one excluded warm-up op, then a fixed number of sweeps sized to fill
/// `seconds`.
int run_end_to_end(const Workload& w, const Args& args) {
  Tally tally;
  PointChecks checks(w);

  std::vector<double> setup_s;
  Engines engines;
  for (std::size_t rep = 0; rep < w.setup_reps; ++rep) {
    engines.clear();  // the previous set-up's memory is released untimed
    const std::int64_t t0 = now_ns();
    const Status st = prepare_all(w, engines);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!st.empty()) {
      std::fprintf(stderr, "prepare failed: %s\n", st.c_str());
      return 1;
    }
  }

  // Warm-up: checked like any op, excluded from every timing.
  checks.record(tally, w.rep_point, run_op(*engines[w.rep_point]).out);

  std::vector<double> sweep_s;
  std::vector<double> round_ms;
  std::vector<std::vector<double>> point_ms(w.points.size());
  const auto sweeps = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(args.seconds / w.sweep_wall_s)));
  for (std::size_t s = 0; s < sweeps; ++s) {
    double sweep_ms = 0.0;
    for (const std::size_t p : w.order) {
      for (std::size_t i = 0; i < w.ops_per_sweep; ++i) {
        const OpRun op = run_op(*engines[p]);
        sweep_ms += op.ms;
        point_ms[p].push_back(op.ms);
        if (checks.record(tally, p, op.out)) {
          round_ms.push_back(op.ms /
                             static_cast<double>(op.out.rounds_run));
        }
      }
    }
    sweep_s.push_back(sweep_ms / 1e3);
  }

  const double p50 = quantile(round_ms, 0.5);
  const double p90 = quantile(round_ms, 0.9);
  const std::size_t beyond_p90 =
      static_cast<std::size_t>(std::count_if(
          round_ms.begin(), round_ms.end(), [&](double v) { return v > p90; }));
  const double rss = peak_rss_mb();
  std::printf("workload %s seed %llu threads %zu\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), kThreads);
  std::printf("  setup_s      %.6f s  (median of %zu set-ups)\n",
              median(setup_s), setup_s.size());
  std::printf("  sweep_s      %.6f s  (median of %zu sweeps)\n",
              median(sweep_s), sweep_s.size());
  std::printf("  round_ms_p50 %.6f ms (n=%zu ops)\n", p50, round_ms.size());
  std::printf("  round_ms_p90 %.6f ms (n=%zu ops, %zu beyond%s)\n", p90,
              round_ms.size(), beyond_p90,
              beyond_p90 < 10 ? "; fewer than 10: read as the slow points"
                              : "");
  std::printf("  peak_rss_mb  %.3f MB\n", rss);
  for (std::size_t p = 0; p < w.points.size(); ++p) {
    std::printf("  op %-24s median %.3f ms over %zu ops\n",
                w.points[p].label.c_str(), median(point_ms[p]),
                point_ms[p].size());
  }
  print_result(tally, true,
               {{"setup_s", median(setup_s), "s"},
                {"sweep_s", median(sweep_s), "s"},
                {"round_ms_p50", p50, "ms"},
                {"round_ms_p90", p90, "ms"},
                {"peak_rss_mb", rss, "MB"}});
  return 0;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      args.trace = val == "1";
    } else if (key == "--spans") {
      args.spans_path = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

}  // namespace
}  // namespace fleetbench

int main(int argc, char** argv) {
  using namespace fleetbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: fleetbench --workload <name> [--seed n] "
                 "[--seconds s] [--trace 0|1] [--spans path]\n");
    return 2;
  }
  const auto w = make_workload(args.workload, args.seed);
  if (!w.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  return args.trace ? run_traced(*w, args) : run_end_to_end(*w, args);
}
