// Pieces shared by the end-to-end run (fleetbench.cpp) and the traced run
// (traced.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "spans.h"
#include "workloads.h"

namespace fleetbench {

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  // traced run: where the span log goes
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Empty on success, else the error message.
using Status = std::string;

using Engines = std::vector<std::unique_ptr<eefei::sim::EventFleetEngine>>;

/// One timed op: run() on a prepared engine.
struct OpRun {
  std::optional<eefei::sim::EventFleetRunResult> result;
  OpOutput out;
  double ms = 0.0;  // wall time of run() alone
};

/// Per-point expectations: the first op of each point becomes the
/// reference every later op of that point must reproduce bit for bit.
class PointChecks {
 public:
  explicit PointChecks(const Workload& w);
  bool record(Tally& tally, std::size_t point, const OpOutput& out);

 private:
  std::vector<OpExpect> expects_;
  std::vector<std::string> labels_;
};

double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double peak_rss_mb();
OpRun run_op(eefei::sim::EventFleetEngine& engine);
Status prepare_all(const Workload& w, Engines& engines);
void print_result(const Tally& tally, bool extra_ok,
                  const std::vector<Metric>& metrics);

int run_traced(const Workload& w, const Args& args);

}  // namespace fleetbench
