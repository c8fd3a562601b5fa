// Google-benchmark microbenchmarks of the performance-critical kernels:
// the LR forward/backward pass, ModelBank rounds, FedAvg aggregation,
// O(K) client selection, model serialization, synthetic-digit rendering
// and the power meter.
#include <benchmark/benchmark.h>

#include <cassert>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/synth_digits.h"
#include "ml/aligned.h"
#include "ml/simd.h"
#include "energy/meter.h"
#include "fl/aggregator.h"
#include "fl/selection.h"
#include "ml/logistic_regression.h"
#include "ml/model_bank.h"
#include "ml/serialize.h"
#include "core/acs.h"
#include "sim/fei_system.h"

using namespace eefei;

namespace {

data::Dataset make_batch(std::size_t n, std::size_t side) {
  data::SynthDigitsConfig cfg;
  cfg.image_side = side;
  cfg.seed = 9;
  data::SynthDigits gen(cfg);
  return gen.generate(n);
}

// ---------------------------------------------------------------------------
// SIMD kernel benchmarks.  Each runs twice: through the runtime-dispatched
// table (widest ISA the CPU supports) and pinned to the scalar reference
// table, so BENCH_micro.json records both the absolute GB/s and a
// speedup_vs_scalar ratio per shape.  Inputs are rendered digit images —
// the blank margins exercise the kernels' zero-block sparse skip exactly
// like the training hot path does.
// ---------------------------------------------------------------------------

void RunAccumulateRows(benchmark::State& state,
                       const ml::simd::KernelTable& table) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto c = static_cast<std::size_t>(state.range(1));
  const std::size_t kRows = 64;
  const data::Dataset ds = make_batch(kRows, 28);
  assert(ds.view().feature_dim == d);
  // Weights and accumulators live in 64-byte-aligned storage, exactly like
  // the real call sites (Workspace buffers are AlignedVector).
  Rng rng(7);
  ml::AlignedVector w(d * c);
  for (auto& x : w) x = rng.normal();
  ml::AlignedVector acc(c, 0.0);
  std::size_t row = 0;
  for (auto _ : state) {
    const double* x = ds.view().features.data() + (row % kRows) * d;
    ++row;
    table.accumulate_rows(x, d, c, w.data(), acc.data());
    benchmark::DoNotOptimize(acc.data());
  }
  // Nominal traffic (sparse skip reduces the real numbers): x once, the
  // full weight matrix, acc read+write.
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>((d + d * c + 2 * c) * sizeof(double)));
}

void BM_AccumulateRows(benchmark::State& state) {
  RunAccumulateRows(state, ml::simd::kernels());
}
BENCHMARK(BM_AccumulateRows)->Args({784, 10})->Args({784, 256});

void BM_AccumulateRowsScalar(benchmark::State& state) {
  RunAccumulateRows(state, *ml::simd::kernels_for(ml::simd::Isa::kScalar));
}
BENCHMARK(BM_AccumulateRowsScalar)->Args({784, 10})->Args({784, 256});

void RunAccumulateOuter(benchmark::State& state,
                        const ml::simd::KernelTable& table) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto c = static_cast<std::size_t>(state.range(1));
  const std::size_t kRows = 64;
  const data::Dataset ds = make_batch(kRows, 28);
  assert(ds.view().feature_dim == d);
  Rng rng(8);
  ml::AlignedVector err(c);
  for (auto& x : err) x = rng.normal();
  ml::AlignedVector out(d * c, 0.0);
  std::size_t row = 0;
  for (auto _ : state) {
    const double* x = ds.view().features.data() + (row % kRows) * d;
    ++row;
    table.accumulate_outer(x, d, c, err.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>((d + c + 2 * d * c) * sizeof(double)));
}

void BM_AccumulateOuter(benchmark::State& state) {
  RunAccumulateOuter(state, ml::simd::kernels());
}
BENCHMARK(BM_AccumulateOuter)->Args({784, 10})->Args({784, 256});

void BM_AccumulateOuterScalar(benchmark::State& state) {
  RunAccumulateOuter(state, *ml::simd::kernels_for(ml::simd::Isa::kScalar));
}
BENCHMARK(BM_AccumulateOuterScalar)->Args({784, 10})->Args({784, 256});

// ---------------------------------------------------------------------------
// Whole-batch epoch kernels — the ModelBank hot loop.  One iteration is one
// epoch's kernel work for K models: per model, accumulate_rows_tiled and
// accumulate_outer_transposed over its n samples.  K×250×784×10 is the
// paper prototype's shape (n_k = 250 digits of 28×28, K of the 20 servers
// pooled); 2000×4×16×10 is the fleet_faults round (K = 2000 models of
// n_k = 4 rows of 4×4 digits).  gflops counts 4·n·d·c per model-epoch.
// ---------------------------------------------------------------------------

void RunAccumulateEpoch(benchmark::State& state,
                        const ml::simd::KernelTable& table) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto d = static_cast<std::size_t>(state.range(2));
  const auto c = static_cast<std::size_t>(state.range(3));
  std::size_t side = 1;
  while (side * side < d) ++side;
  const std::size_t pool = k < 20 ? k : 20;  // distinct local datasets
  const data::Dataset ds = make_batch(pool * n, side);
  assert(ds.view().feature_dim == d);
  const std::size_t stride = (c + 7) / 8 * 8;
  Rng rng(17);
  std::vector<ml::AlignedVector> w, gt;
  for (std::size_t m = 0; m < k; ++m) {
    w.emplace_back(d * c);
    for (auto& v : w.back()) v = 0.01 * rng.normal();
    gt.emplace_back(d * c, 0.0);
  }
  ml::AlignedVector acc(n * stride, 0.0);
  ml::AlignedVector err(n * stride);
  for (auto& v : err) v = 0.1 * rng.normal();
  for (auto _ : state) {
    for (std::size_t m = 0; m < k; ++m) {
      const double* x = ds.view().features.data() + (m % pool) * n * d;
      table.accumulate_rows_tiled(x, n, d, c, w[m].data(), acc.data(),
                                  stride);
      table.accumulate_outer_transposed(x, n, d, d, c, err.data(), stride,
                                        gt[m].data());
    }
    benchmark::DoNotOptimize(acc.data());
    benchmark::DoNotOptimize(gt.data());
    benchmark::ClobberMemory();
  }
  state.counters["flops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 4.0 *
          static_cast<double>(k * n * d * c),
      benchmark::Counter::kIsRate);
}

void BM_AccumulateEpoch(benchmark::State& state) {
  RunAccumulateEpoch(state, ml::simd::kernels());
}
BENCHMARK(BM_AccumulateEpoch)
    ->Args({1, 250, 784, 10})->Args({10, 250, 784, 10})
    ->Args({2000, 4, 16, 10});

void BM_AccumulateEpochScalar(benchmark::State& state) {
  RunAccumulateEpoch(state, *ml::simd::kernels_for(ml::simd::Isa::kScalar));
}
BENCHMARK(BM_AccumulateEpochScalar)
    ->Args({1, 250, 784, 10})->Args({10, 250, 784, 10})
    ->Args({2000, 4, 16, 10});

// One round of ModelBank::train: K models of n samples at side×side
// pixels, E epochs, on a pool of `workers` (1 = serial).  The paper rows
// (n = 250, 28×28, E = 20) show the pooled schedule at its optimum K = 1
// and at K = 5 (4 whole models + 1 split); the fleet row (K = 10, n = 50,
// 12×12, E = 3 on 4 workers) is below the split cutoff, so its two
// leftover models train whole.  gflops counts 4·n·d·c per model-epoch.
void BM_ModelBankTrain(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto side = static_cast<std::size_t>(state.range(2));
  const auto epochs = static_cast<std::size_t>(state.range(3));
  const auto workers = static_cast<std::size_t>(state.range(4));
  const data::Dataset ds = make_batch(k * n, side);
  ml::LogisticRegressionConfig cfg;
  cfg.input_dim = side * side;
  ml::ModelBank bank;
  bank.configure(cfg);
  std::vector<ml::ModelBank::Task> tasks(k);
  for (std::size_t i = 0; i < k; ++i) {
    tasks[i].batch = ds.view().slice(i * n, n);
    tasks[i].epochs = epochs;
    tasks[i].learning_rate = 0.02;
  }
  const std::vector<double> global(bank.parameter_count(), 0.0);
  ThreadPool pool(workers);
  ThreadPool* const use = workers > 1 ? &pool : nullptr;
  for (auto _ : state) {
    bank.train(global, tasks, use);
    benchmark::DoNotOptimize(bank.params_of(0).data());
    benchmark::ClobberMemory();
  }
  state.counters["flops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 4.0 *
          static_cast<double>(k * n * cfg.input_dim * cfg.num_classes *
                              epochs),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ModelBankTrain)
    ->Args({1, 250, 28, 20, 1})->Args({1, 250, 28, 20, 2})
    ->Args({5, 250, 28, 20, 1})->Args({5, 250, 28, 20, 2})
    ->Args({10, 50, 12, 3, 4})
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_LrLossAndGradient(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const data::Dataset ds = make_batch(n, 28);
  ml::LogisticRegressionConfig cfg;
  ml::LogisticRegression model(cfg);
  std::vector<double> grad(model.parameter_count());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.loss_and_gradient(ds.view(), grad));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LrLossAndGradient)->Arg(100)->Arg(500)->Arg(3000);

void BM_LrEvaluate(benchmark::State& state) {
  const data::Dataset ds = make_batch(1000, 28);
  ml::LogisticRegression model(ml::LogisticRegressionConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.evaluate(ds.view()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_LrEvaluate);

void BM_FedAvgAggregate(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  std::vector<fl::LocalTrainResult> updates(k);
  for (auto& u : updates) {
    u.params.resize(7850);
    for (auto& p : u.params) p = rng.normal();
    u.samples_used = 3000;
  }
  std::vector<double> global;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fl::aggregate(updates, fl::AggregationRule::kUniformMean, global)
            .ok());
  }
}
BENCHMARK(BM_FedAvgAggregate)->Arg(1)->Arg(10)->Arg(20);

// One K-of-N draw of the fleet engine's sampler: fleet_faults' K′ = 2200 of
// 10^5, and bench_fleet's K = 10 of 10^6.  Its cost must follow K, not K²
// or N.
void BM_ScalableSelect(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  fl::ScalableUniformSelection policy(Rng(29));
  std::size_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.select(n, k, round++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
}
BENCHMARK(BM_ScalableSelect)->Args({100000, 2200})->Args({1000000, 10});

void BM_SerializeModel(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> params(7850);
  for (auto& p : params) p = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::serialize_parameters(params));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ml::wire_size(7850)));
}
BENCHMARK(BM_SerializeModel);

void BM_DeserializeModel(benchmark::State& state) {
  Rng rng(6);
  std::vector<double> params(7850);
  for (auto& p : params) p = rng.normal();
  const auto blob = ml::serialize_parameters(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::deserialize_parameters(blob.bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(blob.bytes.size()));
}
BENCHMARK(BM_DeserializeModel);

void BM_SynthDigitRender(benchmark::State& state) {
  data::SynthDigitsConfig cfg;
  data::SynthDigits gen(cfg);
  std::vector<double> img(cfg.feature_dim());
  int label = 0;
  for (auto _ : state) {
    gen.render(label, img);
    label = (label + 1) % 10;
    benchmark::DoNotOptimize(img.data());
  }
}
BENCHMARK(BM_SynthDigitRender);

void BM_PowerMeterCapture(benchmark::State& state) {
  energy::PowerStateTimeline tl;
  for (int round = 0; round < 10; ++round) {
    tl.push(energy::EdgeState::kWaiting, Seconds{0.2});
    tl.push(energy::EdgeState::kDownloading, Seconds{0.1});
    tl.push(energy::EdgeState::kTraining, Seconds{1.7});
    tl.push(energy::EdgeState::kUploading, Seconds{0.1});
  }
  energy::PowerMeter meter{energy::MeterConfig{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(meter.capture(tl).energy());
  }
}
BENCHMARK(BM_PowerMeterCapture);

void BM_FeiSystemRun(benchmark::State& state) {
  // End-to-end FedAvg + event-driven energy simulation, scaled down to a
  // couple of rounds.  The speedup-vs-baseline of this metric is the
  // headline number of the allocation-free/parallel hot-path work.
  auto cfg = sim::prototype_config();
  cfg.num_servers = 20;
  cfg.samples_per_server = 100;
  cfg.test_samples = 400;
  cfg.fl.clients_per_round = 10;
  cfg.fl.local_epochs = 40;
  cfg.fl.max_rounds = 2;
  cfg.seed = 3;
  for (auto _ : state) {
    sim::FeiSystem system(cfg);
    benchmark::DoNotOptimize(system.run().ok());
  }
}
BENCHMARK(BM_FeiSystemRun)->Unit(benchmark::kMillisecond);

void BM_AcsSolve(benchmark::State& state) {
  // How cheap is Algorithm 1?  (The paper runs it on the coordinator.)
  const core::ConvergenceBound bound(energy::paper_reference_constants(),
                                     0.05);
  const core::EnergyObjective obj(bound, 7.79e-5 * 3000 + 3.34e-3, 0.381,
                                  20);
  const core::AcsSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(obj).ok());
  }
}
BENCHMARK(BM_AcsSolve);

// Console output as usual, plus every finished run collected for the
// BENCH_micro.json report.
class JsonCollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Result {
    std::string name;
    double ns_per_op = 0.0;
    eefei::bench::BenchReport::Extras extras;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const double iters = static_cast<double>(run.iterations);
      if (iters <= 0.0) continue;
      Result r{run.benchmark_name(),
               run.real_accumulated_time / iters * 1e9,
               {}};
      if (const auto it = run.counters.find("bytes_per_second");
          it != run.counters.end()) {
        r.extras.emplace_back("gb_per_s",
                              static_cast<double>(it->second) / 1e9);
      }
      if (const auto it = run.counters.find("flops");
          it != run.counters.end()) {
        r.extras.emplace_back("gflops", static_cast<double>(it->second) / 1e9);
      }
      results.push_back(std::move(r));
    }
  }

  std::vector<Result> results;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  eefei::bench::BenchReport report("micro");
  // The dispatched kernel benches get a speedup_vs_scalar extra by pairing
  // them with their *Scalar twin from the same run — the scalar table is
  // bit-identical to the pre-SIMD code, so this ratio IS the SIMD win.
  const auto scalar_twin = [&](const std::string& name) -> double {
    const auto slash = name.find('/');
    if (slash == std::string::npos) return 0.0;
    const std::string twin =
        name.substr(0, slash) + "Scalar" + name.substr(slash);
    for (const auto& r : reporter.results) {
      if (r.name == twin) return r.ns_per_op;
    }
    return 0.0;
  };
  for (const auto& r : reporter.results) {
    auto extras = r.extras;
    if (r.name.starts_with("BM_Accumulate") &&
        r.name.find("Scalar") == std::string::npos) {
      if (const double scalar_ns = scalar_twin(r.name);
          scalar_ns > 0.0 && r.ns_per_op > 0.0) {
        extras.emplace_back("speedup_vs_scalar", scalar_ns / r.ns_per_op);
      }
    }
    report.add(r.name, r.ns_per_op, std::move(extras));
  }
  report.write();
  return 0;
}
