// Verifies the tentpole claim of the allocation-free hot path: once a
// model's workspace is warm, repeated loss_and_gradient / evaluate /
// predict calls perform ZERO heap allocations.  A counting global
// operator new provides the evidence; it is linked into this binary only.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "data/synth_digits.h"
#include "energy/power_model.h"
#include "ml/logistic_regression.h"
#include "ml/model_bank.h"
#include "sim/calendar_queue.h"
#include "sim/fleet_event.h"
#include "typed_event_queue.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// Over-aligned flavours: AlignedVector (ml/aligned.h) allocates workspace
// and Matrix storage through these, so they must be counted too or the
// zero-allocation proof would silently skip every 64-byte-aligned tensor
// buffer.
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  if (void* p =
          std::aligned_alloc(static_cast<std::size_t>(align),
                             (size + static_cast<std::size_t>(align) - 1) &
                                 ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}

void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace eefei::ml {
namespace {

data::Dataset make_batch(std::size_t n) {
  data::SynthDigitsConfig cfg;
  cfg.image_side = 12;
  cfg.seed = 31;
  data::SynthDigits gen(cfg);
  return gen.generate(n);
}

// Allocations across `iters` repetitions of fn, after one warm-up call.
template <typename F>
std::size_t steady_state_allocations(F&& fn, int iters = 10) {
  fn();  // warm-up: workspace buffers grow here
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < iters; ++i) fn();
  return g_allocations.load() - before;
}

TEST(WorkspaceAlloc, LogisticRegressionHotPathIsAllocationFree) {
  const auto ds = make_batch(200);
  LogisticRegressionConfig cfg;
  cfg.input_dim = 144;
  LogisticRegression model(cfg);
  std::vector<double> grad(model.parameter_count());

  EXPECT_EQ(0u, steady_state_allocations(
                    [&] { (void)model.loss_and_gradient(ds.view(), grad); }));
  EXPECT_EQ(0u, steady_state_allocations([&] { (void)model.evaluate(ds.view()); }));
  EXPECT_EQ(0u, steady_state_allocations([&] {
    (void)model.predict(ds.view().slice(0, 1).features);
  }));
}

TEST(WorkspaceAlloc, ExplicitWorkspaceIsAllocationFreeOnceWarm) {
  const auto ds = make_batch(128);
  LogisticRegressionConfig cfg;
  cfg.input_dim = 144;
  LogisticRegression model(cfg);
  std::vector<double> grad(model.parameter_count());
  Workspace ws;

  EXPECT_EQ(0u, steady_state_allocations([&] {
    (void)model.loss_and_gradient(ds.view(), grad, ws);
    (void)model.evaluate_sums(ds.view(), ws);
  }));
}

TEST(WorkspaceAlloc, ModelBankSteadyStateTrainingIsAllocationFree) {
  // The batched fleet hot loop: once the arenas are warm from one round,
  // repeated rounds of the same shape (K model slots, every epoch's
  // whole-batch passes) must not touch the heap.
  const auto ds = make_batch(160);
  LogisticRegressionConfig cfg;
  cfg.input_dim = 144;
  ModelBank bank;
  bank.configure(cfg);
  const std::vector<double> global(144 * 10 + 10, 0.05);
  constexpr std::size_t kModels = 4;
  std::vector<ModelBank::Task> tasks(kModels);
  for (std::size_t i = 0; i < kModels; ++i) {
    tasks[i].batch = ds.view().slice(i * 40, 40 - 3 * i);  // ragged n_k
    tasks[i].epochs = 2;
    tasks[i].learning_rate = 0.05;
  }
  EXPECT_EQ(0u, steady_state_allocations(
                    [&] { bank.train(global, tasks); }));
}

TEST(WorkspaceAlloc, GrowingBatchReallocatesOnlyOnGrowth) {
  const auto big = make_batch(256);
  const auto small = big.view().slice(0, 64);
  LogisticRegressionConfig cfg;
  cfg.input_dim = 144;
  LogisticRegression model(cfg);
  Workspace ws;

  (void)model.evaluate_sums(big.view(), ws);  // warm at the largest size
  const std::size_t before = g_allocations.load();
  (void)model.evaluate_sums(small, ws);       // shrink: reuse, no realloc
  (void)model.evaluate_sums(big.view(), ws);  // back to max: still warm
  EXPECT_EQ(0u, g_allocations.load() - before);
}

}  // namespace
}  // namespace eefei::ml

namespace eefei::sim {
namespace {

using ml::steady_state_allocations;

// A warmed-up event-fleet ROUND LOOP — N = 1k fleet, faults on, so the
// dispatch fans across download/train/upload chains, dropped members and
// tier completions — schedules and runs with ZERO steady-state
// allocations.  FleetEvent is a 40-byte POD, and both typed queues only
// grow their backing storage, so after one warm-up round the
// per-round schedule/drain cycle never touches the heap.
template <class Q>
std::size_t typed_fleet_round_loop_allocations() {
  constexpr std::size_t kServers = 1000;
  constexpr std::size_t kSelected = 100;  // K per round
  constexpr auto kTraining =
      static_cast<std::uint32_t>(energy::EdgeState::kTraining);
  constexpr std::uint32_t kDownloadCut = drop_code(
      DropReason::kDeadline,
      static_cast<std::uint32_t>(energy::EdgeState::kDownloading));
  Q queue;
  queue.reserve(4 * kSelected);
  std::size_t fired = 0;
  Seconds round_start{0.0};

  // One round: K per-server chains (download → E epochs → upload), every
  // 7th server a fault chain (a dropped download, then a crash or deadline
  // drop in training), plus the tier completion events — the engine's event
  // shapes, with the same re-entrant schedule-from-dispatch structure.
  auto dispatch = [&](const FleetEvent& ev, Seconds at) {
    ++fired;
    switch (ev.kind) {
      case FleetEventKind::kDownloadDone: {
        FleetEvent next;
        next.kind = FleetEventKind::kEpochDone;
        next.a = ev.a;
        next.t0 = at;
        queue.schedule_at(at + Seconds{0.01 + 1e-5 * (ev.a % 13)}, next);
        break;
      }
      case FleetEventKind::kEpochDone: {
        FleetEvent next;
        next.kind = FleetEventKind::kUploadDone;
        next.a = ev.a;
        next.t0 = at;
        queue.schedule_at(at + Seconds{0.02}, next);  // equal-time ties
        break;
      }
      case FleetEventKind::kDropped: {
        if (ev.b != kDownloadCut) break;  // the follow-up is a terminal
        FleetEvent retry;
        retry.kind = FleetEventKind::kDropped;
        retry.a = ev.a;
        retry.b = drop_code(
            (ev.a % 3 == 0) ? DropReason::kCrash : DropReason::kDeadline,
            kTraining);
        retry.t0 = at;
        queue.schedule_at(at + Seconds{0.005}, retry);
        break;
      }
      default:
        break;  // chain terminals: upload done, faults resolved, tiers
    }
  };

  auto round = [&] {
    for (std::size_t i = 0; i < kSelected; ++i) {
      const std::uint32_t sid =
          static_cast<std::uint32_t>((i * 97) % kServers);
      FleetEvent ev;
      ev.kind = FleetEventKind::kDownloadDone;
      ev.a = sid;
      if (sid % 7 == 0) {  // a download cut by the deadline
        ev.kind = FleetEventKind::kDropped;
        ev.b = kDownloadCut;
      }
      queue.schedule_at(round_start + Seconds{1e-4 * (sid % 29)}, ev);
    }
    FleetEvent root;
    root.kind = FleetEventKind::kRootDone;
    queue.schedule_at(round_start + Seconds{0.5}, root);
    queue.reset_high_water();  // the per-round telemetry window
    (void)queue.run(dispatch);
    round_start = queue.now();
  };

  // The calendar queue re-derives its bucket window from each round's
  // event times; a handful of rounds discover the worst-case bucket
  // occupancies (grow-only storage), after which the cycle is warm.
  for (int i = 0; i < 8; ++i) round();
  return steady_state_allocations(round);
}

TEST(WorkspaceAlloc, FleetEventCalendarRoundLoopIsAllocationFree) {
  EXPECT_EQ(0u, typed_fleet_round_loop_allocations<
                    CalendarQueue<FleetEvent>>());
}

TEST(WorkspaceAlloc, FleetEventBinaryHeapRoundLoopIsAllocationFree) {
  EXPECT_EQ(0u, typed_fleet_round_loop_allocations<
                    TypedEventQueue<FleetEvent>>());
}

}  // namespace
}  // namespace eefei::sim
