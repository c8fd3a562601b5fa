// Span tracer: nested, timestamped spans and instant events over two clock
// domains.
//
//   - *Simulated* time (Clock::kSim) for everything the discrete-event
//     simulation models: rounds, per-server download/train/upload phases,
//     retries, crashes, deadline truncations.  Timestamps are the simulated
//     Seconds the caller already holds — recording them never advances or
//     perturbs the simulation, which is what keeps traced runs byte-identical
//     to untraced ones.
//   - *Wall* time (Clock::kWall) for host-side work: ThreadPool tasks,
//     kernels, sweep engines, coordinator compute.  Timestamps come from a
//     steady clock relative to the tracer's construction.
//
// Each simulated edge server gets its own pseudo-"process" (pid) so the
// Chrome trace export renders one track per server — the paper's Fig. 3
// state machine laid out on a timeline.  Host-side events share a separate
// pid keyed by recording thread.
//
// Recording goes to per-thread buffers registered with the tracer; each
// buffer is appended to only by its owner thread under a private mutex, so
// recording threads never contend with each other.  Event names, categories
// and arg keys must be string literals (they are stored as const char*).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <chrono>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/units.h"

namespace eefei::obs {

enum class Clock : std::uint8_t { kSim, kWall };

/// One numeric span/event argument; `key` must be a string literal.
struct TraceArg {
  const char* key;
  double value;
};

struct TraceEvent {
  const char* name = "";  // string literal
  const char* cat = "";   // string literal
  char ph = 'X';          // 'X' complete span, 'i' instant
  Clock clock = Clock::kSim;
  std::int32_t pid = 0;
  std::int32_t tid = 0;
  double ts_us = 0.0;   // sim: simulated µs; wall: µs since tracer birth
  double dur_us = 0.0;  // 'X' only
  std::uint8_t n_args = 0;
  std::array<TraceArg, 4> args{};
  /// Optional string argument (log messages); key is a literal, empty = none.
  const char* str_key = nullptr;
  std::string str_value;
};

class Tracer {
 public:
  /// Track (pseudo-process) layout of the exported trace.
  static constexpr std::int32_t kCoordinatorPid = 0;
  static constexpr std::int32_t kHostPid = 9999;
  [[nodiscard]] static constexpr std::int32_t server_pid(std::size_t server) {
    return static_cast<std::int32_t>(server) + 1;
  }
  /// Aggregation-tier tracks for the event-driven fleet engine: one track
  /// per ACTIVE gateway / regional coordinator per round (≤ K of each, so
  /// a 1M-server trace stays viewable), plus one root track.  Named lazily
  /// on first use by the engine.
  static constexpr std::int32_t kTierGatewayPidBase = 2'000'000;
  static constexpr std::int32_t kTierRegionPidBase = 3'000'000;
  static constexpr std::int32_t kTierRootPid = 3'999'999;
  [[nodiscard]] static constexpr std::int32_t tier_gateway_pid(
      std::size_t gateway) {
    return kTierGatewayPidBase + static_cast<std::int32_t>(gateway);
  }
  [[nodiscard]] static constexpr std::int32_t tier_region_pid(
      std::size_t region) {
    return kTierRegionPidBase + static_cast<std::int32_t>(region);
  }

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  ~Tracer();

  /// Human-readable name for a track, e.g. "edge_server_3" (idempotent).
  void set_track_name(std::int32_t pid, std::string name);

  // --- simulated-time recording (timestamps supplied by the caller) ---
  void sim_span(const char* name, const char* cat, std::int32_t pid,
                Seconds start, Seconds duration,
                std::initializer_list<TraceArg> args = {});
  void sim_instant(const char* name, const char* cat, std::int32_t pid,
                   Seconds at, std::initializer_list<TraceArg> args = {});

  // --- wall-time recording (timestamps from the tracer's steady clock) ---
  [[nodiscard]] std::uint64_t wall_now_ns() const;
  void wall_span_ns(const char* name, const char* cat, std::uint64_t start_ns,
                    std::uint64_t end_ns,
                    std::initializer_list<TraceArg> args = {});
  void wall_instant(const char* name, const char* cat,
                    std::initializer_list<TraceArg> args = {},
                    const char* str_key = nullptr,
                    std::string_view str_value = {});

  /// RAII wall span; records on destruction.  A null tracer is inert, so
  /// call sites can write `Tracer::WallSpan s(obs::tracer(), ...)`.
  class WallSpan {
   public:
    WallSpan(Tracer* tracer, const char* name, const char* cat,
             std::initializer_list<TraceArg> args = {})
        : tracer_(tracer), name_(name), cat_(cat) {
      n_args_ = static_cast<std::uint8_t>(
          std::min(args.size(), args_.size()));
      std::copy_n(args.begin(), n_args_, args_.begin());
      if (tracer_ != nullptr) start_ns_ = tracer_->wall_now_ns();
    }
    WallSpan(const WallSpan&) = delete;
    WallSpan& operator=(const WallSpan&) = delete;
    ~WallSpan();

   private:
    Tracer* tracer_;
    const char* name_;
    const char* cat_;
    std::uint64_t start_ns_ = 0;
    std::uint8_t n_args_ = 0;
    std::array<TraceArg, 4> args_{};
  };

  /// All recorded events in (buffer registration, insertion) order.  Meant
  /// for export/inspection once recording threads are quiescent; safe to
  /// call concurrently with recording, but then only a point-in-time view.
  [[nodiscard]] std::vector<TraceEvent> events() const;
  /// Registered track names, pid-sorted.
  [[nodiscard]] std::vector<std::pair<std::int32_t, std::string>> track_names()
      const;
  [[nodiscard]] bool empty() const;

 private:
  struct Buffer {
    mutable std::mutex mutex;  // owner appends; events() reads
    std::vector<TraceEvent> events;
    std::int32_t tid = 0;
  };

  [[nodiscard]] Buffer& local_buffer();
  void record(TraceEvent&& e, std::initializer_list<TraceArg> args);

  std::chrono::steady_clock::time_point birth_;
  /// Process-unique, never reused — keys the thread-local buffer cache.
  const std::uint64_t id_;
  mutable std::mutex buffers_mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  mutable std::mutex names_mutex_;
  std::vector<std::pair<std::int32_t, std::string>> names_;
};

}  // namespace eefei::obs
