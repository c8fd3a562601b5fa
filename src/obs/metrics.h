// Metrics registry: named counters, gauges and quantile sketches for the
// whole simulator (fleet.rounds, link.retries, energy.joules.*,
// pool.queue_depth, pool.task_run.ns, ...).
//
// Counters and sketches are sharded across a small fixed set of slots;
// each thread hashes to one slot and updates it with a relaxed atomic, so
// concurrent recording from pool workers never serializes on a lock.
// snapshot() merges the shards into plain totals.  Metric objects have
// stable addresses for the registry's lifetime — call sites may cache the
// reference returned by counter()/gauge()/sketch().
//
// The registry itself is always cheap to *have*; whether a call site pays
// anything at all is governed by the global telemetry toggle (telemetry.h):
// disabled telemetry means the site never reaches the registry.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/sketch.h"

namespace eefei::obs {

inline constexpr std::size_t kMetricShards = 16;

namespace detail {
/// Shard index of the calling thread (stable per thread, assigned on first
/// use round-robin so pool workers spread across the slots).
[[nodiscard]] std::size_t metric_shard();
}  // namespace detail

/// Running sum of the deltas added (double-valued).
class Counter {
 public:
  void add(double delta) {
    shards_[detail::metric_shard()].v.fetch_add(delta,
                                                std::memory_order_relaxed);
  }
  void increment() { add(1.0); }
  [[nodiscard]] double value() const {
    double total = 0.0;
    for (const auto& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<double> v{0.0};
  };
  std::array<Shard, kMetricShards> shards_{};
};

/// Last-write-wins instantaneous value (queue depth, pool size, ...).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time merge of every registered metric, name-sorted.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, double>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<SketchSnapshot> sketches;

  /// Counter value by name (0.0 when absent) — test convenience.
  [[nodiscard]] double counter_value(std::string_view name) const;
  [[nodiscard]] double gauge_value(std::string_view name) const;
  /// Sketch by name (nullptr when absent).
  [[nodiscard]] const SketchSnapshot* sketch(std::string_view name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates; the returned reference stays valid for the
  /// registry's lifetime.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  /// `relative_accuracy` is only consulted on first registration of `name`.
  [[nodiscard]] QuantileSketch& sketch(
      std::string_view name,
      double relative_accuracy = QuantileSketch::kDefaultRelativeAccuracy);

  /// Never-reused process-wide id of this registry instance.  Hot call
  /// sites (e.g. the energy ledger's per-charge counter mirror) key
  /// thread-local pointer caches on it so they skip the name lookup.
  [[nodiscard]] std::uint64_t id() const { return id_; }

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  const std::uint64_t id_;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<QuantileSketch>, std::less<>>
      sketches_;
};

}  // namespace eefei::obs
