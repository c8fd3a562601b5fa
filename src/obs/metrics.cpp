#include "obs/metrics.h"

namespace eefei::obs {

namespace detail {

std::size_t metric_shard() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return shard;
}

}  // namespace detail

double MetricsSnapshot::counter_value(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0.0;
}

double MetricsSnapshot::gauge_value(std::string_view name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0.0;
}

const SketchSnapshot* MetricsSnapshot::sketch(std::string_view name) const {
  for (const auto& s : sketches) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

MetricsRegistry::MetricsRegistry() : id_([] {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}()) {}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = counters_.find(name); it != counters_.end()) {
    return *it->second;
  }
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = gauges_.find(name); it != gauges_.end()) {
    return *it->second;
  }
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

QuantileSketch& MetricsRegistry::sketch(std::string_view name,
                                        double relative_accuracy) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = sketches_.find(name); it != sketches_.end()) {
    return *it->second;
  }
  return *sketches_
              .emplace(std::string(name),
                       std::make_unique<QuantileSketch>(relative_accuracy))
              .first->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  snap.sketches.reserve(sketches_.size());
  for (const auto& [name, sk] : sketches_) {
    SketchSnapshot ss = sk->snapshot();
    ss.name = name;
    snap.sketches.push_back(std::move(ss));
  }
  return snap;
}

}  // namespace eefei::obs
