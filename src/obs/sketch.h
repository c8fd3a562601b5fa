// Mergeable quantile sketch: a DDSketch-style log-bucketed histogram with a
// bounded *relative* error, so one fixed bucket layout covers nanoseconds
// and kilojoules alike — the fleet engines record per-server round times,
// upload waits and joules into these without picking bounds up front.
//
// Guarantee: for any recorded value v in [kMinTrackable, kMaxTrackable] and
// any quantile q, the estimate returned by SketchSnapshot::quantile(q) is
// within `relative_accuracy` of the true order statistic at the same rank
// (rank = round(q * (count - 1)), 0-based).  Values <= 0 land in a zero
// bucket and report as 0.0; values outside the trackable range clamp to the
// edge buckets (their rank is preserved, only their magnitude saturates).
//
// Concurrency follows the Counter idiom: a small fixed set of shards with
// relaxed atomics, merged at snapshot().  Snapshots taken with the same
// relative accuracy merge losslessly (shard-by-shard recording == one-shard
// recording; proven by test), which is what makes per-shard or per-process
// sketches composable into fleet-wide distributions.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace eefei::obs {

/// Point-in-time merge of a QuantileSketch (or of several, via merge_from).
/// `buckets` is trimmed to the non-zero span; buckets[k] counts values whose
/// log-bucket index is first_index + k, i.e. v in
/// (gamma^(i-1), gamma^i] for i = first_index + k.
struct SketchSnapshot {
  std::string name;
  double relative_accuracy = 0.0;
  double gamma = 0.0;
  std::uint64_t count = 0;       // total observations incl. zero bucket
  std::uint64_t zero_count = 0;  // observations <= 0
  double sum = 0.0;
  double min = 0.0;  // only meaningful when count > 0
  double max = 0.0;
  std::int32_t first_index = 0;
  std::vector<std::uint64_t> buckets;

  /// Estimate of the q-quantile (q in [0, 1]); 0.0 when empty.  The
  /// estimate for a log bucket is its midpoint 2*gamma^i / (gamma + 1),
  /// within relative_accuracy of every value the bucket can hold.
  [[nodiscard]] double quantile(double q) const;

  /// Folds `other` into this sketch.  Requires the same relative accuracy
  /// (same gamma) — merging sketches with different resolutions would
  /// silently void the error bound.
  [[nodiscard]] Status merge_from(const SketchSnapshot& other);
};

class QuantileSketch {
 public:
  /// Default 1% relative error ≈ 3.1k buckets over [1e-12, 1e15].
  static constexpr double kDefaultRelativeAccuracy = 0.01;
  /// Accuracy is clamped into this range to bound bucket-array memory
  /// (0.001 -> ~31k buckets/shard, the most we are willing to pay).
  static constexpr double kMinRelativeAccuracy = 0.001;
  static constexpr double kMaxRelativeAccuracy = 0.25;
  /// Values outside this range clamp to the edge buckets.
  static constexpr double kMinTrackable = 1e-12;
  static constexpr double kMaxTrackable = 1e15;

  explicit QuantileSketch(double relative_accuracy = kDefaultRelativeAccuracy);
  QuantileSketch(const QuantileSketch&) = delete;
  QuantileSketch& operator=(const QuantileSketch&) = delete;

  /// Thread-safe, lock-free, O(1).  NaN is dropped.
  void record(double v);

  /// Amortized recorder for tight loops (the fleet engines' O(N) per-server
  /// joules pass): classifies by comparing against a precomputed bucket-
  /// bounds table instead of taking a log per value, and batches runs of
  /// same-bucket values into one atomic add — ~5x cheaper than record()
  /// when consecutive values are similar.  Values exactly on a bucket
  /// boundary may classify into the adjacent bucket (the bounds table and
  /// the log path round differently at the edge); both midpoints satisfy
  /// the relative-error bound for such values.  NOT thread-safe; create
  /// one per task and let the destructor flush.
  class BulkRecorder {
   public:
    explicit BulkRecorder(QuantileSketch& sketch);
    BulkRecorder(const BulkRecorder&) = delete;
    BulkRecorder& operator=(const BulkRecorder&) = delete;
    ~BulkRecorder();

    void record(double v);

   private:
    void flush_slot();

    QuantileSketch& sketch_;
    std::size_t shard_idx_;
    std::ptrdiff_t slot_ = -1;  // current run's bucket slot, -1 = none
    std::uint64_t slot_count_ = 0;
    std::uint64_t count_ = 0;
    std::uint64_t zero_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
  };

  [[nodiscard]] double relative_accuracy() const { return alpha_; }
  [[nodiscard]] double gamma() const { return gamma_; }
  [[nodiscard]] std::uint64_t count() const;

  /// Merged point-in-time snapshot (safe while other threads record).
  [[nodiscard]] SketchSnapshot snapshot() const;

 private:
  // Matches kMetricShards so each thread's metric slot maps 1:1 onto a
  // sketch shard (no cross-thread CAS contention on min/max at fleet
  // scale).  ~25 KB of buckets per shard at the default accuracy.
  static constexpr std::size_t kShards = 16;

  struct alignas(64) Shard {
    std::atomic<double> sum{0.0};
    std::atomic<double> min{0.0};  // valid iff count > 0; CAS-updated
    std::atomic<double> max{0.0};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> zero{0};
    std::vector<std::atomic<std::uint64_t>> buckets;
  };

  [[nodiscard]] std::int32_t index_of(double v) const;

  double alpha_ = 0.0;
  double gamma_ = 0.0;
  double inv_log_gamma_ = 0.0;
  std::int32_t min_index_ = 0;  // index of buckets[0]
  std::int32_t max_index_ = 0;  // index of buckets.back()
  /// bucket_bounds_[s] = gamma^(min_index_ - 1 + s): interior slot s holds
  /// values in (bucket_bounds_[s], bucket_bounds_[s + 1]].  Immutable
  /// after construction; BulkRecorder's log-free classification path.
  std::vector<double> bucket_bounds_;
  std::array<Shard, kShards> shards_;
};

}  // namespace eefei::obs
