#include "fl/aggregator.h"

namespace eefei::fl {

Status aggregate(std::span<const LocalTrainResult> updates,
                 AggregationRule rule, std::vector<double>& global_out) {
  std::size_t survivors = 0;
  std::size_t dim = 0;
  double total_samples = 0.0;
  for (const auto& u : updates) {
    if (!u.aggregated) continue;
    if (survivors++ == 0) {
      dim = u.params.size();
    } else if (u.params.size() != dim) {
      return Error::invalid_argument("aggregate: parameter size mismatch");
    }
    total_samples += static_cast<double>(u.samples_used);
  }
  if (survivors == 0) {
    return Error::invalid_argument("aggregate: no updates");
  }
  if (rule == AggregationRule::kSampleWeighted && total_samples <= 0.0) {
    return Error::invalid_argument("aggregate: zero total samples");
  }

  global_out.assign(dim, 0.0);
  const double uniform_weight = 1.0 / static_cast<double>(survivors);
  for (const auto& u : updates) {
    if (!u.aggregated) continue;
    const double w =
        rule == AggregationRule::kUniformMean
            ? uniform_weight
            : static_cast<double>(u.samples_used) / total_samples;
    for (std::size_t i = 0; i < dim; ++i) {
      global_out[i] += w * u.params[i];
    }
  }
  return Status::success();
}

}  // namespace eefei::fl
