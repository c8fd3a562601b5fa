// Model aggregation rules.  The paper's Eq. 2 is the unweighted FedAvg mean
// over the selected subset; the sample-weighted variant is provided for the
// non-IID ablations (where shard sizes differ).
#pragma once

#include <span>
#include <vector>

#include "common/result.h"
#include "fl/client.h"

namespace eefei::fl {

enum class AggregationRule {
  kUniformMean,    // Eq. 2: ω_{t+1} = (1/K) Σ ω_{k,t}
  kSampleWeighted, // ω_{t+1} = Σ (n_k/n) ω_{k,t}
};

/// Aggregates the updates whose `aggregated` flag is set into `global_out`
/// (resized to match), skipping the vetoed ones in place: each element sums
/// the survivors' terms in update order.  Fails if no update survives or
/// the survivors' parameter sizes differ.
[[nodiscard]] Status aggregate(std::span<const LocalTrainResult> updates,
                               AggregationRule rule,
                               std::vector<double>& global_out);

}  // namespace eefei::fl
