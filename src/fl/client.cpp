#include "fl/client.h"

#include <algorithm>
#include <cassert>

namespace eefei::fl {

Client::Client(ClientId id, const data::Shard* shard, ClientConfig config)
    : id_(id), shard_(shard), config_(config) {
  assert(shard_ != nullptr);
  assert(shard_->size() > 0);
  assert(shard_->feature_dim() == config_.model.input_dim);
}

std::size_t Client::num_samples() const {
  const std::size_t n = shard_->size();
  return config_.sample_limit == 0 ? n : std::min(n, config_.sample_limit);
}

ml::BatchView Client::local_batch() const {
  return config_.sample_limit == 0 ? shard_->view()
                                   : shard_->prefix_view(config_.sample_limit);
}

double Client::local_loss(std::span<const double> params) const {
  const auto probe = ml::make_model(config_.model);
  auto p = probe->parameters();
  assert(params.size() == p.size());
  std::copy(params.begin(), params.end(), p.begin());
  return probe->evaluate(local_batch()).loss;
}

}  // namespace eefei::fl
