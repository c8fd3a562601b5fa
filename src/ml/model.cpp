#include "ml/model.h"

#include <cassert>

#include "common/thread_pool.h"

namespace eefei::ml {

EvalResult evaluate_sharded(const Model& model, const BatchView& batch,
                            ThreadPool* pool,
                            std::vector<Workspace>& workspaces) {
  assert(batch.valid());
  const std::size_t n = batch.size();
  const std::size_t chunks = (n + kEvalChunk - 1) / kEvalChunk;
  if (workspaces.size() < chunks) workspaces.resize(chunks);

  std::vector<EvalSums> partials(chunks);
  auto score_chunk = [&](std::size_t ci) {
    const std::size_t begin = ci * kEvalChunk;
    const std::size_t count = std::min(kEvalChunk, n - begin);
    partials[ci] =
        model.evaluate_sums(batch.slice(begin, count), workspaces[ci]);
  };
  if (pool != nullptr && chunks > 1) {
    pool->parallel_for(chunks, score_chunk);
  } else {
    for (std::size_t ci = 0; ci < chunks; ++ci) score_chunk(ci);
  }

  EvalSums total;
  for (const auto& p : partials) total += p;
  return model.finish_eval(total);
}

}  // namespace eefei::ml
