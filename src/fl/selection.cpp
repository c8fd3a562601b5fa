#include "fl/selection.h"

#include <algorithm>
#include <bit>
#include <numeric>

namespace eefei::fl {

std::vector<ClientId> UniformRandomSelection::select(std::size_t n,
                                                     std::size_t k,
                                                     std::size_t /*round*/) {
  k = std::min(k, n);
  // Partial Fisher–Yates: O(n) setup, exact uniform sample w/o replacement.
  std::vector<ClientId> ids(n);
  std::iota(ids.begin(), ids.end(), ClientId{0});
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng_.uniform_index(n - i));
    std::swap(ids[i], ids[j]);
  }
  ids.resize(k);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<ClientId> ScalableUniformSelection::select(std::size_t n,
                                                       std::size_t k,
                                                       std::size_t /*round*/) {
  k = std::min(k, n);
  // Membership set for the draws: at least 2k slots keep the load at or
  // under 1/2, so a probe sequence is O(1) expected.  Ids are < n, so the
  // all-ones id marks an empty slot.
  constexpr ClientId kEmpty = ~ClientId{0};
  std::size_t capacity = 16;
  while (capacity < 2 * k) capacity *= 2;
  slots_.assign(capacity, kEmpty);
  const int shift = 64 - std::countr_zero(capacity);
  // Inserts v; false if it was already in the set.  Fibonacci hashing: the
  // slot is the top log2(capacity) bits of v·2^64/φ.
  const auto insert = [&](ClientId v) {
    std::size_t i = (v * 0x9e3779b97f4a7c15ULL) >> shift;
    for (; slots_[i] != kEmpty; i = (i + 1) & (capacity - 1)) {
      if (slots_[i] == v) return false;
    }
    slots_[i] = v;
    return true;
  };
  // Floyd's algorithm: for j = n-k .. n-1 draw t uniform on [0, j]; insert
  // t unless already sampled, else insert j (never sampled: every earlier
  // id is below j).  Exactly uniform without replacement, k draws total,
  // no O(n) id array.
  picks_.clear();
  for (std::size_t j = n - k; j < n; ++j) {
    const auto t = static_cast<ClientId>(rng_.uniform_index(j + 1));
    if (insert(t)) {
      picks_.push_back(t);
    } else {
      insert(j);
      picks_.push_back(j);
    }
  }
  // The picks, sorted in O(k) expected: a uniform k-subset of [0, n)
  // leaves about one id in each of k value buckets (bucket id·k/n,
  // monotone in the id), so after a counting pass the insertion sort only
  // reorders ids within a bucket.  The output is sorted for any picks.
  // The pick list is kept because scanning the set's slots instead costs
  // one unpredictable branch per slot (3x the whole draw at k = 2200).
  const double scale = static_cast<double>(k) / static_cast<double>(n);
  const auto bucket = [&](ClientId v) {
    return std::min(static_cast<std::size_t>(static_cast<double>(v) * scale),
                    k - 1);
  };
  bucket_end_.assign(k + 1, 0);
  for (const ClientId v : picks_) ++bucket_end_[bucket(v) + 1];
  for (std::size_t b = 1; b <= k; ++b) bucket_end_[b] += bucket_end_[b - 1];
  std::vector<ClientId> ids(k);
  for (const ClientId v : picks_) ids[bucket_end_[bucket(v)]++] = v;
  for (std::size_t i = 1; i < k; ++i) {
    const ClientId v = ids[i];
    std::size_t at = i;
    for (; at > 0 && ids[at - 1] > v; --at) ids[at] = ids[at - 1];
    ids[at] = v;
  }
  return ids;
}

std::vector<ClientId> RoundRobinSelection::select(std::size_t n, std::size_t k,
                                                  std::size_t round) {
  k = std::min(k, n);
  // Round t continues the rotation exactly where round t-1 left off: the
  // cursor is t·k mod n and the round takes the next k ids (mod n).  k
  // consecutive residues mod n are always distinct for k <= n, so no
  // dedupe/fill pass is needed — the old fill loop could only ever run on
  // a duplicate that cannot occur, and filling with the lowest unused ids
  // would have biased selection toward low ids.
  const std::size_t start = (round * k) % n;
  std::vector<ClientId> ids;
  ids.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    ids.push_back((start + i) % n);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<ClientId> EnergyAwareSelection::select(std::size_t n,
                                                   std::size_t k,
                                                   std::size_t /*round*/) {
  k = std::min(k, n);
  if (spent_.size() < n) spent_.resize(n, 0.0);
  std::vector<ClientId> ids(n);
  std::iota(ids.begin(), ids.end(), ClientId{0});
  std::stable_sort(ids.begin(), ids.end(), [this](ClientId a, ClientId b) {
    return spent_[a] < spent_[b];
  });
  ids.resize(k);
  std::sort(ids.begin(), ids.end());
  return ids;
}

void EnergyAwareSelection::debit(ClientId client, double joules) {
  if (spent_.size() <= client) spent_.resize(client + 1, 0.0);
  spent_[client] += joules;
}

double EnergyAwareSelection::balance(ClientId client) const {
  return client < spent_.size() ? spent_[client] : 0.0;
}

}  // namespace eefei::fl
