// Client-selection policies: which K of the N edge servers join round t
// (the 𝒦_t subset of the paper).  The prototype uses uniform random
// selection; round-robin and energy-aware variants support the extension
// studies.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "fl/client.h"

namespace eefei::fl {

class SelectionPolicy {
 public:
  virtual ~SelectionPolicy() = default;
  /// Returns k distinct client indices in [0, n).  k is clamped to n.
  [[nodiscard]] virtual std::vector<ClientId> select(std::size_t n,
                                                     std::size_t k,
                                                     std::size_t round) = 0;
};

/// Uniform random K-of-N without replacement (the paper's policy).
class UniformRandomSelection final : public SelectionPolicy {
 public:
  explicit UniformRandomSelection(Rng rng) : rng_(rng) {}
  [[nodiscard]] std::vector<ClientId> select(std::size_t n, std::size_t k,
                                             std::size_t round) override;

 private:
  Rng rng_;
};

/// Uniform random K-of-N without replacement in O(K) expected time and
/// O(K) memory, independent of N (Floyd's sampling algorithm) — the
/// million-server variant.  The K draws test membership in a hash set of
/// at least 2K slots, and the sorted output comes from a bucket pass over
/// the values, which are uniform.  The partial Fisher–Yates of
/// UniformRandomSelection is exactly uniform too, but its O(N) id array
/// per round dominates a fleet round once N reaches 10^6.  The two
/// policies draw different variates, so their selections differ for the
/// same seed; both are exactly uniform.
class ScalableUniformSelection final : public SelectionPolicy {
 public:
  explicit ScalableUniformSelection(Rng rng) : rng_(rng) {}
  [[nodiscard]] std::vector<ClientId> select(std::size_t n, std::size_t k,
                                             std::size_t round) override;

 private:
  Rng rng_;
  /// The round's id set (open addressing with linear probing over a
  /// power-of-two table), its picks in draw order and the bucket offsets
  /// that sort them, all reused across rounds.
  std::vector<ClientId> slots_;
  std::vector<ClientId> picks_;
  std::vector<std::size_t> bucket_end_;
};

/// Deterministic rotation: round t takes clients [t·k, t·k+k) mod n.
class RoundRobinSelection final : public SelectionPolicy {
 public:
  [[nodiscard]] std::vector<ClientId> select(std::size_t n, std::size_t k,
                                             std::size_t round) override;
};

/// Picks the k clients with the lowest accumulated energy debit, breaking
/// ties by id — a simple fairness/energy-balancing policy.  Debits are fed
/// back by the caller after each round.
class EnergyAwareSelection final : public SelectionPolicy {
 public:
  [[nodiscard]] std::vector<ClientId> select(std::size_t n, std::size_t k,
                                             std::size_t round) override;
  void debit(ClientId client, double joules);
  [[nodiscard]] double balance(ClientId client) const;

 private:
  std::vector<double> spent_;
};

}  // namespace eefei::fl
