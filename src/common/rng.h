// Deterministic, splittable PRNG (xoshiro256**) used everywhere randomness is
// needed: synthetic data generation, client selection, channel losses, SGD
// shuffling.  std::mt19937 is avoided so that streams can be cheaply split
// per-client and results stay reproducible across platforms.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace eefei {

class Rng {
 public:
  /// Seeds via splitmix64 so that nearby seeds give uncorrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s = z ^ (z >> 31);
    }
  }

  using result_type = std::uint64_t;
  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n) {
    // Lemire's nearly-divisionless bounded sampling.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto l = static_cast<std::uint64_t>(m);
    if (l < n) {
      const std::uint64_t t = (0 - n) % n;
      while (l < t) {
        x = next();
        m = static_cast<__uint128_t>(x) * n;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Standard normal via Box–Muller (no cached spare: keeps state splittable).
  double normal() {
    double u1 = uniform();
    while (u1 <= 1e-300) u1 = uniform();
    const double u2 = uniform();
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    return __builtin_sqrt(-2.0 * __builtin_log(u1)) *
           __builtin_cos(kTwoPi * u2);
  }

  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Bernoulli draw with success probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Exponential with rate lambda.
  double exponential(double lambda) {
    double u = uniform();
    while (u <= 1e-300) u = uniform();
    return -__builtin_log(u) / lambda;
  }

  /// Gamma(shape, 1) via Marsaglia–Tsang; used by the Dirichlet partitioner.
  double gamma(double shape) {
    if (shape < 1.0) {
      const double u = uniform();
      return gamma(shape + 1.0) * __builtin_pow(u, 1.0 / shape);
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / __builtin_sqrt(9.0 * d);
    for (;;) {
      double x = normal();
      double v = 1.0 + c * x;
      if (v <= 0.0) continue;
      v = v * v * v;
      const double u = uniform();
      if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
      if (__builtin_log(u) < 0.5 * x * x + d * (1.0 - v + __builtin_log(v))) {
        return d * v;
      }
    }
  }

  /// Derives an independent child stream (e.g. one per simulated client).
  [[nodiscard]] Rng split(std::uint64_t stream_id) {
    return Rng(split_seed(stream_id));
  }

  /// The seed split(stream_id) would construct its child from, advancing
  /// this generator identically: lets a caller keep 8 bytes per stream and
  /// build the 32-byte child only when it is first needed.
  [[nodiscard]] std::uint64_t split_seed(std::uint64_t stream_id) {
    return next() ^ (0xd1342543de82ef95ULL * (stream_id + 1));
  }

  /// Fisher–Yates shuffle of an indexable container.
  template <typename Container>
  void shuffle(Container& c) {
    for (std::size_t i = c.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_index(i));
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Stateless counted stream family.  `Rng::split` consumes the parent
/// generator, so the order of splits matters — fine for sequential setup,
/// unusable when shard workers must derive per-(server, round) streams in
/// whatever order the thread pool schedules them.  A family instead derives
/// every stream purely from (seed, a, b): any worker, on any thread, in any
/// order, gets byte-identical streams.  Indices are mixed through two
/// rounds of splitmix64 so that nearby (a, b) pairs decorrelate.
class RngStreamFamily {
 public:
  explicit RngStreamFamily(std::uint64_t seed) : seed_(seed) {}

  /// The Rng for counted stream (a, b) — e.g. (server, round).
  [[nodiscard]] Rng stream(std::uint64_t a, std::uint64_t b = 0) const {
    std::uint64_t x = seed_;
    x = mix(x + 0x9e3779b97f4a7c15ULL * (a + 1));
    x = mix(x + 0xd1342543de82ef95ULL * (b + 1));
    return Rng(x);
  }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  static constexpr std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint64_t seed_;
};

}  // namespace eefei
