// TierPlan mapping/fan-in/participation invariants, the lazy idle-charge
// schedule's fold-equals-replay bit contract, and the O(K) Floyd sampler.
#include "fl/tiering.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "common/rng.h"
#include "energy/idle_settlement.h"
#include "fl/selection.h"
#include "ml/serialize.h"

namespace eefei::fl {
namespace {

TEST(TierPlan, ContiguousBlockMapping) {
  TierConfig cfg;
  cfg.gateway_fanin = 64;
  cfg.region_fanin = 8;
  TierPlan plan(1000, cfg);

  EXPECT_EQ(plan.num_servers(), 1000u);
  EXPECT_EQ(plan.num_gateways(), 16u);  // ceil(1000 / 64)
  EXPECT_EQ(plan.num_regions(), 2u);    // ceil(16 / 8)
  EXPECT_EQ(plan.root_fanin(), 2u);

  EXPECT_EQ(plan.gateway_of(0), 0u);
  EXPECT_EQ(plan.gateway_of(63), 0u);
  EXPECT_EQ(plan.gateway_of(64), 1u);
  EXPECT_EQ(plan.gateway_of(999), 15u);
  EXPECT_EQ(plan.region_of_gateway(7), 0u);
  EXPECT_EQ(plan.region_of_gateway(8), 1u);
  EXPECT_EQ(plan.region_of(999), 1u);
}

TEST(TierPlan, FanInsAreBoundedAndSumToTheFleet) {
  for (const std::size_t n : {1u, 7u, 64u, 65u, 1000u, 4097u}) {
    TierConfig cfg;
    cfg.gateway_fanin = 64;
    cfg.region_fanin = 8;
    TierPlan plan(n, cfg);

    std::size_t server_sum = 0;
    for (std::size_t g = 0; g < plan.num_gateways(); ++g) {
      EXPECT_LE(plan.gateway_fanin(g), cfg.gateway_fanin);
      EXPECT_GE(plan.gateway_fanin(g), 1u);
      server_sum += plan.gateway_fanin(g);
    }
    EXPECT_EQ(server_sum, n) << "n=" << n;

    std::size_t gateway_sum = 0;
    for (std::size_t r = 0; r < plan.num_regions(); ++r) {
      EXPECT_LE(plan.region_fanin(r), cfg.region_fanin);
      EXPECT_GE(plan.region_fanin(r), 1u);
      gateway_sum += plan.region_fanin(r);
    }
    EXPECT_EQ(gateway_sum, plan.num_gateways()) << "n=" << n;
  }
}

TEST(TierPlan, ParticipationCountsSelectedChildrenSorted) {
  TierConfig cfg;
  cfg.gateway_fanin = 4;
  cfg.region_fanin = 2;
  TierPlan plan(32, cfg);  // 8 gateways, 4 regions

  // Out-of-order selection: 3 servers under gateway 0, one each under
  // gateways 5 and 7 (regions 0, 2, 3).
  const std::vector<ClientId> selected = {23, 1, 0, 20, 3, 28};
  const auto part = plan.participation(selected);

  ASSERT_EQ(part.gateways.size(), 3u);
  EXPECT_EQ(part.gateways[0].id, 0u);
  EXPECT_EQ(part.gateways[0].expected, 3u);
  EXPECT_EQ(part.gateways[1].id, 5u);
  EXPECT_EQ(part.gateways[1].expected, 2u);  // servers 20 and 23
  EXPECT_EQ(part.gateways[2].id, 7u);
  EXPECT_EQ(part.gateways[2].expected, 1u);

  ASSERT_EQ(part.regions.size(), 3u);
  EXPECT_EQ(part.regions[0].id, 0u);
  EXPECT_EQ(part.regions[0].expected, 1u);  // gateway 0 only
  EXPECT_EQ(part.regions[1].id, 2u);
  EXPECT_EQ(part.regions[1].expected, 1u);  // gateway 5
  EXPECT_EQ(part.regions[2].id, 3u);
  EXPECT_EQ(part.regions[2].expected, 1u);  // gateway 7
  EXPECT_EQ(part.root_expected, 3u);

  // Order-independence: participation depends only on the set.
  const std::vector<ClientId> shuffled = {28, 3, 20, 0, 1, 23};
  const auto part2 = plan.participation(shuffled);
  ASSERT_EQ(part2.gateways.size(), part.gateways.size());
  for (std::size_t i = 0; i < part.gateways.size(); ++i) {
    EXPECT_EQ(part2.gateways[i].id, part.gateways[i].id);
    EXPECT_EQ(part2.gateways[i].expected, part.gateways[i].expected);
  }
  EXPECT_EQ(part2.root_expected, part.root_expected);
}

TEST(TierPlan, InvalidFanInRejected) {
  EXPECT_FALSE((TierConfig{0, 8}).valid());
  EXPECT_FALSE((TierConfig{8, 0}).valid());
  EXPECT_TRUE((TierConfig{1, 1}).valid());
}

// ------------------------------------------------- lazy idle settlement

TEST(IdleChargeSchedule, FoldEqualsPerRoundReplayBitwise) {
  const Watts p_wait{1.7};
  energy::IdleChargeSchedule sched(p_wait);
  Rng rng(42);
  for (int r = 0; r < 257; ++r) {
    sched.push_round(Seconds{0.1 + 40.0 * rng.uniform()});
  }
  ASSERT_EQ(sched.rounds(), 257u);

  // An untouched ledger cell accumulates left to right from exact zero —
  // the schedule's incremental fold must land on the same bits.
  Joules replay{0.0};
  for (const Joules c : sched.per_round()) replay += c;
  EXPECT_EQ(replay.value(), sched.all_rounds_total().value());

  // A partial replay (server selected mid-run) is a prefix of the same
  // sequence; suffix replay continues bit-exactly.
  Joules prefix{0.0};
  const auto charges = sched.per_round();
  for (std::size_t r = 0; r < 100; ++r) prefix += charges[r];
  for (std::size_t r = 100; r < charges.size(); ++r) prefix += charges[r];
  EXPECT_EQ(prefix.value(), sched.all_rounds_total().value());
}

TEST(IdleChargeSchedule, PerRoundChargeIsPowerTimesDuration) {
  energy::IdleChargeSchedule sched(Watts{2.0});
  sched.push_round(Seconds{3.0});
  sched.push_round(Seconds{0.5});
  ASSERT_EQ(sched.rounds(), 2u);
  EXPECT_EQ(sched.per_round()[0].value(), 6.0);
  EXPECT_EQ(sched.per_round()[1].value(), 1.0);
  EXPECT_EQ(sched.all_rounds_total().value(), 7.0);
}

// ------------------------------------------------- O(K) Floyd sampler

TEST(ScalableUniformSelection, DrawsKDistinctInRange) {
  ScalableUniformSelection policy(Rng(7));
  for (std::size_t round = 0; round < 50; ++round) {
    const auto ids = policy.select(1000, 25, round);
    ASSERT_EQ(ids.size(), 25u);
    std::set<ClientId> distinct(ids.begin(), ids.end());
    EXPECT_EQ(distinct.size(), ids.size());
    for (const auto id : ids) EXPECT_LT(id, 1000u);
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  }
}

TEST(ScalableUniformSelection, KEqualsNSelectsEveryone) {
  ScalableUniformSelection policy(Rng(3));
  const auto ids = policy.select(12, 12, 0);
  ASSERT_EQ(ids.size(), 12u);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_EQ(ids[i], i);
  // k > n clamps like the other policies.
  EXPECT_EQ(policy.select(5, 9, 1).size(), 5u);
}

TEST(ScalableUniformSelection, SameSeedSameSelections) {
  ScalableUniformSelection a(Rng(99));
  ScalableUniformSelection b(Rng(99));
  for (std::size_t round = 0; round < 10; ++round) {
    EXPECT_EQ(a.select(500, 16, round), b.select(500, 16, round));
  }
}

TEST(ScalableUniformSelection, CoversTheWholeRangeEventually) {
  // Weak uniformity check: over many rounds every decile of the id space
  // gets selected — Floyd's insertion rule must not starve low ids.
  ScalableUniformSelection policy(Rng(13));
  std::vector<std::size_t> decile_hits(10, 0);
  for (std::size_t round = 0; round < 200; ++round) {
    for (const auto id : policy.select(1000, 10, round)) {
      ++decile_hits[id / 100];
    }
  }
  for (std::size_t d = 0; d < 10; ++d) {
    EXPECT_GT(decile_hits[d], 100u) << "decile " << d;
  }
}

TEST(ScalableUniformSelection, MatchesParentDraws) {
  // CRC of the sorted ids of six consecutive rounds, recorded before the
  // membership test moved from a linear scan to a hash set: same draws,
  // same collision rule, same sorted output.
  struct Pin {
    std::size_t n;
    std::size_t k;
    std::uint32_t crc;
  };
  for (const Pin& pin : {Pin{100000, 2200, 0x365f7baau},
                         Pin{1000000, 10, 0x454f8fbeu},
                         Pin{50, 50, 0xd117e6f4u}}) {
    ScalableUniformSelection policy(Rng(pin.n * 613 + pin.k));
    std::vector<std::uint64_t> ids;
    for (std::size_t round = 0; round < 6; ++round) {
      for (const auto id : policy.select(pin.n, pin.k, round)) {
        ids.push_back(id);
      }
    }
    ASSERT_EQ(ids.size(), 6 * pin.k);
    const auto crc = ml::crc32(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(ids.data()),
        ids.size() * sizeof(std::uint64_t)));
    EXPECT_EQ(crc, pin.crc) << "n=" << pin.n << " k=" << pin.k << std::hex
                            << " crc=0x" << crc;
  }
}

}  // namespace
}  // namespace eefei::fl
