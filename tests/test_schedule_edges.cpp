// Edge cases of the disjoint-round experiment schedules: the smallest
// legal cluster sizes and odd n, where the circle method needs a bye. The
// planner relies on three invariants — every round node-disjoint, every
// pair/triplet covered, nothing covered twice — so each is checked
// directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "estimate/schedule.hpp"
#include "util/error.hpp"

namespace lmo::estimate {
namespace {

using PairSet = std::set<Pair>;

void expect_rounds_disjoint(const std::vector<std::vector<Pair>>& rounds) {
  for (const auto& round : rounds) {
    std::set<int> seen;
    for (const auto& [i, j] : round) {
      EXPECT_NE(i, j);
      EXPECT_TRUE(seen.insert(i).second) << "node " << i << " used twice";
      EXPECT_TRUE(seen.insert(j).second) << "node " << j << " used twice";
    }
  }
}

PairSet covered_pairs(const std::vector<std::vector<Pair>>& rounds) {
  PairSet covered;
  for (const auto& round : rounds)
    for (const auto& [i, j] : round) {
      const Pair canonical = i < j ? Pair{i, j} : Pair{j, i};
      EXPECT_TRUE(covered.insert(canonical).second)
          << "pair (" << canonical.first << "," << canonical.second
          << ") scheduled twice";
    }
  return covered;
}

TEST(ScheduleEdges, TwoNodesIsOneRoundOfOnePair) {
  const auto rounds = pair_rounds(2);
  ASSERT_EQ(rounds.size(), 1u);
  ASSERT_EQ(rounds[0].size(), 1u);
  EXPECT_EQ(rounds[0][0], (Pair{0, 1}));
}

TEST(ScheduleEdges, ThreeNodesCoversAllPairsSerially) {
  // Odd n: every round can hold only one pair (the third node sits out).
  const auto rounds = pair_rounds(3);
  expect_rounds_disjoint(rounds);
  const PairSet covered = covered_pairs(rounds);
  EXPECT_EQ(covered, (PairSet{{0, 1}, {0, 2}, {1, 2}}));
  for (const auto& round : rounds) EXPECT_LE(round.size(), 1u);
}

TEST(ScheduleEdges, OddNUsesAByeAndCoversEveryPairOnce) {
  for (const int n : {5, 7, 9}) {
    const auto rounds = pair_rounds(n);
    EXPECT_EQ(int(rounds.size()), n) << "odd n has n rounds";
    expect_rounds_disjoint(rounds);
    const PairSet covered = covered_pairs(rounds);
    const auto want = all_pairs(n);
    EXPECT_EQ(covered, PairSet(want.begin(), want.end())) << "n=" << n;
    // With a bye, each round holds floor(n/2) pairs.
    for (const auto& round : rounds) EXPECT_EQ(int(round.size()), n / 2);
  }
}

TEST(ScheduleEdges, EvenNIsAPerfectOneFactorization) {
  for (const int n : {4, 6, 16}) {
    const auto rounds = pair_rounds(n);
    EXPECT_EQ(int(rounds.size()), n - 1) << "even n has n-1 rounds";
    expect_rounds_disjoint(rounds);
    const PairSet covered = covered_pairs(rounds);
    EXPECT_EQ(covered.size(), std::size_t(n * (n - 1) / 2)) << "n=" << n;
    for (const auto& round : rounds) EXPECT_EQ(int(round.size()), n / 2);
  }
}

TEST(ScheduleEdges, TripletRoundsThreeNodes) {
  // n=3: the three orientations all share the same nodes — strictly
  // serial.
  const auto triplets = all_oriented_triplets(3);
  ASSERT_EQ(triplets.size(), 3u);
  const auto rounds = triplet_rounds(triplets);
  EXPECT_EQ(rounds.size(), 3u);
  for (const auto& round : rounds) EXPECT_EQ(round.size(), 1u);
}

TEST(ScheduleEdges, TripletRoundsDisjointAndCoverEachOrientationOnce) {
  for (const int n : {5, 6, 7}) {
    const auto triplets = all_oriented_triplets(n);
    ASSERT_EQ(int(triplets.size()), 3 * (n * (n - 1) * (n - 2) / 6));
    const auto rounds = triplet_rounds(triplets);
    std::set<Triplet> covered;
    std::size_t total = 0;
    for (const auto& round : rounds) {
      std::set<int> nodes;
      for (const Triplet& t : round) {
        for (const int p : t) {
          EXPECT_TRUE(nodes.insert(p).second)
              << "node " << p << " used twice in a round";
        }
        EXPECT_TRUE(covered.insert(t).second) << "orientation scheduled twice";
        ++total;
      }
    }
    EXPECT_EQ(total, triplets.size()) << "n=" << n;
    EXPECT_EQ(covered.size(), triplets.size()) << "n=" << n;
  }
}

TEST(ScheduleEdges, PackPairsHandlesArbitrarySubsets) {
  // The planner packs whatever the cache filter leaves over — including
  // overlapping pairs that must serialize and duplicates of one node.
  const std::vector<Pair> pairs{{0, 1}, {0, 2}, {0, 3}, {1, 2}};
  const auto rounds = pack_pairs(pairs);
  expect_rounds_disjoint(rounds);
  const PairSet covered = covered_pairs(rounds);
  EXPECT_EQ(covered, PairSet(pairs.begin(), pairs.end()));
  // {0,1} and {2,?}: the only disjoint combination is {0,1}+... none of
  // {0,2},{0,3} fit with each other; {1,2} conflicts with {0,1} and {0,2}.
  // First-fit: round0 = {0,1}; round1 = {0,2}; round2 = {0,3}+{1,2}.
  ASSERT_EQ(rounds.size(), 3u);
  EXPECT_EQ(rounds[2].size(), 2u);
}

TEST(ScheduleEdges, PackPairsEmptyAndSingle) {
  EXPECT_TRUE(pack_pairs({}).empty());
  const auto rounds = pack_pairs({{3, 4}});
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0], (std::vector<Pair>{{3, 4}}));
}

TEST(ScheduleEdges, NegativeRankIdsAreErrorsNamingTheItem) {
  // A negative id used to index the triplet packer's occupancy vector.
  try {
    (void)triplet_rounds({{0, 1, 2}, {3, -1, 4}});
    ADD_FAILURE() << "accepted a negative rank id";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("triplet (3,-1,4)"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)pack_pairs({{-2, 1}}), Error);
}

TEST(ScheduleEdges, PackingMemoryDoesNotScaleWithRankIds) {
  // Resources are numbered densely: a rank id near INT_MAX costs one
  // bitset, not a two-billion-entry occupancy vector per round.
  const int big = 2'000'000'000;
  const auto rounds = pack_pairs({{big, 1}, {big, 3}, {5, 6}, {7, 8}});
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_EQ(rounds[0], (std::vector<Pair>{{big, 1}, {5, 6}, {7, 8}}));
  EXPECT_EQ(rounds[1], (std::vector<Pair>{{big, 3}}));
  const auto triplets = triplet_rounds({{big, 0, 1}, {big - 1, 2, 3}});
  ASSERT_EQ(triplets.size(), 1u);
  EXPECT_EQ(triplets[0].size(), 2u);
}

TEST(ScheduleEdges, FirstFitPackerSeparatesSharedSegments) {
  // Disjoint ranks sharing a contended switch cannot share a round; ranks
  // and segments with equal numbers are distinct resources.
  FirstFitPacker packer;
  const auto none = [] { return "item"; };
  const int a[] = {0, 1}, b[] = {2, 3}, c[] = {4, 5};
  const FirstFitPacker::Segment up[] = {{2, 0}}, node0[] = {{1, 0}};
  EXPECT_EQ(packer.place(a, up, none), 0u);
  EXPECT_EQ(packer.place(b, up, none), 1u);
  EXPECT_EQ(packer.place(c, node0, none), 0u);
  EXPECT_EQ(packer.rounds(), 2u);
  // More than 64 rounds: the search crosses a bitset word boundary.
  for (std::size_t r = 1; r < 130; ++r)
    EXPECT_EQ(packer.place(a, {}, none), r);
  EXPECT_EQ(packer.place(b, {}, none), 0u);
  EXPECT_EQ(packer.place(b, {}, none), 2u);
}

}  // namespace
}  // namespace lmo::estimate
