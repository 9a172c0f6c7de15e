// Parallel experiment schedules (paper Section IV).
//
// On a single-switch cluster, communication experiments over
// non-overlapping processor sets run concurrently without perturbing each
// other, so the estimation procedure batches them:
//  * pairs — a 1-factorization of K_n (the circle method): n-1 rounds of
//    floor(n/2) disjoint pairs each;
//  * oriented triplets — all 3*C(n,3) one-to-two experiments packed
//    greedily into rounds of disjoint triplets.
// Every greedy packing here and in the experiment planner is one
// FirstFitPacker.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace lmo::estimate {

using Pair = std::pair<int, int>;
/// (root, peer_a, peer_b): the root sends to both peers.
using Triplet = std::array<int, 3>;

/// All unordered pairs {i < j}.
[[nodiscard]] std::vector<Pair> all_pairs(int n);

/// All oriented triplets: for each {i<j<k}, the three root choices.
[[nodiscard]] std::vector<Triplet> all_oriented_triplets(int n);

/// Rounds of disjoint pairs covering all of K_n (circle method);
/// exactly n-1 rounds for even n, n rounds for odd n.
[[nodiscard]] std::vector<std::vector<Pair>> pair_rounds(int n);

/// First-fit packing of items into rounds over shared resources. An item
/// occupies some resources — its processors and, on a contended resource
/// tree, the contended (level, group) switches its paths cross — and goes
/// to the first round that none of them occupies, or opens a new round.
/// Two items conflict exactly when they share a resource, so this is the
/// pairwise first-fit "admit to the first round with no conflicting
/// member", answered per item by OR-ing one round bitset per resource
/// instead of testing every member of every earlier round.
///
/// Resources are numbered densely on first use, so memory is
/// O(distinct resources x rounds / 64) whatever the rank ids are.
class FirstFitPacker {
 public:
  /// A contended switch of the resource tree: group `group` at level
  /// `level` (1-based).
  struct Segment {
    int level = 0;
    int group = 0;
  };

  /// Place one item occupying `ranks` and `segments` (repeats allowed) and
  /// return its round index: an earlier round, or rounds() - 1 when the
  /// item opened a new one. Throws lmo::Error naming describe() if any
  /// rank is negative.
  template <class Describe>
  std::size_t place(std::span<const int> ranks,
                    std::span<const Segment> segments, Describe&& describe) {
    for (const int r : ranks)
      if (r < 0)
        throw Error(std::string(describe()) + ": negative rank id " +
                    std::to_string(r));
    item_.clear();
    for (const int r : ranks) item_.push_back(slot(std::uint64_t(r)));
    for (const Segment& s : segments)
      item_.push_back(slot(std::uint64_t(s.level) << 32 |
                           std::uint32_t(s.group)));
    return place_item();
  }

  /// Rounds opened so far.
  [[nodiscard]] std::size_t rounds() const { return rounds_; }

 private:
  /// Dense index of a resource id (ranks below 2^31, segments at level
  /// >= 1 above it), allocating its bitset on first use.
  std::uint32_t slot(std::uint64_t resource);
  /// First-fit over the round bitsets of item_'s slots.
  std::size_t place_item();

  std::unordered_map<std::uint64_t, std::uint32_t> index_;
  std::vector<std::vector<std::uint64_t>> busy_;  ///< per slot: round bits
  std::vector<std::uint32_t> item_;  ///< scratch: the item being placed
  std::size_t rounds_ = 0;
};

/// Greedy packing of the given triplets into rounds of node-disjoint
/// triplets (first-fit). Throws lmo::Error naming a triplet with a
/// negative rank id.
[[nodiscard]] std::vector<std::vector<Triplet>> triplet_rounds(
    const std::vector<Triplet>& triplets);

/// Greedy packing of an arbitrary pair list into rounds of node-disjoint
/// pairs (first-fit, input order). Unlike pair_rounds this handles any
/// subset left after cache filtering holes the full K_n pair set. Throws
/// lmo::Error on a negative or repeated rank id.
[[nodiscard]] std::vector<std::vector<Pair>> pack_pairs(
    const std::vector<Pair>& pairs);

}  // namespace lmo::estimate
