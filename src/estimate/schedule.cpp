#include "estimate/schedule.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "util/error.hpp"

namespace lmo::estimate {

std::vector<Pair> all_pairs(int n) {
  LMO_CHECK(n >= 2);
  std::vector<Pair> out;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) out.emplace_back(i, j);
  return out;
}

std::vector<Triplet> all_oriented_triplets(int n) {
  LMO_CHECK(n >= 3);
  std::vector<Triplet> out;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      for (int k = j + 1; k < n; ++k) {
        out.push_back({i, j, k});
        out.push_back({j, i, k});
        out.push_back({k, i, j});
      }
  return out;
}

std::vector<std::vector<Pair>> pair_rounds(int n) {
  LMO_CHECK(n >= 2);
  // Circle method: fix player 0; rotate 1..m-1 where m = n rounded up to
  // even (the ghost player models a bye for odd n).
  const int m = n % 2 == 0 ? n : n + 1;
  std::vector<std::vector<Pair>> rounds;
  std::vector<int> circle(std::size_t(m), 0);
  for (int i = 0; i < m; ++i) circle[std::size_t(i)] = i;
  for (int r = 0; r < m - 1; ++r) {
    std::vector<Pair> round;
    for (int i = 0; i < m / 2; ++i) {
      const int a = circle[std::size_t(i)];
      const int b = circle[std::size_t(m - 1 - i)];
      if (a >= n || b >= n) continue;  // ghost: bye
      round.emplace_back(std::min(a, b), std::max(a, b));
    }
    if (!round.empty()) rounds.push_back(std::move(round));
    // Rotate positions 1..m-1.
    const int last = circle[std::size_t(m - 1)];
    for (int i = m - 1; i > 1; --i)
      circle[std::size_t(i)] = circle[std::size_t(i - 1)];
    circle[1] = last;
  }
  return rounds;
}

std::uint32_t FirstFitPacker::slot(std::uint64_t resource) {
  const auto [it, fresh] =
      index_.try_emplace(resource, std::uint32_t(busy_.size()));
  if (fresh) busy_.emplace_back();
  return it->second;
}

std::size_t FirstFitPacker::place_item() {
  // The first round none of the item's resources occupies. Bits at or past
  // rounds_ are never set, so the search stops at rounds_ at the latest:
  // a fresh round.
  std::size_t round = rounds_;
  const std::size_t words = (rounds_ + 63) / 64;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t occupied = 0;
    for (const std::uint32_t s : item_) {
      const std::vector<std::uint64_t>& bits = busy_[s];
      if (w < bits.size()) occupied |= bits[w];
    }
    if (occupied != ~std::uint64_t{0}) {
      round = w * 64 + std::size_t(std::countr_one(occupied));
      break;
    }
  }
  if (round == rounds_) ++rounds_;
  const std::size_t w = round / 64;
  for (const std::uint32_t s : item_) {
    std::vector<std::uint64_t>& bits = busy_[s];
    if (bits.size() <= w) bits.resize(w + 1, 0);
    bits[w] |= std::uint64_t{1} << (round % 64);
  }
  return round;
}

std::vector<std::vector<Pair>> pack_pairs(const std::vector<Pair>& pairs) {
  FirstFitPacker packer;
  std::vector<std::vector<Pair>> rounds;
  for (const Pair& p : pairs) {
    LMO_CHECK(p.first != p.second);
    const int ranks[] = {p.first, p.second};
    const std::size_t r = packer.place(ranks, {}, [&] {
      return "pair (" + std::to_string(p.first) + "," +
             std::to_string(p.second) + ")";
    });
    if (r == rounds.size()) rounds.emplace_back();
    rounds[r].push_back(p);
  }
  return rounds;
}

std::vector<std::vector<Triplet>> triplet_rounds(
    const std::vector<Triplet>& triplets) {
  FirstFitPacker packer;
  std::vector<std::vector<Triplet>> rounds;
  for (const Triplet& t : triplets) {
    const std::size_t r = packer.place(t, {}, [&] {
      return "triplet (" + std::to_string(t[0]) + "," +
             std::to_string(t[1]) + "," + std::to_string(t[2]) + ")";
    });
    if (r == rounds.size()) rounds.emplace_back();
    rounds[r].push_back(t);
  }
  return rounds;
}

}  // namespace lmo::estimate
