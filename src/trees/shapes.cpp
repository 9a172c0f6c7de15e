#include "trees/shapes.hpp"

#include <algorithm>

#include "trees/binomial.hpp"
#include "util/error.hpp"

namespace lmo::trees {

const char* tree_kind_name(TreeKind kind) {
  switch (kind) {
    case TreeKind::kFlat:
      return "flat";
    case TreeKind::kChain:
      return "chain";
    case TreeKind::kBinary:
      return "binary";
    case TreeKind::kBinomial:
      return "binomial";
  }
  LMO_CHECK_MSG(false, "unknown tree kind");
  return "";
}

int tree_parent(TreeKind kind, int v) {
  LMO_CHECK(v > 0);
  switch (kind) {
    case TreeKind::kFlat:
      return 0;
    case TreeKind::kChain:
      return v - 1;
    case TreeKind::kBinary:
      return (v - 1) / 2;
    case TreeKind::kBinomial:
      return binomial_parent(v);
  }
  LMO_CHECK_MSG(false, "unknown tree kind");
  return 0;
}

std::vector<int> tree_children(TreeKind kind, int v, int n) {
  LMO_CHECK(v >= 0 && v < n);
  std::vector<int> kids;
  for_each_tree_child(kind, v, n, /*recv_order=*/false,
                      [&](int child) { kids.push_back(child); });
  return kids;
}

std::vector<int> tree_recv_order(TreeKind kind, int v, int n) {
  LMO_CHECK(v >= 0 && v < n);
  std::vector<int> kids;
  for_each_tree_child(kind, v, n, /*recv_order=*/true,
                      [&](int child) { kids.push_back(child); });
  return kids;
}

int tree_subtree_size(TreeKind kind, int v, int n) {
  LMO_CHECK(v >= 0 && v < n);
  switch (kind) {
    case TreeKind::kFlat:
      return v == 0 ? n : 1;
    case TreeKind::kChain:
      return n - v;
    case TreeKind::kBinary: {
      // Count per level: the heap-ordered subtree of v spans [l, r] on
      // each level until n cuts it off.
      long long l = v, r = v;
      int count = 0;
      while (l < n) {
        count += int(std::min<long long>(r, n - 1) - l + 1);
        l = 2 * l + 1;
        r = 2 * r + 2;
      }
      return count;
    }
    case TreeKind::kBinomial:
      return binomial_subtree_blocks(v, n);
  }
  LMO_CHECK_MSG(false, "unknown tree kind");
  return 0;
}

int tree_depth(TreeKind kind, int n) {
  LMO_CHECK(n >= 1);
  switch (kind) {
    case TreeKind::kFlat:
      return n > 1 ? 1 : 0;
    case TreeKind::kChain:
      return n - 1;
    case TreeKind::kBinary: {
      int d = 0;
      for (int v = n - 1; v > 0; v = (v - 1) / 2) ++d;
      return d;
    }
    case TreeKind::kBinomial:
      return binomial_rounds(n);
  }
  LMO_CHECK_MSG(false, "unknown tree kind");
  return 0;
}

}  // namespace lmo::trees
