#include "trees/binomial.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace lmo::trees {

namespace {
int lowbit(int v) { return v & -v; }
}  // namespace

int binomial_parent(int v) {
  LMO_CHECK(v > 0);
  return v & (v - 1);
}

std::vector<int> binomial_children(int v, int n) {
  LMO_CHECK(v >= 0 && v < n);
  std::vector<int> kids;
  for_each_binomial_child(v, n, /*smallest_first=*/false,
                          [&](int child) { kids.push_back(child); });
  return kids;
}

int binomial_subtree_blocks(int v, int n) {
  LMO_CHECK(v >= 0 && v < n);
  if (v == 0) return n;
  return std::min(lowbit(v), n - v);
}

int binomial_rounds(int n) {
  LMO_CHECK(n >= 1);
  int r = 0;
  int p = 1;
  while (p < n) {
    p <<= 1;
    ++r;
  }
  return r;
}

std::vector<Arc> binomial_arcs(int n) {
  LMO_CHECK(n >= 1);
  std::vector<Arc> arcs;
  // Emit in global send order: rounds from the largest subtree down. In
  // round k every existing subtree root sends its 2^k-half away.
  for (int m = binomial_child_span(0, n) >> 1; m >= 1; m >>= 1) {
    for (int parent = 0; parent + m < n; parent += 2 * m) {
      const int child = parent + m;
      Arc a;
      a.parent = parent;
      a.child = child;
      a.blocks = binomial_subtree_blocks(child, n);
      int order = 0;
      for (int p = 1; p < m; p <<= 1) ++order;
      a.order = order;
      arcs.push_back(a);
    }
  }
  return arcs;
}

int map_rank(const std::vector<int>& mapping, int v, int root, int n) {
  LMO_CHECK(v >= 0 && v < n);
  if (mapping.empty()) return (v + root) % n;
  LMO_CHECK(int(mapping.size()) == n);
  return mapping[std::size_t(v)];
}

}  // namespace lmo::trees
