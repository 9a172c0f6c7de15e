// Binomial communication trees for scatter/gather (paper Fig. 2).
//
// Ranks are *virtual*: node v of the tree holds virtual rank v, and the arc
// set is the classic binomial recursion — the root first serves the largest
// sub-subtree (8 blocks to virtual rank 8 for n = 16), each subtree root
// recurses. A mapping vector assigns physical processors to virtual ranks;
// identity mapping with a root offset reproduces MPI's (rank - root) mod n
// convention.
#pragma once

#include <vector>

namespace lmo::trees {

struct Arc {
  int parent = 0;  ///< virtual rank of the sender (scatter direction)
  int child = 0;   ///< virtual rank of the receiver
  int blocks = 0;  ///< data blocks crossing this arc (Fig. 2 labels)
  int order = 0;   ///< subtree order k: the child roots a subtree of 2^order
};

/// All arcs of the binomial tree over n virtual ranks (root is virtual
/// rank 0), largest subtree first — the paper's send order. Works for any
/// n >= 1 (non-powers of two clamp subtree sizes).
[[nodiscard]] std::vector<Arc> binomial_arcs(int n);

/// Virtual parent of virtual rank v (v > 0): v with its lowest set bit
/// cleared.
[[nodiscard]] int binomial_parent(int v);

/// Children of virtual rank v in send order (largest subtree first).
[[nodiscard]] std::vector<int> binomial_children(int v, int n);

/// Exclusive bound on v's child offsets: v's children are v + k for each
/// power of two k below lowbit(v), or below ceil_pow2(n) for the root.
[[nodiscard]] inline int binomial_child_span(int v, int n) {
  if (v != 0) return v & -v;
  int top = 1;
  while (top < n) top <<= 1;
  return top;
}

/// Allocation-free binomial_children: f(child) for each child of v,
/// largest subtree first, or smallest first when `smallest_first`.
template <class F>
void for_each_binomial_child(int v, int n, bool smallest_first, F&& f) {
  const int top = binomial_child_span(v, n);
  if (smallest_first) {
    for (int k = 1; k < top && v + k < n; k <<= 1) f(v + k);
  } else {
    for (int k = top >> 1; k >= 1; k >>= 1)
      if (v + k < n) f(v + k);
  }
}

/// Number of blocks rooted at virtual rank v (its subtree size),
/// min(lowbit(v), n - v); n for the root.
[[nodiscard]] int binomial_subtree_blocks(int v, int n);

/// Number of communication rounds: ceil(log2 n).
[[nodiscard]] int binomial_rounds(int n);

/// Map a virtual rank to a physical rank: mapping[v], or the MPI
/// convention (v + root) mod n when mapping is empty.
[[nodiscard]] int map_rank(const std::vector<int>& mapping, int v, int root,
                           int n);

}  // namespace lmo::trees
