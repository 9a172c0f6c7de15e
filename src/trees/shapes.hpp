// Generic communication-tree shapes for the collective algorithm zoo.
//
// Every shape is defined over *virtual* ranks 0..n-1 with virtual rank 0
// at the root, exactly like trees/binomial.hpp: a mapping vector (or the
// MPI (v + root) mod n convention) assigns physical processors to virtual
// nodes. The four shapes cover the classic intra-cluster algorithm space
// (Barchet-Estefanel & Mounié, "Fast Tuning of Intra-Cluster Collective
// Communications"):
//  * kFlat     — the root talks to everyone directly (linear algorithms);
//  * kChain    — a pipeline 0 -> 1 -> ... -> n-1 (with segmentation, the
//                classic pipelined broadcast);
//  * kBinary   — a complete binary tree in heap order (children 2v+1,
//                2v+2): depth log2 n with bounded fan-out 2;
//  * kBinomial — the paper's Fig. 2 recursion (trees/binomial.hpp).
//
// For all shapes, parents numerically precede their children, so virtual
// rank order is a topological order — schedule evaluators can walk
// 0..n-1 (down the tree) or n-1..0 (up).
#pragma once

#include <string>
#include <vector>

#include "trees/binomial.hpp"

namespace lmo::trees {

enum class TreeKind { kFlat, kChain, kBinary, kBinomial };

[[nodiscard]] const char* tree_kind_name(TreeKind kind);

/// Virtual parent of virtual rank v (v > 0).
[[nodiscard]] int tree_parent(TreeKind kind, int v);

/// Children of virtual rank v in send order — largest subtree first, the
/// order every store-and-forward collective issues its sends.
[[nodiscard]] std::vector<int> tree_children(TreeKind kind, int v, int n);

/// Receive order of v's children: the reverse of the send order (smallest
/// subtree first, so the largest has the most time to accumulate), except
/// kFlat where the paper's linear algorithms fix rank order.
[[nodiscard]] std::vector<int> tree_recv_order(TreeKind kind, int v, int n);

/// Allocation-free form of tree_children (`recv_order` false) and
/// tree_recv_order (`recv_order` true): f(child) for each child of v in
/// that order. Schedule evaluators call this once per node per replay.
template <class F>
void for_each_tree_child(TreeKind kind, int v, int n, bool recv_order,
                         F&& f) {
  switch (kind) {
    case TreeKind::kFlat:
      if (v == 0)
        for (int c = 1; c < n; ++c) f(c);
      return;
    case TreeKind::kChain:
      if (v + 1 < n) f(v + 1);
      return;
    case TreeKind::kBinary: {
      // Left child roots the (equal-or-)larger subtree: send it first.
      const int left = 2 * v + 1, right = 2 * v + 2;
      if (recv_order) {
        if (right < n) f(right);
        if (left < n) f(left);
      } else {
        if (left < n) f(left);
        if (right < n) f(right);
      }
      return;
    }
    case TreeKind::kBinomial:
      for_each_binomial_child(v, n, recv_order, f);
      return;
  }
}

/// Number of virtual ranks in the subtree rooted at v (the blocks a
/// scatter pushes across the arc into v, including v's own block).
[[nodiscard]] int tree_subtree_size(TreeKind kind, int v, int n);

/// Longest root-to-leaf arc count — the pipeline fill depth a segmented
/// collective pays before the steady state.
[[nodiscard]] int tree_depth(TreeKind kind, int n);

}  // namespace lmo::trees
