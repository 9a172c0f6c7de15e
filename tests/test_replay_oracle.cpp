// Brute-force oracle for the schedule-replay and closed-form evaluators.
//
// The oracle is the straightforward allocating implementation the
// evaluators in core/predictions.cpp replaced: per-replay
// vector<vector<SchedOp>> op lists with one entry per (op, chunk), a
// std::priority_queue of sends, a std::map of contended cursors, and the
// binomial recursion over binomial_children vectors. Every public pricing
// function must equal it to the bit (memcmp), across tree kinds, segment
// sizes, mappings, flat clusters and contended hierarchies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>
#include <queue>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/predictions.hpp"
#include "simnet/cluster.hpp"
#include "trees/binomial.hpp"
#include "trees/shapes.hpp"
#include "util/error.hpp"

namespace lmo {
namespace {

using core::LmoParams;
using trees::TreeKind;

namespace oracle {

// The vector-returning child orders the evaluators used to call, kept
// here so the oracle does not share the trees iteration it checks.
std::vector<int> binomial_kids(int v, int n) {
  int top = 1;
  if (v == 0)
    while (top < n) top <<= 1;
  else
    top = v & -v;
  std::vector<int> kids;
  for (int m = top >> 1; m >= 1; m >>= 1)
    if (v + m < n) kids.push_back(v + m);
  return kids;
}

std::vector<int> children_in_send_order(TreeKind kind, int v, int n) {
  std::vector<int> kids;
  switch (kind) {
    case TreeKind::kFlat:
      if (v == 0)
        for (int c = 1; c < n; ++c) kids.push_back(c);
      break;
    case TreeKind::kChain:
      if (v + 1 < n) kids.push_back(v + 1);
      break;
    case TreeKind::kBinary:
      if (2 * v + 1 < n) kids.push_back(2 * v + 1);
      if (2 * v + 2 < n) kids.push_back(2 * v + 2);
      break;
    case TreeKind::kBinomial:
      kids = binomial_kids(v, n);
      break;
  }
  return kids;
}

std::vector<int> children_in_recv_order(TreeKind kind, int v, int n) {
  auto kids = children_in_send_order(kind, v, n);
  if (kind != TreeKind::kFlat) std::reverse(kids.begin(), kids.end());
  return kids;
}

/// Bytes crossing the arc into virtual rank `child`.
using ArcBytes = double (*)(int child, int n, Bytes m);

double scatter_arc_bytes(int child, int n, Bytes m) {
  return double(trees::binomial_subtree_blocks(child, n)) * double(m);
}
double bcast_arc_bytes(int /*child*/, int /*n*/, Bytes m) {
  return double(m);
}

/// Completion time of the subtree rooted at virtual rank v, measured from
/// the instant v's processor holds its data. The parent's per-child CPU
/// terms accumulate (serialized); wire and child processing overlap.
double lmo_subtree(const LmoParams& p, const std::vector<int>& mapping,
                   int root, int n, Bytes m, int v, ArcBytes arc_bytes) {
  const int pv = trees::map_rank(mapping, v, root, n);
  double cpu_done = 0.0;
  double total = 0.0;
  for (const int child : binomial_kids(v, n)) {
    const int pc = trees::map_rank(mapping, child, root, n);
    const double bytes = arc_bytes(child, n, m);
    cpu_done += p.C[std::size_t(pv)] + bytes * p.t[std::size_t(pv)];
    const double arrival = cpu_done + p.L(pv, pc) +
                           bytes * p.inv_beta(pv, pc) +
                           p.C[std::size_t(pc)] + bytes * p.t[std::size_t(pc)];
    total = std::max(
        total, arrival + lmo_subtree(p, mapping, root, n, m, child, arc_bytes));
  }
  return std::max(total, cpu_done);
}

/// Gather mirror: children's subtrees complete, then their messages travel
/// up; the parent's receive processing is serialized, transmissions are
/// parallel. Children finish in reverse send order (smallest subtree
/// first), matching the algorithm in coll::binomial_gather. `combine` adds
/// one extra serialized processing per received block (reduce).
double lmo_subtree_gather(const LmoParams& p, const std::vector<int>& mapping,
                          int root, int n, Bytes m, int v, ArcBytes arc_bytes,
                          bool combine) {
  const int pv = trees::map_rank(mapping, v, root, n);
  auto children = binomial_kids(v, n);
  std::reverse(children.begin(), children.end());
  double done = 0.0;
  for (const int child : children) {
    const int pc = trees::map_rank(mapping, child, root, n);
    const double bytes = arc_bytes(child, n, m);
    // The child's message is ready after its own subtree completes plus its
    // send processing; it then needs the wire plus the parent's receive
    // processing, which queues behind the previous child's.
    const double ready =
        lmo_subtree_gather(p, mapping, root, n, m, child, arc_bytes, combine) +
        p.C[std::size_t(pc)] + bytes * p.t[std::size_t(pc)] + p.L(pv, pc) +
        bytes * p.inv_beta(pv, pc);
    const double processing =
        (combine ? 2.0 : 1.0) *
        (p.C[std::size_t(pv)] + bytes * p.t[std::size_t(pv)]);
    done = std::max(done, ready) + processing;
  }
  return done;
}
/// The fabric charges at least one minimal Ethernet frame per message on
/// the wire; segment grids that go tiny would otherwise look free.
constexpr double kMinFrameBytes = 64.0;

/// Replays Fabric::transfer's resource chain for one message priced from
/// the fitted parameters: the sender's egress port, every *contended*
/// shared segment on the path (memory bus, oversubscribed uplink — only
/// when a topology is supplied), then the receiver's ingress port. Flat
/// clusters carry no contended segments, so the shared-cursor loop is a
/// no-op there and the evaluators price exactly what they did before.
class WireState {
 public:
  WireState(int n, const sim::Topology* topo)
      : egress_(std::size_t(n), 0.0),
        ingress_(std::size_t(n), 0.0),
        topo_(topo && !topo->empty() && topo->any_contended() ? topo
                                                              : nullptr) {}

  /// Schedule one src -> dst message whose send CPU finishes at `ready`;
  /// returns the arrival time at dst (ingress grant + wire occupancy).
  double send(const LmoParams& p, int src, int dst, double bytes,
              double ready) {
    const double wire = std::max(bytes, kMinFrameBytes) * p.inv_beta(src, dst);
    const double eg = std::max(ready, egress_[std::size_t(src)]);
    egress_[std::size_t(src)] = eg + wire;
    double avail = eg;
    if (topo_)
      topo_->for_each_contended_segment(src, dst, [&](int l, int g) {
        double& cursor = shared_[{l, g}];
        avail = std::max(avail, cursor);
        cursor = avail + wire;
      });
    const double in =
        std::max(avail + p.L(src, dst), ingress_[std::size_t(dst)]);
    ingress_[std::size_t(dst)] = in + wire;
    return in + wire;
  }

 private:
  std::vector<double> egress_, ingress_;
  std::map<std::pair<int, int>, double> shared_;  // (level, group) cursor
  const sim::Topology* topo_;
};

/// Segment `total` into a pipelined series of chunks of at most `segment`
/// bytes (one full-size chunk when segment is 0 or >= total).
std::vector<double> chunk_sizes(Bytes total, Bytes segment) {
  if (total <= 0 || segment <= 0 || segment >= total)
    return {double(total > 0 ? total : 0)};
  std::vector<double> chunks;
  Bytes remaining = total;
  while (remaining > 0) {
    const Bytes piece = std::min(remaining, segment);
    chunks.push_back(double(piece));
    remaining -= piece;
  }
  return chunks;
}

/// One step of a rank's replayed coroutine: a blocking receive or an
/// eager send, with the message's arrival slot and byte count.
struct SchedOp {
  bool recv;
  int peer;          // physical rank on the other side
  std::size_t edge;  // arrival slot, unique per message
  double bytes;
  bool extra;        // reduce: a second processing term per received block
};

/// Event-driven replay of a schedule: each rank executes its op list on a
/// private clock; blocking receives consume already-known arrivals
/// immediately (they reserve nothing), while sends are granted their wire
/// resources in global post-time order with ties broken by rank — exactly
/// the order the fabric's Timelines see them, which is what keeps chunked
/// pipelines from looking serialized on shared segments.
double run_schedule(const LmoParams& p,
                    const std::vector<std::vector<SchedOp>>& ops,
                    std::size_t edges, const sim::Topology* topo) {
  const int n = int(ops.size());
  WireState wires(n, topo);
  std::vector<double> arrival(edges, 0.0);
  std::vector<char> known(edges, 0);
  std::vector<double> clock(std::size_t(n), 0.0);
  std::vector<std::size_t> next(std::size_t(n), 0);
  std::vector<char> queued(std::size_t(n), 0);
  using Item = std::pair<double, int>;  // (post time, rank)
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> sends;
  // Run rank `r` forward: consume satisfied receives, park on the first
  // unsatisfied one, enqueue when the next op is a send.
  auto advance = [&](int r) {
    const auto& list = ops[std::size_t(r)];
    double& t = clock[std::size_t(r)];
    std::size_t& i = next[std::size_t(r)];
    while (i < list.size()) {
      const SchedOp& op = list[i];
      if (!op.recv) {
        if (!queued[std::size_t(r)]) {
          sends.push({t, r});
          queued[std::size_t(r)] = 1;
        }
        return;
      }
      if (!known[op.edge]) return;  // parked until the matching send
      const double proc = p.C[std::size_t(r)] + op.bytes * p.t[std::size_t(r)];
      t = std::max(t, arrival[op.edge]) + proc;
      if (op.extra) t += proc;
      ++i;
    }
  };
  for (int r = 0; r < n; ++r) advance(r);
  while (!sends.empty()) {
    const int r = sends.top().second;
    sends.pop();
    queued[std::size_t(r)] = 0;
    const SchedOp& op = ops[std::size_t(r)][next[std::size_t(r)]];
    double& t = clock[std::size_t(r)];
    t += p.C[std::size_t(r)] + op.bytes * p.t[std::size_t(r)];  // send CPU
    arrival[op.edge] = wires.send(p, r, op.peer, op.bytes, t);
    known[op.edge] = 1;
    ++next[std::size_t(r)];
    advance(r);
    advance(op.peer);
  }
  double completion = 0.0;
  for (const double t : clock) completion = std::max(completion, t);
  return completion;
}

/// Root-to-leaves op lists (bcast/scatter): per chunk, a blocking receive
/// from the parent then one eager send per child in tree_children order.
/// `scatter` scales arc bytes by the receiving subtree's block count.
/// Arrival slot for the message into virtual rank v at chunk s: v*S + s.
std::vector<std::vector<SchedOp>> tree_down_ops(
    trees::TreeKind kind, int root, const std::vector<int>& mapping, int n,
    const std::vector<double>& chunks, bool scatter) {
  std::vector<std::vector<SchedOp>> ops{std::size_t(n)};
  const std::size_t S = chunks.size();
  for (int v = 0; v < n; ++v) {
    const int pv = trees::map_rank(mapping, v, root, n);
    const auto kids = children_in_send_order(kind, v, n);
    auto& list = ops[std::size_t(pv)];
    for (std::size_t s = 0; s < S; ++s) {
      if (v != 0) {
        const double b =
            (scatter ? double(trees::tree_subtree_size(kind, v, n)) : 1.0) *
            chunks[s];
        const int parent = trees::tree_parent(kind, v);
        list.push_back({true, trees::map_rank(mapping, parent, root, n),
                        std::size_t(v) * S + s, b, false});
      }
      for (const int child : kids) {
        const double b =
            (scatter ? double(trees::tree_subtree_size(kind, child, n))
                     : 1.0) *
            chunks[s];
        list.push_back({false, trees::map_rank(mapping, child, root, n),
                        std::size_t(child) * S + s, b, false});
      }
    }
  }
  return ops;
}

/// Leaves-to-root mirror (gather/reduce): per chunk, a blocking receive
/// per child in tree_recv_order (`combine` adds one serialized combine per
/// received block) then one eager send up. Arrival slot for the message
/// out of virtual rank v at chunk s: v*S + s.
std::vector<std::vector<SchedOp>> tree_up_ops(
    trees::TreeKind kind, int root, const std::vector<int>& mapping, int n,
    const std::vector<double>& chunks, bool gather, bool combine) {
  std::vector<std::vector<SchedOp>> ops{std::size_t(n)};
  const std::size_t S = chunks.size();
  for (int v = 0; v < n; ++v) {
    const int pv = trees::map_rank(mapping, v, root, n);
    const auto order = children_in_recv_order(kind, v, n);
    auto& list = ops[std::size_t(pv)];
    for (std::size_t s = 0; s < S; ++s) {
      for (const int child : order) {
        const double b =
            (gather ? double(trees::tree_subtree_size(kind, child, n)) : 1.0) *
            chunks[s];
        list.push_back({true, trees::map_rank(mapping, child, root, n),
                        std::size_t(child) * S + s, b, combine});
      }
      if (v != 0) {
        const double b =
            (gather ? double(trees::tree_subtree_size(kind, v, n)) : 1.0) *
            chunks[s];
        const int parent = trees::tree_parent(kind, v);
        list.push_back({false, trees::map_rank(mapping, parent, root, n),
                        std::size_t(v) * S + s, b, false});
      }
    }
  }
  return ops;
}

double eval_tree_down(const LmoParams& p, trees::TreeKind kind, int root,
                      const std::vector<int>& mapping, Bytes unit,
                      Bytes segment, bool scatter, const sim::Topology* topo) {
  const int n = p.size();
  const auto chunks = chunk_sizes(unit, segment);
  return run_schedule(p, tree_down_ops(kind, root, mapping, n, chunks, scatter),
                      std::size_t(n) * chunks.size(), topo);
}

double eval_tree_up(const LmoParams& p, trees::TreeKind kind, int root,
                    const std::vector<int>& mapping, Bytes unit, Bytes segment,
                    bool gather, bool combine, const sim::Topology* topo) {
  const int n = p.size();
  const auto chunks = chunk_sizes(unit, segment);
  return run_schedule(
      p, tree_up_ops(kind, root, mapping, n, chunks, gather, combine),
      std::size_t(n) * chunks.size(), topo);
}

/// Append coll::ring_allgather's op sequence: per step, every rank posts
/// an eager send right then blocks on the receive from the left (the
/// trailing wait costs nothing extra — the send clock already carries the
/// CPU charge). Arrival slot for rank i's step-s send: base + i*(n-1) + s.
void append_ring_ops(std::vector<std::vector<SchedOp>>& ops, int n, double b,
                     std::size_t base) {
  for (int i = 0; i < n; ++i) {
    const int right = (i + 1) % n;
    const int left = (i - 1 + n) % n;
    for (int s = 0; s < n - 1; ++s) {
      ops[std::size_t(i)].push_back(
          {false, right, base + std::size_t(i) * std::size_t(n - 1) +
                             std::size_t(s),
           b, false});
      ops[std::size_t(i)].push_back(
          {true, left, base + std::size_t(left) * std::size_t(n - 1) +
                           std::size_t(s),
           b, false});
    }
  }
}

double binomial_scatter_time(const LmoParams& p, int root, Bytes m,
                             const std::vector<int>& mapping) {
  return lmo_subtree(p, mapping, root, p.size(), m, 0, scatter_arc_bytes);
}
double binomial_gather_time(const LmoParams& p, int root, Bytes m,
                            const std::vector<int>& mapping) {
  return lmo_subtree_gather(p, mapping, root, p.size(), m, 0,
                            scatter_arc_bytes, /*combine=*/false);
}
double binomial_bcast_time(const LmoParams& p, int root, Bytes m,
                           const std::vector<int>& mapping) {
  return lmo_subtree(p, mapping, root, p.size(), m, 0, bcast_arc_bytes);
}
double binomial_reduce_time(const LmoParams& p, int root, Bytes m,
                            const std::vector<int>& mapping) {
  return lmo_subtree_gather(p, mapping, root, p.size(), m, 0,
                            bcast_arc_bytes, /*combine=*/true);
}

double scatter_allgather_bcast_time(const LmoParams& p, int root, Bytes m,
                                    const sim::Topology* topology) {
  const int n = p.size();
  if (n == 1) return 0.0;
  const Bytes block = (m + n - 1) / n;
  const std::vector<double> chunks = {double(block)};
  auto ops = tree_down_ops(trees::TreeKind::kBinomial, root, {}, n, chunks,
                           /*scatter=*/true);
  const std::size_t scatter_edges = std::size_t(n);
  append_ring_ops(ops, n, double(block), scatter_edges);
  return run_schedule(p, ops,
                      scatter_edges + std::size_t(n) * std::size_t(n - 1),
                      topology);
}

}  // namespace oracle

/// The ground-truth LMO parameters of a simulated cluster.
LmoParams from_ground_truth(const sim::ClusterConfig& cfg) {
  const auto gt = sim::ground_truth(cfg);
  const int n = cfg.size();
  LmoParams p;
  p.C = gt.C;
  p.t = gt.t;
  p.L = models::PairTable(n);
  p.inv_beta = models::PairTable(n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      p.L(i, j) = gt.L(i, j);
      p.inv_beta(i, j) = gt.inv_beta(i, j);
    }
  return p;
}

struct Platform {
  std::string name;
  LmoParams params;
  sim::Topology topology;  // empty = flat (price without a topology)

  [[nodiscard]] const sim::Topology* topo() const {
    return topology.empty() ? nullptr : &topology;
  }
};

sim::TopologyLevel level(const char* name, bool contended) {
  sim::TopologyLevel l;
  l.name = name;
  l.forward_latency_s = 1e-6;
  l.contended = contended;
  return l;
}

std::vector<Platform> platforms() {
  std::vector<Platform> out;
  for (const int n : {2, 3, 7, 16, 48})
    out.push_back({"flat" + std::to_string(n),
                   from_ground_truth(sim::make_random_cluster(n, 11)), {}});
  for (const auto& [s, k, c] : {std::tuple{2, 3, 4}, std::tuple{2, 2, 4}}) {
    const sim::ClusterConfig cfg = sim::make_multicore_cluster(s, k, c);
    out.push_back({"multicore" + std::to_string(s) + "x" + std::to_string(k) +
                       "x" + std::to_string(c),
                   from_ground_truth(cfg), cfg.topology});
  }
  // Irregular tree with mixed contention: contended nodes of uneven size,
  // a contention-free switch level, a contended top uplink.
  out.push_back(
      {"custom10", from_ground_truth(sim::make_random_cluster(10, 5)),
       sim::Topology::custom(
           {level("node", true), level("switch", false),
            level("uplink", true)},
           {{0, 0, 0, 1, 1, 2, 2, 2, 2, 3},
            {0, 0, 0, 0, 0, 1, 1, 1, 1, 1},
            {0, 0, 0, 0, 0, 0, 0, 0, 0, 0}})});
  return out;
}

/// The default mapping plus two seeded random permutations.
std::vector<std::vector<int>> mappings(int n) {
  std::vector<std::vector<int>> out = {{}};
  std::mt19937 rng(std::uint32_t(n) * 7919u + 1u);
  for (int k = 0; k < 2; ++k) {
    std::vector<int> perm(std::size_t(n), 0);
    std::iota(perm.begin(), perm.end(), 0);
    std::shuffle(perm.begin(), perm.end(), rng);
    out.push_back(std::move(perm));
  }
  return out;
}

/// Collects bit-level mismatches; reports the first few in full.
class BitCompare {
 public:
  void operator()(double got, double want, const std::string& what) {
    ++checked_;
    if (std::memcmp(&got, &want, sizeof(double)) == 0) return;
    if (++mismatches_ <= 5)
      ADD_FAILURE() << what << ": got " << got << ", oracle " << want
                    << " (diff " << got - want << ")";
  }
  ~BitCompare() {
    EXPECT_EQ(mismatches_, 0) << "of " << checked_ << " evaluations";
    EXPECT_GT(checked_, 0);
  }

 private:
  int checked_ = 0;
  int mismatches_ = 0;
};

constexpr TreeKind kKinds[] = {TreeKind::kFlat, TreeKind::kChain,
                               TreeKind::kBinary, TreeKind::kBinomial};

TEST(ReplayOracle, TreeEvaluatorsMatchAllocatingReplay) {
  BitCompare check;
  for (const Platform& pf : platforms()) {
    const LmoParams& p = pf.params;
    const int n = p.size();
    for (const int root : {0, n - 1})
      for (const std::vector<int>& mapping : mappings(n))
        for (const Bytes m : {Bytes(0), Bytes(777), Bytes(20000)})
          for (const Bytes seg : {Bytes(0), Bytes(1), Bytes(2048),
                                  Bytes(8192), m - 1, m, m + 1}) {
            // One-byte segments of the large message would replay 20000
            // chunks per op; 777 of them already cover the long pipeline.
            if (seg == 1 && m > 1000) continue;
            for (const TreeKind kind : kKinds) {
              const std::string what =
                  pf.name + " " + trees::tree_kind_name(kind) + " root " +
                  std::to_string(root) + (mapping.empty() ? "" : " mapped") +
                  " m " + std::to_string(m) + " seg " + std::to_string(seg);
              const sim::Topology* topo = pf.topo();
              check(core::tree_bcast_time(p, kind, root, m, mapping, seg,
                                          topo),
                    oracle::eval_tree_down(p, kind, root, mapping, m, seg,
                                           false, topo),
                    "bcast " + what);
              check(core::tree_scatter_time(p, kind, root, m, mapping, seg,
                                            topo),
                    oracle::eval_tree_down(p, kind, root, mapping, m, seg,
                                           true, topo),
                    "scatter " + what);
              check(core::tree_gather_time(p, kind, root, m, mapping, seg,
                                           topo),
                    oracle::eval_tree_up(p, kind, root, mapping, m, seg,
                                         true, false, topo),
                    "gather " + what);
              check(core::tree_reduce_time(p, kind, root, m, mapping, seg,
                                           topo),
                    oracle::eval_tree_up(p, kind, root, mapping, m, seg,
                                         false, true, topo),
                    "reduce " + what);
            }
          }
  }
}

TEST(ReplayOracle, ScatterAllgatherMatchesAllocatingReplay) {
  BitCompare check;
  for (const Platform& pf : platforms()) {
    const int n = pf.params.size();
    for (const int root : {0, 1, n - 1})
      for (const Bytes m : {Bytes(0), Bytes(1), Bytes(777), Bytes(20000)})
        check(core::scatter_allgather_bcast_time(pf.params, root, m,
                                                 pf.topo()),
              oracle::scatter_allgather_bcast_time(pf.params, root, m,
                                                   pf.topo()),
              pf.name + " root " + std::to_string(root) + " m " +
                  std::to_string(m));
  }
}

TEST(ReplayOracle, BinomialClosedFormsMatchRecursion) {
  BitCompare check;
  for (const Platform& pf : platforms()) {
    const LmoParams& p = pf.params;
    const int n = p.size();
    for (const int root : {0, 1, n - 1})
      for (const std::vector<int>& mapping : mappings(n))
        for (const Bytes m : {Bytes(0), Bytes(1), Bytes(777), Bytes(20000)}) {
          const std::string what = pf.name + " root " + std::to_string(root) +
                                   (mapping.empty() ? "" : " mapped") +
                                   " m " + std::to_string(m);
          check(core::binomial_scatter_time(p, root, m, mapping),
                oracle::binomial_scatter_time(p, root, m, mapping),
                "scatter " + what);
          check(core::binomial_gather_time(p, root, m, mapping),
                oracle::binomial_gather_time(p, root, m, mapping),
                "gather " + what);
          check(core::binomial_bcast_time(p, root, m, mapping),
                oracle::binomial_bcast_time(p, root, m, mapping),
                "bcast " + what);
          check(core::binomial_reduce_time(p, root, m, mapping),
                oracle::binomial_reduce_time(p, root, m, mapping),
                "reduce " + what);
        }
  }
}

TEST(ReplayOracle, MappingSizeIsChecked) {
  const LmoParams p = from_ground_truth(sim::make_random_cluster(4, 3));
  const std::vector<int> short_mapping = {0, 1, 2};
  EXPECT_THROW((void)core::binomial_scatter_time(p, 0, 64, short_mapping),
               Error);
  EXPECT_THROW((void)core::tree_bcast_time(p, TreeKind::kChain, 0, 64,
                                           short_mapping),
               Error);
  EXPECT_THROW((void)core::tree_gather_time(p, TreeKind::kBinary, 0, 64,
                                            {0, 1, 2, 9}),
               Error);
}

}  // namespace
}  // namespace lmo
