#include "core/predictions.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "trees/binomial.hpp"
#include "trees/mapping.hpp"
#include "util/error.hpp"

namespace lmo::core {

namespace {
/// (n-1)(C_r + M t_r): the root's serialized message processing.
double root_serial(const LmoParams& p, int root, Bytes m) {
  return double(p.size() - 1) *
         (p.C[std::size_t(root)] + double(m) * p.t[std::size_t(root)]);
}

/// max_i / sum_i of (L_ri + M/beta_ri + C_i + M t_i).
struct Tail {
  double max = 0.0;
  double sum = 0.0;
};
Tail remote_tail(const LmoParams& p, int root, Bytes m) {
  Tail tail;
  for (int i = 0; i < p.size(); ++i) {
    if (i == root) continue;
    const double term =
        p.L(root, i) + double(m) * p.inv_beta(root, i) +
        p.C[std::size_t(i)] + double(m) * p.t[std::size_t(i)];
    tail.max = std::max(tail.max, term);
    tail.sum += term;
  }
  return tail;
}
}  // namespace

double linear_scatter_time(const LmoParams& p, int root, Bytes m) {
  p.validate();
  LMO_CHECK(root >= 0 && root < p.size());
  return root_serial(p, root, m) + remote_tail(p, root, m).max;
}

double linear_scatter_time(const LmoOriginalParams& p, int root, Bytes m) {
  LMO_CHECK(p.size() >= 2);
  LMO_CHECK(root >= 0 && root < p.size());
  const double serial =
      double(p.size() - 1) *
      (p.C[std::size_t(root)] + double(m) * p.t[std::size_t(root)]);
  double mx = 0.0;
  for (int i = 0; i < p.size(); ++i) {
    if (i == root) continue;
    mx = std::max(mx, double(m) * p.inv_beta(root, i) +
                          p.C[std::size_t(i)] +
                          double(m) * p.t[std::size_t(i)]);
  }
  return serial + mx;
}

GatherPrediction linear_gather_time(const LmoParams& p,
                                    const GatherEmpirical& emp, int root,
                                    Bytes m) {
  p.validate();
  LMO_CHECK(root >= 0 && root < p.size());
  const double serial = root_serial(p, root, m);
  const Tail tail = remote_tail(p, root, m);

  GatherPrediction out;
  if (emp.m2 > 0 && m >= emp.m2) {
    out.regime = GatherRegime::kLarge;
    out.base = serial + tail.sum;
    out.linear_probability = 0.0;
    return out;
  }
  out.base = serial + tail.max;
  if (emp.in_band(m)) {
    out.regime = GatherRegime::kMedium;
    out.expected_escalation = emp.expected_escalation(m);
    out.max_escalation = emp.max_escalation();
    out.linear_probability = emp.linear_probability(m);
  }
  return out;
}

namespace {
/// Virtual-to-physical rank map of one evaluation: mapping[v], or the MPI
/// convention (v + root) mod n when the mapping is empty. The mapping's
/// size is checked once per evaluation, not per lookup.
struct RankMap {
  const std::vector<int>& mapping;
  int root;
  int n;

  RankMap(const std::vector<int>& m, int r, int size)
      : mapping(m), root(r), n(size) {
    LMO_CHECK_MSG(mapping.empty() || int(mapping.size()) == n,
                  "mapping size != processor count");
  }
  int operator()(int v) const {
    return mapping.empty() ? (v + root) % n : mapping[std::size_t(v)];
  }
};

/// Bytes crossing the arc into virtual rank `child`: its subtree's blocks
/// for scatter/gather, the whole message for bcast/reduce.
double arc_bytes(int child, int n, Bytes m, bool blocks) {
  return blocks ? double(trees::binomial_subtree_blocks(child, n)) * double(m)
                : double(m);
}

/// Completion time of the subtree rooted at virtual rank v, measured from
/// the instant v's processor holds its data. The parent's per-child CPU
/// terms accumulate (serialized); wire and child processing overlap.
double lmo_subtree(const LmoParams& p, const RankMap& rank, Bytes m, int v,
                   bool blocks) {
  const int n = rank.n;
  const int pv = rank(v);
  double cpu_done = 0.0;
  double total = 0.0;
  trees::for_each_binomial_child(v, n, /*smallest_first=*/false,
                                 [&](int child) {
    const int pc = rank(child);
    const double bytes = arc_bytes(child, n, m, blocks);
    cpu_done += p.C[std::size_t(pv)] + bytes * p.t[std::size_t(pv)];
    const double arrival = cpu_done + p.L(pv, pc) +
                           bytes * p.inv_beta(pv, pc) +
                           p.C[std::size_t(pc)] + bytes * p.t[std::size_t(pc)];
    total = std::max(total, arrival + lmo_subtree(p, rank, m, child, blocks));
  });
  return std::max(total, cpu_done);
}

/// Gather mirror: children's subtrees complete, then their messages travel
/// up; the parent's receive processing is serialized, transmissions are
/// parallel. Children finish in reverse send order (smallest subtree
/// first), matching the algorithm in coll::binomial_gather. `combine` adds
/// one extra serialized processing per received block (reduce).
double lmo_subtree_gather(const LmoParams& p, const RankMap& rank, Bytes m,
                          int v, bool blocks, bool combine) {
  const int n = rank.n;
  const int pv = rank(v);
  double done = 0.0;
  trees::for_each_binomial_child(v, n, /*smallest_first=*/true,
                                 [&](int child) {
    const int pc = rank(child);
    const double bytes = arc_bytes(child, n, m, blocks);
    // The child's message is ready after its own subtree completes plus its
    // send processing; it then needs the wire plus the parent's receive
    // processing, which queues behind the previous child's.
    const double ready =
        lmo_subtree_gather(p, rank, m, child, blocks, combine) +
        p.C[std::size_t(pc)] + bytes * p.t[std::size_t(pc)] + p.L(pv, pc) +
        bytes * p.inv_beta(pv, pc);
    const double processing =
        (combine ? 2.0 : 1.0) *
        (p.C[std::size_t(pv)] + bytes * p.t[std::size_t(pv)]);
    done = std::max(done, ready) + processing;
  });
  return done;
}
}  // namespace

double binomial_scatter_time(const LmoParams& p, int root, Bytes m,
                             const std::vector<int>& mapping) {
  p.validate();
  LMO_CHECK(root >= 0 && root < p.size());
  return lmo_subtree(p, RankMap(mapping, root, p.size()), m, 0,
                     /*blocks=*/true);
}

double binomial_gather_time(const LmoParams& p, int root, Bytes m,
                            const std::vector<int>& mapping) {
  p.validate();
  LMO_CHECK(root >= 0 && root < p.size());
  return lmo_subtree_gather(p, RankMap(mapping, root, p.size()), m, 0,
                            /*blocks=*/true, /*combine=*/false);
}

double linear_bcast_time(const LmoParams& p, int root, Bytes m) {
  // Same structure as eq. (4): all messages carry m bytes.
  return linear_scatter_time(p, root, m);
}

double binomial_bcast_time(const LmoParams& p, int root, Bytes m,
                           const std::vector<int>& mapping) {
  p.validate();
  LMO_CHECK(root >= 0 && root < p.size());
  return lmo_subtree(p, RankMap(mapping, root, p.size()), m, 0,
                     /*blocks=*/false);
}

double linear_reduce_time(const LmoParams& p, int root, Bytes m) {
  p.validate();
  LMO_CHECK(root >= 0 && root < p.size());
  // One receive processing plus one combine per block, both at the root.
  return 2.0 * root_serial(p, root, m) + remote_tail(p, root, m).max;
}

double binomial_reduce_time(const LmoParams& p, int root, Bytes m,
                            const std::vector<int>& mapping) {
  p.validate();
  LMO_CHECK(root >= 0 && root < p.size());
  return lmo_subtree_gather(p, RankMap(mapping, root, p.size()), m, 0,
                            /*blocks=*/false, /*combine=*/true);
}

namespace {
/// The fabric charges at least one minimal Ethernet frame per message on
/// the wire; segment grids that go tiny would otherwise look free.
constexpr double kMinFrameBytes = 64.0;

/// One step of a rank's replayed coroutine: a blocking receive or an
/// eager send. A rank runs the same op list once per chunk: chunk s of an
/// op uses arrival slot edge + s and carries scale * chunk[s] bytes, so
/// op memory is O(n) whatever the segment count.
struct SchedOp {
  bool recv;
  bool extra;        // reduce: a second processing term per received block
  int peer;          // physical rank on the other side
  std::size_t edge;  // chunk-0 arrival slot, unique per message
  double scale;      // blocks per chunk (1 unless scatter/gather)
};

/// Every buffer one schedule replay needs. The mapping hill-climb prices a
/// candidate per swap — about a thousand replays per decision — so each
/// thread keeps one Replay and every replay reuses its capacity: buffers
/// are assigned or resized, never rebuilt, and a steady-state replay does
/// not allocate.
struct Replay {
  std::vector<double> chunks;      // chunk byte counts, in order
  std::vector<std::size_t> row;    // rank r's ops: ops[row[r], row[r+1])
  std::vector<std::size_t> fill;   // fill-pass write cursor per rank
  std::vector<SchedOp> ops;        // every rank's op list, flat
  std::vector<double> arrival;     // per slot: arrival time at the receiver
  std::vector<char> known;         // per slot: the send has been granted
  std::vector<double> clock;       // per rank: private coroutine clock
  std::vector<std::size_t> next;   // per rank: op index within the chunk
  std::vector<std::size_t> chunk;  // per rank: current chunk
  std::vector<char> queued;        // per rank: a send is in the heap
  std::vector<std::pair<double, int>> sends;  // heap of (post time, rank)
  std::vector<double> egress, ingress;        // per-rank port cursors
  std::vector<double> shared;   // contended (level, group) cursors, dense
  std::vector<std::size_t> level_base;  // level l's groups start here
};

Replay& replay_scratch() {
  thread_local Replay scratch;
  return scratch;
}

/// Segment `total` into a pipelined series of chunks of at most `segment`
/// bytes (one full-size chunk when segment is 0 or >= total).
void chunk_sizes(Bytes total, Bytes segment, std::vector<double>& chunks) {
  chunks.clear();
  if (total <= 0 || segment <= 0 || segment >= total) {
    chunks.push_back(double(total > 0 ? total : 0));
    return;
  }
  Bytes remaining = total;
  while (remaining > 0) {
    const Bytes piece = std::min(remaining, segment);
    chunks.push_back(double(piece));
    remaining -= piece;
  }
}

/// Replays Fabric::transfer's resource chain for one message priced from
/// the fitted parameters: the sender's egress port, every *contended*
/// shared segment on the path (memory bus, oversubscribed uplink — only
/// when a topology is supplied), then the receiver's ingress port. Flat
/// clusters carry no contended segments, so the shared-cursor loop is a
/// no-op there and the evaluators price exactly what they did before.
/// Shared cursors are dense: level l's group g sits at level_base[l-1] + g.
class WireState {
 public:
  WireState(Replay& rp, int n, const sim::Topology* topo)
      : egress_(rp.egress),
        ingress_(rp.ingress),
        shared_(rp.shared),
        base_(rp.level_base),
        topo_(topo && !topo->empty() && topo->any_contended() ? topo
                                                              : nullptr) {
    egress_.assign(std::size_t(n), 0.0);
    ingress_.assign(std::size_t(n), 0.0);
    if (!topo_) return;
    base_.assign(std::size_t(topo_->depth()), 0);
    std::size_t cursors = 0;
    for (int l = 1; l <= topo_->depth(); ++l) {
      base_[std::size_t(l - 1)] = cursors;
      cursors += std::size_t(topo_->group_count(l));
    }
    shared_.assign(cursors, 0.0);
  }

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
        double& cursor = shared_[base_[std::size_t(l - 1)] + std::size_t(g)];
        avail = std::max(avail, cursor);
        cursor = avail + wire;
      });
    const double in =
        std::max(avail + p.L(src, dst), ingress_[std::size_t(dst)]);
    ingress_[std::size_t(dst)] = in + wire;
    return in + wire;
  }

 private:
  std::vector<double>& egress_;
  std::vector<double>& ingress_;
  std::vector<double>& shared_;
  std::vector<std::size_t>& base_;
  const sim::Topology* topo_;
};

/// Event-driven replay of the schedule in rp.ops/rp.row/rp.chunks: each
/// rank executes its op list once per chunk on a private clock; blocking
/// receives consume already-known arrivals immediately (they reserve
/// nothing), while sends are granted their wire resources in global
/// post-time order with ties broken by rank — exactly the order the
/// fabric's Timelines see them, which is what keeps chunked pipelines from
/// looking serialized on shared segments.
double run_schedule(const LmoParams& p, Replay& rp, std::size_t edges,
                    const sim::Topology* topo) {
  const int n = int(rp.row.size()) - 1;
  const std::size_t S = rp.chunks.size();
  WireState wires(rp, n, topo);
  rp.arrival.assign(edges, 0.0);
  rp.known.assign(edges, 0);
  rp.clock.assign(std::size_t(n), 0.0);
  rp.next.assign(std::size_t(n), 0);
  rp.chunk.assign(std::size_t(n), 0);
  rp.queued.assign(std::size_t(n), 0);
  rp.sends.clear();
  using Item = std::pair<double, int>;  // (post time, rank)
  const std::greater<Item> later;
  // Run rank `r` forward: consume satisfied receives, park on the first
  // unsatisfied one, enqueue when the next op is a send.
  auto advance = [&](int r) {
    const SchedOp* list = rp.ops.data() + rp.row[std::size_t(r)];
    const std::size_t len =
        rp.row[std::size_t(r) + 1] - rp.row[std::size_t(r)];
    double& t = rp.clock[std::size_t(r)];
    std::size_t& i = rp.next[std::size_t(r)];
    std::size_t& s = rp.chunk[std::size_t(r)];
    if (len == 0) return;
    while (s < S) {
      const SchedOp& op = list[i];
      if (!op.recv) {
        if (!rp.queued[std::size_t(r)]) {
          rp.sends.push_back({t, r});
          std::push_heap(rp.sends.begin(), rp.sends.end(), later);
          rp.queued[std::size_t(r)] = 1;
        }
        return;
      }
      const std::size_t slot = op.edge + s;
      if (!rp.known[slot]) return;  // parked until the matching send
      const double bytes = op.scale * rp.chunks[s];
      const double proc = p.C[std::size_t(r)] + bytes * p.t[std::size_t(r)];
      t = std::max(t, rp.arrival[slot]) + proc;
      if (op.extra) t += proc;
      if (++i == len) {  // the row is done: start the next chunk
        i = 0;
        ++s;
      }
    }
  };
  for (int r = 0; r < n; ++r) advance(r);
  while (!rp.sends.empty()) {
    std::pop_heap(rp.sends.begin(), rp.sends.end(), later);
    const int r = rp.sends.back().second;
    rp.sends.pop_back();
    rp.queued[std::size_t(r)] = 0;
    std::size_t& i = rp.next[std::size_t(r)];
    std::size_t& s = rp.chunk[std::size_t(r)];
    const SchedOp& op = rp.ops[rp.row[std::size_t(r)] + i];
    const double bytes = op.scale * rp.chunks[s];
    double& t = rp.clock[std::size_t(r)];
    t += p.C[std::size_t(r)] + bytes * p.t[std::size_t(r)];  // send CPU
    const std::size_t slot = op.edge + s;
    rp.arrival[slot] = wires.send(p, r, op.peer, bytes, t);
    rp.known[slot] = 1;
    if (++i == rp.row[std::size_t(r) + 1] - rp.row[std::size_t(r)]) {
      i = 0;
      ++s;
    }
    advance(r);
    advance(op.peer);
  }
  double completion = 0.0;
  for (const double t : rp.clock) completion = std::max(completion, t);
  return completion;
}

/// Lays out one schedule's per-rank op lists in rp.ops: a count pass sizes
/// each physical rank's row, then a fill pass writes the rows. `emit(put)`
/// must call put(rank, op) for every op in execution order, and is called
/// once per pass.
template <class Emit>
void build_rows(Replay& rp, int n, Emit&& emit) {
  rp.row.assign(std::size_t(n) + 1, 0);
  emit([&](int rank, const SchedOp&) {
    LMO_CHECK_MSG(rank >= 0 && rank < n, "mapping entry out of range");
    ++rp.row[std::size_t(rank) + 1];
  });
  for (int r = 0; r < n; ++r)
    rp.row[std::size_t(r) + 1] += rp.row[std::size_t(r)];
  rp.ops.resize(rp.row[std::size_t(n)]);
  rp.fill.assign(rp.row.begin(), rp.row.end() - 1);
  emit([&](int rank, const SchedOp& op) {
    rp.ops[rp.fill[std::size_t(rank)]++] = op;
  });
}

/// Root-to-leaves ops (bcast/scatter), per chunk: a blocking receive from
/// the parent then one eager send per child in tree_children order.
/// `scatter` scales arc bytes by the receiving subtree's block count.
/// Arrival slot for the message into virtual rank v at chunk s: v*S + s.
template <class Put>
void emit_tree_down(Put&& put, trees::TreeKind kind, const RankMap& rank,
                    std::size_t S, bool scatter) {
  const int n = rank.n;
  for (int v = 0; v < n; ++v) {
    const int pv = rank(v);
    if (v != 0) {
      const double scale =
          scatter ? double(trees::tree_subtree_size(kind, v, n)) : 1.0;
      put(pv, SchedOp{true, false, rank(trees::tree_parent(kind, v)),
                      std::size_t(v) * S, scale});
    }
    trees::for_each_tree_child(kind, v, n, /*recv_order=*/false,
                               [&](int child) {
      const double scale =
          scatter ? double(trees::tree_subtree_size(kind, child, n)) : 1.0;
      put(pv, SchedOp{false, false, rank(child), std::size_t(child) * S,
                      scale});
    });
  }
}

/// Leaves-to-root mirror (gather/reduce), per chunk: a blocking receive per
/// child in tree_recv_order (`combine` adds one serialized combine per
/// received block) then one eager send up. Arrival slot for the message
/// out of virtual rank v at chunk s: v*S + s.
template <class Put>
void emit_tree_up(Put&& put, trees::TreeKind kind, const RankMap& rank,
                  std::size_t S, bool gather, bool combine) {
  const int n = rank.n;
  for (int v = 0; v < n; ++v) {
    const int pv = rank(v);
    trees::for_each_tree_child(kind, v, n, /*recv_order=*/true,
                               [&](int child) {
      const double scale =
          gather ? double(trees::tree_subtree_size(kind, child, n)) : 1.0;
      put(pv, SchedOp{true, combine, rank(child), std::size_t(child) * S,
                      scale});
    });
    if (v != 0) {
      const double scale =
          gather ? double(trees::tree_subtree_size(kind, v, n)) : 1.0;
      put(pv, SchedOp{false, false, rank(trees::tree_parent(kind, v)),
                      std::size_t(v) * S, scale});
    }
  }
}

/// coll::ring_allgather's op sequence, run once (the schedule has a single
/// chunk): per step, every rank posts an eager send right then blocks on
/// the receive from the left (the trailing wait costs nothing extra — the
/// send clock already carries the CPU charge). Arrival slot for rank i's
/// step-s send: base + i*(n-1) + s.
template <class Put>
void emit_ring(Put&& put, int n, std::size_t base) {
  for (int i = 0; i < n; ++i) {
    const int right = (i + 1) % n;
    const int left = (i - 1 + n) % n;
    for (int s = 0; s < n - 1; ++s) {
      put(i, SchedOp{false, false, right,
                     base + std::size_t(i) * std::size_t(n - 1) +
                         std::size_t(s),
                     1.0});
      put(i, SchedOp{true, false, left,
                     base + std::size_t(left) * std::size_t(n - 1) +
                         std::size_t(s),
                     1.0});
    }
  }
}

double eval_tree_down(const LmoParams& p, trees::TreeKind kind, int root,
                      const std::vector<int>& mapping, Bytes unit,
                      Bytes segment, bool scatter, const sim::Topology* topo) {
  const int n = p.size();
  const RankMap rank(mapping, root, n);
  Replay& rp = replay_scratch();
  chunk_sizes(unit, segment, rp.chunks);
  const std::size_t S = rp.chunks.size();
  build_rows(rp, n, [&](auto&& put) {
    emit_tree_down(put, kind, rank, S, scatter);
  });
  return run_schedule(p, rp, std::size_t(n) * S, topo);
}

double eval_tree_up(const LmoParams& p, trees::TreeKind kind, int root,
                    const std::vector<int>& mapping, Bytes unit, Bytes segment,
                    bool gather, bool combine, const sim::Topology* topo) {
  const int n = p.size();
  const RankMap rank(mapping, root, n);
  Replay& rp = replay_scratch();
  chunk_sizes(unit, segment, rp.chunks);
  const std::size_t S = rp.chunks.size();
  build_rows(rp, n, [&](auto&& put) {
    emit_tree_up(put, kind, rank, S, gather, combine);
  });
  return run_schedule(p, rp, std::size_t(n) * S, topo);
}
}  // namespace

double tree_bcast_time(const LmoParams& p, trees::TreeKind kind, int root,
                       Bytes m, const std::vector<int>& mapping, Bytes segment,
                       const sim::Topology* topology) {
  p.validate();
  LMO_CHECK(root >= 0 && root < p.size());
  LMO_CHECK(m >= 0);
  return eval_tree_down(p, kind, root, mapping, m, segment, /*scatter=*/false,
                        topology);
}

double tree_scatter_time(const LmoParams& p, trees::TreeKind kind, int root,
                         Bytes m, const std::vector<int>& mapping,
                         Bytes segment, const sim::Topology* topology) {
  p.validate();
  LMO_CHECK(root >= 0 && root < p.size());
  LMO_CHECK(m >= 0);
  return eval_tree_down(p, kind, root, mapping, m, segment, /*scatter=*/true,
                        topology);
}

double tree_gather_time(const LmoParams& p, trees::TreeKind kind, int root,
                        Bytes m, const std::vector<int>& mapping, Bytes segment,
                        const sim::Topology* topology) {
  p.validate();
  LMO_CHECK(root >= 0 && root < p.size());
  LMO_CHECK(m >= 0);
  return eval_tree_up(p, kind, root, mapping, m, segment, /*gather=*/true,
                      /*combine=*/false, topology);
}

double tree_reduce_time(const LmoParams& p, trees::TreeKind kind, int root,
                        Bytes m, const std::vector<int>& mapping, Bytes segment,
                        const sim::Topology* topology) {
  p.validate();
  LMO_CHECK(root >= 0 && root < p.size());
  LMO_CHECK(m >= 0);
  return eval_tree_up(p, kind, root, mapping, m, segment, /*gather=*/false,
                      /*combine=*/true, topology);
}

double scatter_allgather_bcast_time(const LmoParams& p, int root, Bytes m,
                                    const sim::Topology* topology) {
  p.validate();
  LMO_CHECK(root >= 0 && root < p.size());
  LMO_CHECK(m >= 0);
  const int n = p.size();
  if (n == 1) return 0.0;
  const Bytes block = (m + n - 1) / n;
  // One schedule covering both phases: each rank enters the ring as soon
  // as its own scatter part lands (no global barrier between phases),
  // which is exactly how coll::scatter_allgather_bcast executes. The ring
  // ops follow each rank's scatter ops in its row.
  const std::vector<int> default_mapping;
  const RankMap rank(default_mapping, root, n);
  Replay& rp = replay_scratch();
  rp.chunks.assign(1, double(block));
  const std::size_t scatter_edges = std::size_t(n);
  build_rows(rp, n, [&](auto&& put) {
    emit_tree_down(put, trees::TreeKind::kBinomial, rank, 1,
                   /*scatter=*/true);
    emit_ring(put, n, scatter_edges);
  });
  return run_schedule(p, rp,
                      scatter_edges + std::size_t(n) * std::size_t(n - 1),
                      topology);
}

double ring_allgather_time(const LmoParams& p, Bytes m) {
  p.validate();
  const int n = p.size();
  // Each of the n-1 steps completes when the slowest neighbour exchange
  // does: send processing + wire + receive processing over link (i, i+1).
  double step = 0.0;
  for (int i = 0; i < n; ++i) {
    const int j = (i + 1) % n;
    step = std::max(step, p.pt2pt(i, j, m));
  }
  return double(n - 1) * step;
}

double pairwise_alltoall_time(const LmoParams& p, Bytes m) {
  p.validate();
  const int n = p.size();
  // Step s pairs (i, i+s): the step ends when its slowest exchange does.
  double total = 0.0;
  for (int step = 1; step < n; ++step) {
    double slowest = 0.0;
    for (int i = 0; i < n; ++i)
      slowest = std::max(slowest, p.pt2pt(i, (i + step) % n, m));
    total += slowest;
  }
  return total;
}

double linear_scatter_time_with_leaps(const LmoParams& p,
                                      const ScatterEmpirical& emp, int root,
                                      Bytes m) {
  // The root's n-2 pipelined sends each pay the per-message leap; the
  // detected empirical magnitude is already the collective's total.
  return linear_scatter_time(p, root, m) + emp.extra(m);
}

MappingPlan optimize_binomial_scatter_mapping(const LmoParams& p, int root,
                                              Bytes m) {
  p.validate();
  MappingPlan plan;
  plan.predicted_default = binomial_scatter_time(p, root, m);
  const auto result = trees::optimize_mapping(
      p.size(), root, [&](const std::vector<int>& mapping) {
        return binomial_scatter_time(p, root, m, mapping);
      });
  plan.mapping = result.mapping;
  plan.predicted_optimized = result.cost;
  return plan;
}

}  // namespace lmo::core
