#include "estimate/lmo_estimator.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "estimate/measurement_store.hpp"
#include "obs/metrics.hpp"
#include "obs/residuals.hpp"
#include "obs/trace.hpp"
#include "stats/summary.hpp"
#include "util/error.hpp"

namespace lmo::estimate {

namespace {
/// Accumulates redundant estimates of one parameter (eq. 12).
class Averager {
 public:
  explicit Averager(bool average) : average_(average) {}
  void add(double v) {
    if (!average_ && s_.count() > 0) return;  // first-triplet-wins ablation
    s_.add(v);
  }
  [[nodiscard]] double value() const { return s_.mean(); }
  [[nodiscard]] bool empty() const { return s_.count() == 0; }

 private:
  bool average_;
  stats::RunningStats s_;
};

void check_options(int n, const LmoOptions& opts) {
  LMO_CHECK_MSG(n >= 3, "LMO estimation needs at least three processors");
  LMO_CHECK(opts.probe_size > 0);
}

/// T_ij(0) and T_ij(M), read back by key and checked finite.
std::pair<double, double> read_roundtrip(const MeasurementStore& store, int i,
                                         int j, Bytes m) {
  const double t0 = store.at(ExperimentKey::roundtrip(i, j, 0, 0));
  const double tm = store.at(ExperimentKey::roundtrip(i, j, m, m));
  LMO_CHECK_MSG(std::isfinite(t0) && std::isfinite(tm),
                "LMO fit read a non-finite round-trip for pair " +
                    std::to_string(std::min(i, j)) + "," +
                    std::to_string(std::max(i, j)));
  return {t0, tm};
}

/// The measured round-trip tables T_ij(0), T_ij(M) of the exact fit.
struct PairTables {
  models::PairTable t0, tm;

  [[nodiscard]] TripletRoundtrips of(const Triplet& t) const {
    TripletRoundtrips rt;
    for (std::size_t a = 0; a < 3; ++a)
      for (std::size_t b = 0; b < 3; ++b) {
        if (a == b) continue;
        rt.t0[a][b] = t0(t[a], t[b]);
        rt.tm[a][b] = tm(t[a], t[b]);
      }
    return rt;
  }
};

PairTables read_pair_tables(const MeasurementStore& store, int n, Bytes m) {
  PairTables t{models::PairTable(n), models::PairTable(n)};
  for (const auto& [i, j] : all_pairs(n)) {
    const auto [t0, tm] = read_roundtrip(store, i, j, m);
    t.t0(i, j) = t.t0(j, i) = t0;
    t.tm(i, j) = t.tm(j, i) = tm;
  }
  return t;
}

/// Every triplet i < j < k, in lexicographic order.
template <typename Fn>
void for_each_triplet(int n, Fn&& fn) {
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      for (int k = j + 1; k < n; ++k) fn(Triplet{i, j, k});
}
}  // namespace

TripletRoundtrips read_triplet_roundtrips(const MeasurementStore& store,
                                          const Triplet& t, Bytes m) {
  TripletRoundtrips rt;
  for (std::size_t a = 0; a < 3; ++a)
    for (std::size_t b = a + 1; b < 3; ++b) {
      const auto [t0, tm] = read_roundtrip(store, t[a], t[b], m);
      rt.t0[a][b] = rt.t0[b][a] = t0;
      rt.tm[a][b] = rt.tm[b][a] = tm;
    }
  return rt;
}

std::array<ExperimentKey, 6> triplet_one_to_two_keys(
    const Triplet& t, const TripletRoundtrips& rt, Bytes m) {
  std::array<ExperimentKey, 6> keys;
  for (std::size_t a = 0; a < 3; ++a) {
    std::size_t x = (a + 1) % 3, y = (a + 2) % 3;
    if (t[x] > t[y]) std::swap(x, y);  // canonical: ties resolve identically
    const auto far_last = [&](bool x_far) {
      return x_far ? Triplet{t[a], t[y], t[x]} : Triplet{t[a], t[x], t[y]};
    };
    keys[2 * a] = ExperimentKey::one_to_two(
        far_last(rt.t0[a][x] >= rt.t0[a][y]), 0, 0);
    keys[2 * a + 1] = ExperimentKey::one_to_two(
        far_last(rt.t0[a][x] + rt.tm[a][x] >= rt.t0[a][y] + rt.tm[a][y]), m,
        0);
  }
  return keys;
}

TripletSolution solve_triplet(const MeasurementStore& store, const Triplet& t,
                              const TripletRoundtrips& rt, Bytes m) {
  const std::array<ExperimentKey, 6> keys = triplet_one_to_two_keys(t, rt, m);
  std::array<double, 6> o2{};
  for (std::size_t e = 0; e < 6; ++e) {
    o2[e] = store.at(keys[e]);
    LMO_CHECK_MSG(std::isfinite(o2[e]),
                  "LMO fit read a non-finite one-to-two value for " +
                      keys[e].describe());
  }
  TripletSolution s;
  // Processing constants (eq. 8), one per root.
  for (std::size_t a = 0; a < 3; ++a) {
    const std::size_t x = (a + 1) % 3, y = (a + 2) % 3;
    s.C[a] = (o2[2 * a] - std::max(rt.t0[a][x], rt.t0[a][y])) / 2.0;
  }
  // Latencies from the round-trips and this triplet's constants (eq. 8).
  for (std::size_t a = 0; a < 3; ++a)
    for (std::size_t b = a + 1; b < 3; ++b)
      s.L[a][b] = rt.t0[a][b] / 2.0 - s.C[a] - s.C[b];
  // Per-byte delays (eq. 11).
  for (std::size_t a = 0; a < 3; ++a) {
    const std::size_t x = (a + 1) % 3, y = (a + 2) % 3;
    const double mx = std::max(rt.t0[a][x] + rt.tm[a][x],
                               rt.t0[a][y] + rt.tm[a][y]) /
                      2.0;
    s.t[a] = (o2[2 * a + 1] - mx - 2.0 * s.C[a]) / double(m);
  }
  // Transmission rates (eq. 11).
  for (std::size_t a = 0; a < 3; ++a)
    for (std::size_t b = a + 1; b < 3; ++b)
      s.inv_beta[a][b] =
          (rt.tm[a][b] / 2.0 - s.C[a] - s.L[a][b] - s.C[b]) / double(m) -
          s.t[a] - s.t[b];
  return s;
}

void plan_lmo_roundtrips(PlanBuilder& plan, int n, const LmoOptions& opts) {
  check_options(n, opts);
  for (const auto& [i, j] : all_pairs(n)) {
    plan.require(ExperimentKey::roundtrip(i, j, 0, 0));
    plan.require(
        ExperimentKey::roundtrip(i, j, opts.probe_size, opts.probe_size));
  }
}

void plan_lmo_one_to_two(PlanBuilder& plan, const MeasurementStore& store,
                         int n, const LmoOptions& opts) {
  check_options(n, opts);
  const PairTables tables = read_pair_tables(store, n, opts.probe_size);
  for_each_triplet(n, [&](const Triplet& t) {
    for (const ExperimentKey& k :
         triplet_one_to_two_keys(t, tables.of(t), opts.probe_size))
      plan.require(k);
  });
}

LmoReport fit_lmo(const MeasurementStore& store, int n,
                  const LmoOptions& opts) {
  const obs::Span solve_sp = obs::span("lmo.solve", "fit");
  check_options(n, opts);
  const Bytes m = opts.probe_size;

  LmoReport report;
  report.roundtrip_experiments = n * (n - 1) / 2;
  report.one_to_two_experiments = 3 * (n * (n - 1) * (n - 2) / 6);

  const PairTables tables = read_pair_tables(store, n, m);

  // ---- Per-triplet systems (8) and (11), averaged per (12). ----
  std::vector<Averager> c_acc(std::size_t(n),
                              Averager(opts.redundancy_averaging));
  std::vector<Averager> t_acc(std::size_t(n),
                              Averager(opts.redundancy_averaging));
  std::vector<std::vector<Averager>> l_acc(
      std::size_t(n), std::vector<Averager>(
                          std::size_t(n), Averager(opts.redundancy_averaging)));
  auto ib_acc = l_acc;  // same shape for 1/beta

  for_each_triplet(n, [&](const Triplet& t) {
    const TripletSolution s = solve_triplet(store, t, tables.of(t), m);
    for (std::size_t a = 0; a < 3; ++a) {
      c_acc[std::size_t(t[a])].add(s.C[a]);
      t_acc[std::size_t(t[a])].add(s.t[a]);
    }
    for (std::size_t a = 0; a < 3; ++a)
      for (std::size_t b = a + 1; b < 3; ++b) {
        const auto u = std::size_t(t[a]), v = std::size_t(t[b]);
        l_acc[u][v].add(s.L[a][b]);
        l_acc[v][u].add(s.L[a][b]);
        ib_acc[u][v].add(s.inv_beta[a][b]);
        ib_acc[v][u].add(s.inv_beta[a][b]);
      }
  });

  // ---- Assemble. Negative estimates (noise artifacts) clamp to zero. ----
  core::LmoParams& p = report.params;
  p.C.resize(std::size_t(n));
  p.t.resize(std::size_t(n));
  p.L = models::PairTable(n);
  p.inv_beta = models::PairTable(n);
  for (int i = 0; i < n; ++i) {
    p.C[std::size_t(i)] = std::max(0.0, c_acc[std::size_t(i)].value());
    p.t[std::size_t(i)] = std::max(0.0, t_acc[std::size_t(i)].value());
  }
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      p.L(i, j) = std::max(0.0, l_acc[std::size_t(i)][std::size_t(j)].value());
      p.inv_beta(i, j) =
          std::max(0.0, ib_acc[std::size_t(i)][std::size_t(j)].value());
    }

  // ---- Per-level aggregation over the resource tree (when known). ----
  // Pairs collapse onto their LCA level: the mean fitted L/1-over-beta of
  // each level is the per-level link parameter priced_by_path() expands
  // back into pair tables.
  if (opts.topology != nullptr && !opts.topology->empty()) {
    const sim::Topology& topo = *opts.topology;
    LMO_CHECK_MSG(topo.ranks() == n,
                  "LMO fit: topology places " + std::to_string(topo.ranks()) +
                      " ranks, store covers " + std::to_string(n));
    p.per_level.assign(std::size_t(topo.depth()), core::LevelLink{});
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j) {
        core::LevelLink& link =
            p.per_level[std::size_t(topo.lca_level(i, j) - 1)];
        link.L += p.L(i, j);
        link.inv_beta += p.inv_beta(i, j);
        ++link.pairs;
      }
    for (core::LevelLink& link : p.per_level) {
      if (link.pairs == 0) continue;
      link.L /= link.pairs;
      link.inv_beta /= link.pairs;
    }
  }

  // Fidelity: the fitted model's round-trips vs the measured tables the
  // triplet systems consumed. Redundancy averaging and the >= 0 clamps
  // make these non-trivial even though the inputs were fitted. Stamped
  // with the pair's LCA level when the resource tree is known, so the
  // fidelity report can break residuals down per level.
  if (obs::global_residuals()) {
    const sim::Topology* topo =
        opts.topology != nullptr && !opts.topology->empty() ? opts.topology
                                                            : nullptr;
    for (const auto& [i, j] : all_pairs(n)) {
      const int level = topo != nullptr ? topo->lca_level(i, j) : -1;
      obs::record_residual("lmo", "roundtrip",
                           obs::ResidualScope::kPointToPoint, level, 0,
                           2.0 * p.pt2pt(i, j, 0), tables.t0(i, j));
      obs::record_residual("lmo", "roundtrip",
                           obs::ResidualScope::kPointToPoint, level,
                           std::uint64_t(m), 2.0 * p.pt2pt(i, j, m),
                           tables.tm(i, j));
    }
  }
  return report;
}

LmoReport estimate_lmo(Experimenter& ex, MeasurementStore& store,
                       const LmoOptions& opts_in) {
  const int n = ex.size();
  LmoOptions opts = opts_in;
  if (opts.topology == nullptr) opts.topology = ex.topology();
  check_options(n, opts);
  const std::uint64_t runs0 = ex.runs();
  const SimTime cost0 = ex.cost();

  {
    const obs::Span sp = obs::span("lmo.roundtrips");
    PlanBuilder stage1(opts.topology);
    plan_lmo_roundtrips(stage1, n, opts);
    (void)execute_plan(stage1.build(opts.parallel), ex, store);
  }
  const SimTime cost_roundtrips = ex.cost() - cost0;

  {
    const obs::Span sp = obs::span("lmo.one_to_two");
    PlanBuilder stage2(opts.topology);
    plan_lmo_one_to_two(stage2, store, n, opts);
    (void)execute_plan(stage2.build(opts.parallel), ex, store);
  }
  const SimTime cost_one_to_two = ex.cost() - cost0 - cost_roundtrips;

  LmoReport report = fit_lmo(store, n, opts);
  report.world_runs = ex.runs() - runs0;
  report.estimation_cost = ex.cost() - cost0;

  obs::Registry& reg = obs::Registry::global();
  reg.gauge("lmo.cost_roundtrips_s").set(cost_roundtrips.seconds());
  reg.gauge("lmo.cost_one_to_two_s").set(cost_one_to_two.seconds());
  reg.gauge("lmo.cost_total_s").set(report.estimation_cost.seconds());
  return report;
}

LmoReport estimate_lmo(Experimenter& ex, const LmoOptions& opts) {
  MeasurementStore local;
  return estimate_lmo(ex, local, opts);
}

}  // namespace lmo::estimate
