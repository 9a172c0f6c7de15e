// The declarative plan / shared MeasurementStore layer:
//  * ExperimentKey canonicalization and JSON round-trips,
//  * PlanBuilder deduplication, ordering-independence and disjoint rounds,
//    and its bitset packer checked against a pairwise first-fit oracle,
//  * MeasurementStore semantics (first-write-wins, hit/miss accounting)
//    and bit-exact persistence,
//  * the cross-estimator reuse guarantee: all five models through one
//    shared store cost >= 30% fewer experiment runs than five independent
//    estimations on the 16-node Table-I cluster, and a saved store re-fits
//    offline to bit-identical parameters.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>

#include "estimate/suite.hpp"
#include "obs/trace.hpp"
#include "simnet/cluster.hpp"
#include "simnet/topology.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "vmpi/world.hpp"

namespace lmo::estimate {
namespace {

// ---------------------------------------------------------------- keys --

TEST(ExperimentKeyTest, SymmetricRoundtripCanonicalizes) {
  // T_ij(m, m) and T_ji(m, m) are the same experiment — Hockney asking for
  // (3, 1) and LMO for (1, 3) must collapse onto one key.
  EXPECT_EQ(ExperimentKey::roundtrip(3, 1, 4096, 4096),
            ExperimentKey::roundtrip(1, 3, 4096, 4096));
  EXPECT_EQ(ExperimentKey::roundtrip(3, 1, 0, 0).a, 1);
}

TEST(ExperimentKeyTest, AsymmetricRoundtripKeepsOrientation) {
  // Different forward/reply sizes make the direction observable.
  EXPECT_NE(ExperimentKey::roundtrip(3, 1, 4096, 0),
            ExperimentKey::roundtrip(1, 3, 4096, 0));
}

TEST(ExperimentKeyTest, DirectionalKindsKeepOrientation) {
  EXPECT_NE(ExperimentKey::send_overhead(0, 1, 256),
            ExperimentKey::send_overhead(1, 0, 256));
  EXPECT_NE(ExperimentKey::saturation_gap(0, 1, 256, 32),
            ExperimentKey::saturation_gap(0, 1, 256, 48));
}

TEST(ExperimentKeyTest, DescribeNamesTheExperiment) {
  const std::string d =
      ExperimentKey::roundtrip(2, 5, 32768, 32768).describe();
  EXPECT_NE(d.find("roundtrip"), std::string::npos);
  EXPECT_NE(d.find("2"), std::string::npos);
  EXPECT_NE(d.find("5"), std::string::npos);
}

TEST(ExperimentKeyTest, JsonRoundTripsEveryKind) {
  const std::vector<ExperimentKey> keys{
      ExperimentKey::roundtrip(0, 3, 1024, 2048),
      ExperimentKey::one_to_two({2, 0, 1}, 32768, 0),
      ExperimentKey::send_overhead(1, 2, 256),
      ExperimentKey::recv_overhead(2, 1, 256),
      ExperimentKey::saturation_gap(0, 1, 65536, 48),
      ExperimentKey::scatter_observation(0, 8192, 7),
      ExperimentKey::gather_observation(3, 8192, 11),
  };
  for (const ExperimentKey& k : keys) {
    const ExperimentKey back = ExperimentKey::from_json(
        obs::Json::parse(k.to_json().dump()));
    EXPECT_EQ(back, k) << k.describe();
  }
}

// --------------------------------------------------------------- plans --

TEST(PlanBuilderTest, DeduplicatesAcrossEstimators) {
  PlanBuilder plan;
  plan.require(ExperimentKey::roundtrip(0, 1, 0, 0));     // Hockney's
  plan.require(ExperimentKey::roundtrip(1, 0, 0, 0));     // LMO's — same
  plan.require(ExperimentKey::roundtrip(0, 1, 1024, 1024));
  EXPECT_EQ(plan.requests(), 3u);
  EXPECT_EQ(plan.unique(), 2u);
  const ExperimentPlan built = plan.build(true);
  EXPECT_EQ(built.requested, 3u);
  EXPECT_EQ(built.deduplicated, 1u);
  EXPECT_EQ(built.experiments(), 2u);
}

TEST(PlanBuilderTest, PlanIsIndependentOfRequestOrder) {
  const int n = 6;
  std::vector<ExperimentKey> keys;
  HockneyOptions hockney;
  LmoOptions lmo;
  PlanBuilder forward, reverse;
  plan_hockney(forward, n, hockney);
  plan_lmo_roundtrips(forward, n, lmo);
  plan_lmo_roundtrips(reverse, n, lmo);
  plan_hockney(reverse, n, hockney);
  const ExperimentPlan a = forward.build(true);
  const ExperimentPlan b = reverse.build(true);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r)
    EXPECT_EQ(a.rounds[r].keys, b.rounds[r].keys) << "round " << r;
}

TEST(PlanBuilderTest, RoundsAreNodeDisjointAndHomogeneous) {
  PlanBuilder plan;
  plan_hockney(plan, 7, {});
  plan_loggp(plan, 7, {});
  const ExperimentPlan built = plan.build(true);
  std::size_t experiments = 0;
  for (const PlannedRound& round : built.rounds) {
    std::set<int> nodes;
    for (const ExperimentKey& k : round.keys) {
      EXPECT_EQ(k.kind, round.kind);
      EXPECT_EQ(k.m_fwd, round.m_fwd);
      EXPECT_EQ(k.m_back, round.m_back);
      EXPECT_EQ(k.count, round.count);
      for (const int p : k.participants())
        EXPECT_TRUE(nodes.insert(p).second)
            << "node " << p << " twice in one round: " << k.describe();
      ++experiments;
    }
  }
  EXPECT_EQ(experiments, plan.unique());
}

TEST(PlanBuilderTest, SerialBuildYieldsSingletonRounds) {
  PlanBuilder plan;
  plan_hockney(plan, 5, {});
  const ExperimentPlan built = plan.build(false);
  EXPECT_EQ(built.rounds.size(), plan.unique());
  for (const PlannedRound& round : built.rounds)
    EXPECT_EQ(round.keys.size(), 1u);
}

TEST(PlanBuilderTest, RejectsNegativeRankIdsNamingTheKey) {
  // one_to_two() does not range-check, and a stored key lacking "c" (or
  // "b") parses to -1: the builder must refuse it instead of indexing a
  // packer with it.
  for (const ExperimentKey& k :
       {ExperimentKey::one_to_two({0, -1, 2}, 0, 0),
        ExperimentKey::from_json(obs::Json::parse(
            R"({"kind": "one_to_two", "a": 0, "b": 1, "m": 0, "reply": 0})")),
        ExperimentKey::from_json(obs::Json::parse(
            R"({"kind": "roundtrip", "a": 0, "m": 0, "reply": 0})"))}) {
    PlanBuilder plan;
    try {
      plan.require(k);
      ADD_FAILURE() << "accepted " << k.describe();
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(k.describe()), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(plan.requests(), 0u);
    EXPECT_EQ(plan.unique(), 0u);
  }
  // Observation kinds occupy only their root; b = -1 is their norm.
  PlanBuilder plan;
  plan.require(ExperimentKey::gather_observation(2, 1024, 0));
  EXPECT_EQ(plan.build(true).experiments(), 1u);
}

TEST(PlanBuilderTest, BuildOpensAPlanBuildSpan) {
  PlanBuilder plan;
  plan_hockney(plan, 4, {});
  obs::set_global_trace_enabled(true);
  obs::global_sink()->clear();
  (void)plan.build(true);
  const std::string trace = obs::global_sink()->json();
  obs::global_sink()->clear();
  obs::set_global_trace_enabled(false);
  EXPECT_NE(trace.find("\"plan.build\""), std::string::npos);
}

// ------------------------------------------ packing vs pairwise oracle --

/// The planner before round bitsets, kept as a brute-force oracle: the
/// sorted unique keys of each (kind, sizes, count) group go first-fit to
/// the first round none of whose members shares a participant or (on a
/// contended tree) a contended switch with them.
ExperimentPlan pairwise_first_fit(std::vector<ExperimentKey> keys,
                                  const sim::Topology* topo, bool parallel) {
  const auto paths = [](const ExperimentKey& k) {
    std::vector<Pair> p;
    if (k.b >= 0) p.emplace_back(k.a, k.b);
    if (k.kind == ExperimentKind::kOneToTwo) p.emplace_back(k.a, k.c);
    return p;
  };
  const bool contended = topo != nullptr && topo->constrains_concurrency();
  const auto conflict = [&](const ExperimentKey& x, const ExperimentKey& y) {
    for (const int px : x.participants())
      for (const int py : y.participants())
        if (px == py) return true;
    if (!contended) return false;
    for (const auto& [xa, xb] : paths(x))
      for (const auto& [ya, yb] : paths(y))
        if (topo->paths_conflict(xa, xb, ya, yb)) return true;
    return false;
  };
  for (ExperimentKey& k : keys) {
    k.level = 0;
    if (topo != nullptr && !topo->empty())
      for (const auto& [a, b] : paths(k))
        k.level = std::max(k.level, topo->lca_level(a, b));
  }
  std::sort(keys.begin(), keys.end());
  const std::size_t requested = keys.size();
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  ExperimentPlan plan;
  plan.requested = requested;
  plan.deduplicated = requested - keys.size();
  std::map<std::tuple<ExperimentKind, Bytes, Bytes, int>,
           std::vector<ExperimentKey>>
      groups;
  for (const ExperimentKey& k : keys)
    groups[{k.kind, k.m_fwd, k.m_back, k.count}].push_back(k);
  for (const auto& [gk, members] : groups) {
    const bool observation =
        std::get<0>(gk) == ExperimentKind::kScatterObservation ||
        std::get<0>(gk) == ExperimentKind::kGatherObservation;
    std::vector<std::vector<ExperimentKey>> rounds;
    for (const ExperimentKey& k : members) {
      std::vector<ExperimentKey>* home = nullptr;
      if (parallel && !observation)
        for (auto& round : rounds)
          if (std::none_of(round.begin(), round.end(),
                           [&](const ExperimentKey& o) {
                             return conflict(k, o);
                           })) {
            home = &round;
            break;
          }
      if (home == nullptr) home = &rounds.emplace_back();
      home->push_back(k);
    }
    for (auto& keys_of_round : rounds) {
      PlannedRound r;
      std::tie(r.kind, r.m_fwd, r.m_back, r.count) = gk;
      r.keys = std::move(keys_of_round);
      plan.rounds.push_back(std::move(r));
    }
  }
  return plan;
}

/// Whole-plan equality: round headers, key order, and the level stamps
/// that ExperimentKey's operator== ignores.
void expect_same_plan(const ExperimentPlan& got, const ExperimentPlan& want,
                      const std::string& what) {
  EXPECT_EQ(got.requested, want.requested) << what;
  EXPECT_EQ(got.deduplicated, want.deduplicated) << what;
  ASSERT_EQ(got.rounds.size(), want.rounds.size()) << what;
  for (std::size_t r = 0; r < got.rounds.size(); ++r) {
    const PlannedRound& g = got.rounds[r];
    const PlannedRound& w = want.rounds[r];
    ASSERT_EQ(std::tie(g.kind, g.m_fwd, g.m_back, g.count),
              std::tie(w.kind, w.m_fwd, w.m_back, w.count))
        << what << " round " << r;
    ASSERT_EQ(g.keys, w.keys) << what << " round " << r;
    for (std::size_t e = 0; e < g.keys.size(); ++e)
      ASSERT_EQ(g.keys[e].level, w.keys[e].level)
          << what << " round " << r << ": " << g.keys[e].describe();
  }
}

template <class T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = std::size_t(rng.uniform_int(0, std::int64_t(i - 1)));
    std::swap(v[i - 1], v[j]);
  }
}

/// A random requirement list over ranks 0..n-1: every packable kind, each
/// key kept with probability `keep` (cache holes), some requested twice,
/// in shuffled order.
std::vector<ExperimentKey> random_requests(int n, double keep, Rng& rng) {
  std::vector<ExperimentKey> all;
  for (const auto& [i, j] : all_pairs(n)) {
    all.push_back(ExperimentKey::roundtrip(i, j, 0, 0));
    all.push_back(ExperimentKey::roundtrip(j, i, 4096, 0));
    all.push_back(ExperimentKey::send_overhead(j, i, 256));
    all.push_back(ExperimentKey::saturation_gap(i, j, 1024, 8));
  }
  if (n >= 3)
    for (const Triplet& t : all_oriented_triplets(n)) {
      all.push_back(ExperimentKey::one_to_two(t, 0, 0));
      all.push_back(ExperimentKey::one_to_two(t, 32768, 0));
    }
  for (int root = 0; root < n; ++root)
    all.push_back(ExperimentKey::gather_observation(root, 8192, root % 3));
  std::vector<ExperimentKey> out;
  for (const ExperimentKey& k : all) {
    if (!rng.chance(keep)) continue;
    out.push_back(k);
    if (rng.chance(0.1)) out.push_back(k);
  }
  shuffle(out, rng);
  return out;
}

/// An irregular tree over n ranks: a random number of levels, sparse
/// group ids, monotone coarsening, each level contended at random.
sim::Topology random_contended_tree(int n, Rng& rng) {
  const int depth = int(rng.uniform_int(1, 4));
  std::vector<sim::TopologyLevel> levels;
  std::vector<std::vector<int>> group_of;
  std::vector<int> below;  // rank -> level-(l-1) group; ranks at l = 1
  for (int r = 0; r < n; ++r) below.push_back(r);
  for (int l = 1; l <= depth; ++l) {
    sim::TopologyLevel lv;
    lv.name = "l" + std::to_string(l);
    lv.forward_latency_s = 1e-6;
    lv.contended = rng.chance(0.5);
    levels.push_back(lv);
    std::vector<int> row(std::size_t(n), 0);
    if (l < depth) {
      std::vector<int> parent(std::size_t(n), -1);
      for (int r = 0; r < n; ++r) {
        int& p = parent[std::size_t(below[std::size_t(r)])];
        if (p < 0) p = int(rng.uniform_int(0, n / 2));
        row[std::size_t(r)] = p;
      }
    }
    below = row;
    group_of.push_back(std::move(row));
  }
  return sim::Topology::custom(std::move(levels), std::move(group_of));
}

TEST(PlanBuilderTest, PackingMatchesPairwiseFirstFit) {
  Rng rng(20261018);
  struct Case {
    std::string name;
    sim::Topology topo;  // empty: flat cluster
    int n = 0;
  };
  std::vector<Case> cases;
  for (const int n : {2, 3, 8, 13, 16, 24})
    cases.push_back({"flat n=" + std::to_string(n), {}, n});
  cases.push_back(
      {"single switch", sim::Topology::single_switch(11, 1e-6), 11});
  for (const auto placement : {sim::Placement::kBlock, sim::Placement::kCyclic})
    for (const auto& [s, m, c] : {std::tuple{2, 3, 4}, std::tuple{2, 2, 4},
                                  std::tuple{1, 3, 4}}) {
      const std::string name =
          "multicore " + std::to_string(s) + "x" + std::to_string(m) + "x" +
          std::to_string(c) +
          (placement == sim::Placement::kBlock ? " block" : " cyclic");
      cases.push_back(
          {name, sim::make_multicore_cluster(s, m, c, 1, placement).topology,
           s * m * c});
    }
  for (int t = 0; t < 6; ++t) {
    const int n = int(rng.uniform_int(3, 20));
    cases.push_back({"custom #" + std::to_string(t),
                     random_contended_tree(n, rng), n});
  }
  for (const Case& c : cases) {
    const sim::Topology* topo = c.topo.empty() ? nullptr : &c.topo;
    const int n = c.n;
    // Dense enough to pack, sparse enough that the quadratic oracle stays
    // quick at n = 24.
    const double keep = std::min(1.0, 1500.0 / (4.0 * n * n + n * n * n));
    const std::vector<ExperimentKey> requests = random_requests(n, keep, rng);
    for (const bool parallel : {true, false}) {
      PlanBuilder builder(topo);
      for (const ExperimentKey& k : requests) builder.require(k);
      expect_same_plan(builder.build(parallel),
                       pairwise_first_fit(requests, topo, parallel),
                       c.name + (parallel ? "" : " serial"));
    }
  }
}

TEST(PlanBuilderTest, RequireDedupIsExactUnderInterleavedDuplicates) {
  // Duplicates in random order, with a unique() query mid-stream: the
  // builder deduplicates in place on demand, then keeps appending.
  Rng rng(7);
  const int n = 16;
  std::vector<ExperimentKey> unique_keys;
  for (const Triplet& t : all_oriented_triplets(n))
    for (const Bytes m : {Bytes(0), Bytes(32768)})
      unique_keys.push_back(ExperimentKey::one_to_two(t, m, 0));
  for (const auto& [i, j] : all_pairs(n))
    unique_keys.push_back(ExperimentKey::roundtrip(i, j, 1024, 1024));
  std::sort(unique_keys.begin(), unique_keys.end());

  std::vector<ExperimentKey> requests;
  for (const ExperimentKey& k : unique_keys) {
    const int copies = int(rng.uniform_int(1, 3));
    for (int c = 0; c < copies; ++c) {
      // A symmetric round-trip asked for from the other end is the same
      // experiment.
      if (k.kind == ExperimentKind::kRoundtrip && c == 1)
        requests.push_back(
            ExperimentKey::roundtrip(k.b, k.a, k.m_fwd, k.m_back));
      else
        requests.push_back(k);
    }
  }
  shuffle(requests, rng);

  const sim::Topology topo =
      sim::make_multicore_cluster(2, 2, 4).topology;
  PlanBuilder interleaved(&topo);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    interleaved.require(requests[r]);
    if (r == requests.size() / 3) {
      EXPECT_LE(interleaved.unique(), unique_keys.size());
    }
  }
  EXPECT_EQ(interleaved.requests(), requests.size());
  EXPECT_EQ(interleaved.unique(), unique_keys.size());

  PlanBuilder presorted(&topo);
  for (const ExperimentKey& k : unique_keys) presorted.require(k);
  const ExperimentPlan got = interleaved.build(true);
  EXPECT_EQ(got.deduplicated, requests.size() - unique_keys.size());
  EXPECT_EQ(got.experiments(), unique_keys.size());
  ExperimentPlan want = presorted.build(true);
  want.requested = got.requested;
  want.deduplicated = got.deduplicated;
  expect_same_plan(got, want, "interleaved vs presorted");
}

// --------------------------------------------------------------- store --

TEST(MeasurementStoreTest, FirstWriteWins) {
  MeasurementStore store;
  const auto key = ExperimentKey::roundtrip(0, 1, 0, 0);
  store.insert(key, 1.5);
  store.insert(key, 9.9);  // a re-measurement must not perturb prior fits
  EXPECT_EQ(store.at(key), 1.5);
  EXPECT_EQ(store.size(), 1u);
}

TEST(MeasurementStoreTest, HostileNestingInFileFailsCleanly) {
  // A measurements file holding a 100k-deep array must come back as a
  // clean lmo::Error naming the file — not a stack overflow. This is the
  // end-to-end check of the JSON parser's depth guard: load() is the one
  // path that feeds attacker-controllable bytes into the parser.
  const std::string path = testing::TempDir() + "lmo_depth_bomb.json";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    for (int i = 0; i < 100000; ++i) std::fputc('[', f);
    std::fclose(f);
  }
  try {
    (void)MeasurementStore::load(path);
    FAIL() << "depth bomb loaded";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("nesting"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(MeasurementStoreTest, CountsHitsAndMisses) {
  MeasurementStore store;
  const auto key = ExperimentKey::send_overhead(0, 1, 256);
  EXPECT_FALSE(store.lookup(key).has_value());
  store.insert(key, 2.0);
  EXPECT_TRUE(store.lookup(key).has_value());
  EXPECT_EQ(store.hits(), 1u);
  EXPECT_EQ(store.misses(), 1u);
}

TEST(MeasurementStoreTest, AtThrowsNamingTheExperiment) {
  const MeasurementStore store;
  try {
    (void)store.at(ExperimentKey::saturation_gap(2, 3, 1024, 48));
    FAIL() << "expected lmo::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("gap"), std::string::npos)
        << e.what();
  }
}

TEST(MeasurementStoreTest, JsonRoundTripIsBitExact) {
  MeasurementStore store;
  store.set_cluster(16, 42);
  // Values chosen to break any formatting that rounds: non-representable
  // decimals, tiny magnitudes, and long mantissas.
  const std::vector<std::pair<ExperimentKey, double>> entries{
      {ExperimentKey::roundtrip(0, 1, 0, 0), 0.1 + 0.2},
      {ExperimentKey::roundtrip(0, 1, 1024, 1024), 1.0 / 3.0},
      {ExperimentKey::send_overhead(0, 1, 256), 2.5e-17},
      {ExperimentKey::one_to_two({0, 1, 2}, 4096, 0), 0.00012207031249999998},
      {ExperimentKey::gather_observation(0, 8192, 3), 3.141592653589793},
  };
  for (const auto& [k, v] : entries) store.insert(k, v);

  const MeasurementStore back =
      MeasurementStore::from_json(obs::Json::parse(store.to_json().dump()));
  EXPECT_EQ(back.size(), store.size());
  EXPECT_EQ(back.cluster_size(), 16);
  EXPECT_EQ(back.cluster_seed(), 42u);
  for (const auto& [k, v] : entries) {
    const double r = back.at(k);
    EXPECT_EQ(std::memcmp(&r, &v, sizeof(double)), 0)
        << k.describe() << ": " << r << " != " << v;
  }
}

// ----------------------------------------------------- caching wrapper --

TEST(CachingExperimenterTest, OfflineMissThrows) {
  MeasurementStore store;
  store.insert(ExperimentKey::send_overhead(0, 1, 256), 1e-4);
  CachingExperimenter offline(store, 4);
  EXPECT_EQ(offline.send_overhead(0, 1, 256), 1e-4);
  EXPECT_EQ(offline.cache_hits(), 1u);
  EXPECT_EQ(offline.runs(), 0u);
  EXPECT_THROW((void)offline.send_overhead(0, 2, 256), Error);
  EXPECT_THROW((void)offline.observe_gather(0, 1024), Error);
}

TEST(CachingExperimenterTest, OfflineNeedsAClusterSize) {
  const MeasurementStore store;  // no provenance recorded
  EXPECT_THROW(CachingExperimenter{store}, Error);
}

// --------------------------------------------------------------- suite --

/// Trimmed-but-complete measurement settings: every experiment converges
/// in exactly two repetitions, PLogP's ladder stops at 2KB with bisection
/// disabled, and the empirical sweeps take 3 samples at 2 sizes. Small
/// enough to run the full five-model campaign on 16 nodes in a test.
mpib::MeasureOptions quick_measure() {
  mpib::MeasureOptions m;
  m.min_reps = 2;
  m.max_reps = 2;
  m.rel_err = 10.0;
  return m;
}

SuiteOptions quick_suite() {
  SuiteOptions opts;
  opts.plogp.max_size = 2048;
  opts.plogp.tolerance = 1e9;  // no data-dependent bisection
  opts.plogp.saturation_count = 8;
  opts.loggp.small_size = 1024;
  opts.loggp.large_size = 2048;
  opts.loggp.saturation_count = 8;
  opts.empirical.observations_per_size = 3;
  opts.empirical.sizes = {16 * 1024, 64 * 1024};
  return opts;
}

void expect_same_doubles(const std::vector<double>& a,
                         const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i], b[i]) << what << "[" << i << "]";
}

void expect_same_table(const models::PairTable& a, const models::PairTable& b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (int i = 0; i < a.size(); ++i)
    for (int j = 0; j < a.size(); ++j)
      EXPECT_EQ(a(i, j), b(i, j)) << what << "(" << i << "," << j << ")";
}

void expect_same_piecewise(const stats::PiecewiseLinear& a,
                           const stats::PiecewiseLinear& b, const char* what) {
  expect_same_doubles(a.xs(), b.xs(), what);
  expect_same_doubles(a.ys(), b.ys(), what);
}

void expect_same_suite_fits(const SuiteReport& a, const SuiteReport& b) {
  // Hockney.
  expect_same_table(a.hockney.hetero.alpha, b.hockney.hetero.alpha,
                    "hockney.alpha");
  expect_same_table(a.hockney.hetero.beta, b.hockney.hetero.beta,
                    "hockney.beta");
  EXPECT_EQ(a.hockney.homogeneous.alpha, b.hockney.homogeneous.alpha);
  EXPECT_EQ(a.hockney.homogeneous.beta, b.hockney.homogeneous.beta);
  // LogP/LogGP.
  expect_same_table(a.loggp.hetero.L, b.loggp.hetero.L, "loggp.L");
  expect_same_table(a.loggp.hetero.o, b.loggp.hetero.o, "loggp.o");
  expect_same_table(a.loggp.hetero.g, b.loggp.hetero.g, "loggp.g");
  expect_same_table(a.loggp.hetero.G, b.loggp.hetero.G, "loggp.G");
  EXPECT_EQ(a.loggp.logp.L, b.loggp.logp.L);
  // PLogP.
  EXPECT_EQ(a.plogp.averaged.L, b.plogp.averaged.L);
  expect_same_piecewise(a.plogp.averaged.g, b.plogp.averaged.g, "plogp.g");
  expect_same_piecewise(a.plogp.averaged.os, b.plogp.averaged.os, "plogp.os");
  expect_same_piecewise(a.plogp.averaged.orr, b.plogp.averaged.orr,
                        "plogp.or");
  // LMO.
  expect_same_doubles(a.lmo.params.C, b.lmo.params.C, "lmo.C");
  expect_same_doubles(a.lmo.params.t, b.lmo.params.t, "lmo.t");
  expect_same_table(a.lmo.params.L, b.lmo.params.L, "lmo.L");
  expect_same_table(a.lmo.params.inv_beta, b.lmo.params.inv_beta,
                    "lmo.inv_beta");
  // Empirical.
  EXPECT_EQ(a.gather.empirical.m1, b.gather.empirical.m1);
  EXPECT_EQ(a.gather.empirical.m2, b.gather.empirical.m2);
  EXPECT_EQ(a.scatter.empirical.detected, b.scatter.empirical.detected);
  EXPECT_EQ(a.scatter.empirical.leap_threshold,
            b.scatter.empirical.leap_threshold);
  EXPECT_EQ(a.scatter.empirical.leap_s, b.scatter.empirical.leap_s);
}

TEST(SuiteTest, SharedStoreSavesAtLeastThirtyPercentOfRuns) {
  const auto cfg = sim::make_paper_cluster(/*seed=*/1);  // 16-node Table I
  const SuiteOptions opts = quick_suite();

  // Five independent estimations, each from scratch. The empirical
  // extraction has no LMO parameters of its own, so standalone it must
  // estimate LMO first — that is precisely the duplication the shared
  // store exists to remove.
  std::uint64_t independent_runs = 0;
  {
    vmpi::World world(cfg);
    SimExperimenter ex(world, quick_measure());
    (void)estimate_hockney(ex, opts.hockney);
    (void)estimate_loggp(ex, opts.loggp);
    (void)estimate_plogp(ex, opts.plogp);
    (void)estimate_lmo(ex, opts.lmo);
    const auto lmo_for_empirical = estimate_lmo(ex, opts.lmo);
    (void)estimate_gather_empirical(ex, lmo_for_empirical.params,
                                    opts.empirical);
    (void)estimate_scatter_empirical(ex, lmo_for_empirical.params,
                                     opts.empirical);
    independent_runs = ex.runs();
  }

  vmpi::World world(cfg);
  SimExperimenter ex(world, quick_measure());
  MeasurementStore store;
  const SuiteReport suite = estimate_model_suite(ex, store, opts);

  ASSERT_GT(independent_runs, 0u);
  EXPECT_EQ(suite.world_runs, ex.runs());
  EXPECT_GT(suite.deduplicated, 0u) << "cross-estimator requests must overlap";
  const double savings =
      1.0 - double(suite.world_runs) / double(independent_runs);
  EXPECT_GE(savings, 0.30) << "shared store saved only " << savings * 100
                           << "% (" << suite.world_runs << " vs "
                           << independent_runs << " runs)";
}

TEST(SuiteTest, SavedStoreRefitsOfflineBitIdentical) {
  const auto cfg = sim::make_random_cluster(6, /*seed=*/77);
  const SuiteOptions opts = quick_suite();

  vmpi::World world(cfg);
  SimExperimenter ex(world, quick_measure());
  MeasurementStore store;
  store.set_cluster(cfg.size(), 77);
  const SuiteReport cold = estimate_model_suite(ex, store, opts);
  EXPECT_EQ(store.size(), std::size_t(cold.measured));

  const std::string path = testing::TempDir() + "lmo_measurements_test.json";
  store.save(path);
  const MeasurementStore loaded = MeasurementStore::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.size(), store.size());
  EXPECT_EQ(loaded.cluster_size(), cfg.size());

  const SuiteReport refit = fit_model_suite(loaded, cfg.size(), opts);
  expect_same_suite_fits(cold, refit);
}

TEST(SuiteTest, WarmStoreMeasuresNothingAndFitsBitIdentical) {
  const auto cfg = sim::make_random_cluster(5, /*seed=*/5);
  const SuiteOptions opts = quick_suite();

  MeasurementStore store;
  SuiteReport cold;
  {
    vmpi::World world(cfg);
    SimExperimenter ex(world, quick_measure());
    cold = estimate_model_suite(ex, store, opts);
    EXPECT_GT(cold.world_runs, 0u);
  }
  // Same campaign against the warm store, on a fresh world: every key is
  // served from the cache, so nothing runs and the fits cannot drift.
  vmpi::World world(cfg);
  SimExperimenter ex(world, quick_measure());
  const SuiteReport warm = estimate_model_suite(ex, store, opts);
  EXPECT_EQ(warm.measured, 0u);
  EXPECT_EQ(warm.world_runs, 0u);
  EXPECT_EQ(warm.cached, std::size_t(cold.measured));
  expect_same_suite_fits(cold, warm);
}

// ---------------------------------------------------- snapshot + races --

TEST(StoreSnapshotTest, ViewMatchesStoreAndSurvivesMutation) {
  MeasurementStore store;
  store.set_cluster(8, 42);
  const auto k1 = ExperimentKey::roundtrip(0, 1, 1024, 1024);
  const auto k2 = ExperimentKey::roundtrip(2, 3, 4096, 4096);
  const auto bad = ExperimentKey::roundtrip(4, 5, 64, 64);
  store.insert(k1, 1.5e-4);
  store.insert(k2, 3.25e-4);
  store.quarantine(bad, 9.0e-4);

  const auto snap = store.snapshot();
  EXPECT_EQ(snap->size(), 2u);
  EXPECT_EQ(snap->cluster_size, 8);
  EXPECT_EQ(snap->cluster_seed, 42u);
  EXPECT_EQ(snap->find(k1), std::optional<double>(1.5e-4));
  EXPECT_EQ(snap->find(k2), std::optional<double>(3.25e-4));
  EXPECT_FALSE(snap->find(bad).has_value());  // quarantined: clean miss
  EXPECT_EQ(snap->find_suspect(bad), std::optional<double>(9.0e-4));
  EXPECT_TRUE(std::is_sorted(snap->keys.begin(), snap->keys.end()));

  // Mutating the store does not touch the published view...
  store.insert(bad, 2.0e-4);
  EXPECT_EQ(snap->size(), 2u);
  EXPECT_FALSE(snap->find(bad).has_value());
  // ...but the next snapshot() sees the new state (quarantine lifted).
  const auto fresh = store.snapshot();
  EXPECT_EQ(fresh->find(bad), std::optional<double>(2.0e-4));
  EXPECT_FALSE(fresh->find_suspect(bad).has_value());
  EXPECT_GT(fresh->version, snap->version);
}

TEST(StoreSnapshotTest, UnchangedStoreReturnsTheCachedView) {
  MeasurementStore store;
  store.insert(ExperimentKey::roundtrip(0, 1, 256, 256), 1.0e-4);
  const auto a = store.snapshot();
  const auto b = store.snapshot();
  EXPECT_EQ(a.get(), b.get());  // same published object, not a copy
  store.insert(ExperimentKey::roundtrip(0, 2, 256, 256), 2.0e-4);
  EXPECT_NE(store.snapshot().get(), a.get());
}

TEST(StoreSnapshotTest, VersionTracksEveryMutation) {
  MeasurementStore store;
  const std::uint64_t v0 = store.version();
  const auto key = ExperimentKey::roundtrip(0, 1, 512, 512);
  store.insert(key, 1.0e-4);
  const std::uint64_t v1 = store.version();
  EXPECT_GT(v1, v0);
  store.insert(key, 9.0e-4);  // first-write-wins no-op still counts a call
  store.quarantine(key, 5.0e-4);  // rejected (clean value): no bump
  EXPECT_EQ(store.quarantined_count(), 0u);
  store.set_cluster(4, 7);
  EXPECT_GT(store.version(), v1);
}

// The headline fix: concurrent readers on a store under active mutation.
// Before the shared_mutex/snapshot rework every reader serialized on one
// coarse mutex; now N threads hammer lookup/contains/at/snapshot while a
// writer inserts and quarantines, and TSan (the CI ThreadSanitizer job
// runs every *Parallel* suite) must see no race — with sane results
// throughout: a clean value, once published, is immutable.
TEST(StoreParallelTest, ReadersNeverBlockOrRaceWithWriters) {
  MeasurementStore store;
  store.set_cluster(16, 1);
  constexpr int kKeys = 256;
  auto key_at = [](int k) {
    return ExperimentKey::roundtrip(k % 15, 15, Bytes(64 + k), Bytes(64));
  };
  auto value_at = [](int k) { return 1.0e-4 + 1.0e-6 * k; };
  for (int k = 0; k < kKeys / 4; ++k) store.insert(key_at(k), value_at(k));

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  auto reader = [&] {
    std::uint64_t last_version = 0;
    while (!stop.load(std::memory_order_acquire)) {
      for (int k = 0; k < kKeys; ++k) {
        const auto seen = store.lookup(key_at(k));
        if (seen && *seen != value_at(k)) bad.fetch_add(1);
        if (store.contains(key_at(k)) && !store.lookup(key_at(k))) {
          bad.fetch_add(1);
        }
      }
      const auto snap = store.snapshot();
      if (snap->version < last_version) bad.fetch_add(1);
      last_version = snap->version;
      for (std::size_t i = 0; i < snap->size(); ++i) {
        if (!snap->find(snap->keys[i])) bad.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) readers.emplace_back(reader);

  // The writer interleaves inserts, duplicate inserts (first-write-wins
  // no-ops), and quarantines of never-cleaned keys.
  for (int k = 0; k < kKeys; ++k) {
    store.insert(key_at(k), value_at(k));
    store.insert(key_at(k), 99.0);  // must lose
    store.quarantine(
        ExperimentKey::send_overhead(k % 15, 15, Bytes(64 + k)), 5.0e-4);
    if (k % 16 == 0) (void)store.snapshot();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(store.size(), std::size_t(kKeys));
  EXPECT_EQ(store.quarantined_count(), std::size_t(kKeys));
  const auto final_snap = store.snapshot();
  EXPECT_EQ(final_snap->size(), std::size_t(kKeys));
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(store.at(key_at(k)), value_at(k));
  }
}

}  // namespace
}  // namespace lmo::estimate
