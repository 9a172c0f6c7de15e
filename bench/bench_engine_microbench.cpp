// Engine microbenchmarks (google-benchmark): raw event throughput of the
// discrete-event core, point-to-point round throughput of the vmpi layer,
// collective simulation rates, experiment planning, end-to-end estimation
// costs, and the tuner's model pricing (schedule replay, decide).
//
// The binary also counts global operator new calls (g_alloc_count below) and
// reports them as per-item counters: `allocs_per_event` on BM_EngineEvents
// must be 0.000 — the engine's indexed heap, Action's inline captures, the
// OpState arena, and the coroutine frame pool exist precisely so the
// steady-state schedule/fire cycle never touches the allocator — and
// `allocs_per_round` on BM_PingPongRound tracks the per-round residue
// (benchmark-side program vectors; the simulation itself is allocation-free
// after warm-up). `allocs_per_replay` on BM_ScheduleReplay must be 0 too:
// the tuner's schedule evaluators keep their replay buffers per thread.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "coll/collectives.hpp"
#include "core/predictions.hpp"
#include "core/tuner.hpp"
#include "estimate/experimenter.hpp"
#include "estimate/hockney_estimator.hpp"
#include "estimate/lmo_estimator.hpp"
#include "estimate/measurement_store.hpp"
#include "estimate/plan.hpp"
#include "obs/flight_recorder.hpp"
#include "simnet/cluster.hpp"
#include "simnet/engine.hpp"
#include "util/rng.hpp"
#include "vmpi/world.hpp"

namespace {
std::atomic<std::int64_t> g_alloc_count{0};
}  // namespace

// Count every heap allocation in the process. Relaxed ordering: the
// benchmarks are single-threaded; the atomic only guards against the
// library's background use.
void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
// GCC flags the sized form as mismatched with the replaced new; every new
// above allocates with malloc, so free is the right counterpart.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

using namespace lmo;

void BM_EngineEvents(benchmark::State& state) {
  const int batch = int(state.range(0));
  sim::Engine engine;
  // A flight recorder rides along on the hot path: its ring is allocated
  // here, before the counted region, so the allocs_per_event == 0
  // invariant now also proves record() never touches the allocator.
  obs::FlightRecorder flight;
  engine.set_flight_recorder(&flight);
  // Warm the engine's heap/slab vectors to the high-water mark so the
  // measured (and allocation-counted) region is the steady state.
  for (int e = 0; e < batch; ++e) engine.schedule_at(SimTime(e), [] {});
  engine.run();
  engine.reset();

  std::int64_t events = 0;
  const std::int64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    engine.reset();
    for (int e = 0; e < batch; ++e)
      engine.schedule_at(SimTime(e), [] {});
    engine.run();
    events += batch;
  }
  const std::int64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  state.SetItemsProcessed(events);
  state.counters["allocs_per_event"] =
      benchmark::Counter(double(allocs) / double(events));
}
BENCHMARK(BM_EngineEvents)->Arg(1024)->Arg(16384);

void BM_PingPongRound(benchmark::State& state) {
  auto cfg = sim::make_paper_cluster();
  vmpi::World world(cfg);
  // As above: session-level flight events must not add per-round allocs.
  obs::FlightRecorder flight;
  world.set_flight_recorder(&flight);
  std::int64_t rounds = 0;
  // One warm-up round: engine vectors, session scratch, arena chunks, and
  // frame-pool blocks all reach steady state.
  {
    auto programs = vmpi::idle_programs(world.size());
    programs[0] = [](vmpi::Comm& c) -> vmpi::Task {
      co_await c.send(1, 1024);
      co_await c.recv(1);
    };
    programs[1] = [](vmpi::Comm& c) -> vmpi::Task {
      co_await c.recv(0);
      co_await c.send(0, 1024);
    };
    benchmark::DoNotOptimize(world.run(programs));
  }
  const std::int64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    auto programs = vmpi::idle_programs(world.size());
    programs[0] = [](vmpi::Comm& c) -> vmpi::Task {
      co_await c.send(1, 1024);
      co_await c.recv(1);
    };
    programs[1] = [](vmpi::Comm& c) -> vmpi::Task {
      co_await c.recv(0);
      co_await c.send(0, 1024);
    };
    benchmark::DoNotOptimize(world.run(programs));
    ++rounds;
  }
  const std::int64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  state.SetItemsProcessed(rounds);
  state.counters["allocs_per_round"] =
      benchmark::Counter(double(allocs) / double(rounds));
}
BENCHMARK(BM_PingPongRound);

void BM_LinearScatterSim(benchmark::State& state) {
  auto cfg = sim::make_paper_cluster();
  vmpi::World world(cfg);
  const Bytes m = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.run(coll::spmd(
        world.size(),
        [m](vmpi::Comm& c) { return coll::linear_scatter(c, 0, m); })));
  }
  state.SetItemsProcessed(state.iterations() * (world.size() - 1));
}
BENCHMARK(BM_LinearScatterSim)->Arg(1024)->Arg(131072);

void BM_BinomialScatterSim(benchmark::State& state) {
  auto cfg = sim::make_paper_cluster();
  vmpi::World world(cfg);
  const Bytes m = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.run(coll::spmd(
        world.size(),
        [m](vmpi::Comm& c) { return coll::binomial_scatter(c, 0, m); })));
  }
  state.SetItemsProcessed(state.iterations() * (world.size() - 1));
}
BENCHMARK(BM_BinomialScatterSim)->Arg(1024)->Arg(131072);

void BM_HockneyEstimation(benchmark::State& state) {
  auto cfg = sim::make_random_cluster(int(state.range(0)), 7);
  for (auto _ : state) {
    vmpi::World world(cfg);
    estimate::SimExperimenter ex(world);
    benchmark::DoNotOptimize(estimate::estimate_hockney(ex));
  }
}
BENCHMARK(BM_HockneyEstimation)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// The exact LMO stage-2 plan (every oriented one-to-two triplet, two probe
// sizes): require() plus build(), on the flat 48-node cluster (arg 0) and
// the contended 2x3x4 multicore tree (arg 1). Stage 1 is not measured:
// its round-trip keys get synthetic values, which fix the orientations.
void BM_PlanBuild(benchmark::State& state) {
  const sim::ClusterConfig cfg = state.range(0) == 0
                                     ? sim::make_random_cluster(48, 7)
                                     : sim::make_multicore_cluster(2, 3, 4);
  const int n = cfg.size();
  estimate::LmoOptions opts;
  opts.topology = cfg.topology.empty() ? nullptr : &cfg.topology;
  estimate::MeasurementStore stage1;
  {
    estimate::PlanBuilder builder(opts.topology);
    estimate::plan_lmo_roundtrips(builder, n, opts);
    Rng rng(7);
    for (const auto& round : builder.build(true).rounds)
      for (const auto& key : round.keys)
        stage1.insert(key, rng.uniform(1e-4, 2e-4));
  }
  std::size_t keys = 0, rounds = 0;
  for (auto _ : state) {
    estimate::PlanBuilder builder(opts.topology);
    estimate::plan_lmo_one_to_two(builder, stage1, n, opts);
    const estimate::ExperimentPlan plan = builder.build(true);
    keys = plan.experiments();
    rounds = plan.rounds.size();
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(keys));
  state.counters["keys"] = double(keys);
  state.counters["rounds"] = double(rounds);
}
BENCHMARK(BM_PlanBuild)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// The ground-truth LMO parameters of a simulated cluster.
core::LmoParams ground_truth_params(const sim::ClusterConfig& cfg) {
  const auto gt = sim::ground_truth(cfg);
  const int n = cfg.size();
  core::LmoParams p;
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

/// Flat 48-node cluster (arg 0) or the contended 2x3x4 multicore tree
/// (arg 1), the two platforms the tuner benches price on.
sim::ClusterConfig tuner_platform(std::int64_t arg) {
  return arg == 0 ? sim::make_random_cluster(48, 7)
                  : sim::make_multicore_cluster(2, 3, 4);
}

// One schedule-evaluator call: an unsegmented binomial bcast of 64 KiB on
// the contended 2x3x4 tree (arg 0, the mapping hill-climb's evaluation on
// a hierarchy) or a 2 KiB-segmented chain bcast of 64 KiB on flat 48
// (arg 1, 32 pipelined chunks). Allocations are counted after one warm-up
// call has grown the per-thread replay buffers.
void BM_ScheduleReplay(benchmark::State& state) {
  const bool chain = state.range(0) == 1;
  const sim::ClusterConfig cfg = tuner_platform(chain ? 0 : 1);
  const core::LmoParams p = ground_truth_params(cfg);
  const sim::Topology* topo = cfg.topology.empty() ? nullptr : &cfg.topology;
  const trees::TreeKind kind =
      chain ? trees::TreeKind::kChain : trees::TreeKind::kBinomial;
  const Bytes segment = chain ? 2 * 1024 : 0;
  auto replay = [&] {
    return core::tree_bcast_time(p, kind, 0, 64 * 1024, {}, segment, topo);
  };
  benchmark::DoNotOptimize(replay());
  std::int64_t replays = 0;
  const std::int64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(replay());
    ++replays;
  }
  const std::int64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  state.SetItemsProcessed(replays);
  state.counters["allocs_per_replay"] =
      benchmark::Counter(double(allocs) / double(replays));
}
BENCHMARK(BM_ScheduleReplay)->Arg(0)->Arg(1);

// One Tuner::decide of a 64 KiB bcast: every candidate priced, including
// the mapping hill-climb, on flat 48 (arg 0) or the contended 2x3x4 tree
// (arg 1).
void BM_TunerDecide(benchmark::State& state) {
  const sim::ClusterConfig cfg = tuner_platform(state.range(0));
  core::TunerOptions opts;
  opts.topology = cfg.topology.empty() ? nullptr : &cfg.topology;
  const core::Tuner tuner(ground_truth_params(cfg), core::GatherEmpirical{},
                          opts);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        tuner.decide(core::CollectiveKind::kBcast, 0, 64 * 1024));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TunerDecide)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
