// Scale benchmark: the SoA hot state and the sampled estimator at large N.
//
// For N in {16, 256, 1024, 4096, 16384, 65536} (multicore shapes, block
// placement; --max-ranks, default 4096, bounds the series, and a value
// outside [16, 65536] is a usage error, exit 2):
//  * setup   — wall time to construct the simulation world (fabric SoA
//              arrays, topology caches, rank programs),
//  * session — wall time to construct one more SimSession from the
//              world's shared config: the set-up every measured
//              repetition pays,
//  * micro   — engine events/s over a binomial broadcast observed on the
//              anchor session,
//  * macro   — wall time of the sampled LMO scale fit (estimate_scale_lmo:
//              a few triplets per tree level instead of O(N^3) experiments),
//  * peak RSS — getrusage high water (run in ascending N so each row's
//              value is attributable to its N; sub-quadratic growth here is
//              the acceptance bar for the profile/SoA refactor).
// Writes an lmo.bench/1 record to --out (default BENCH_scale.json), one
// metric per row and field, named N=<ranks>.<field>: work counts are
// gated exactly, timings and RSS by a 50% worse-direction threshold
// (`tools/bench_report.py OLD NEW`).
#include <sys/resource.h>

#include <chrono>
#include <iostream>
#include <iterator>

#include "coll/collectives.hpp"
#include "common.hpp"
#include "estimate/scale_estimator.hpp"
#include "util/error.hpp"

using namespace lmo;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

long peak_rss_kb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // KiB on Linux
}

struct Shape {
  int switches, nodes, cores;
  [[nodiscard]] int ranks() const { return switches * nodes * cores; }
};

}  // namespace

int run(int argc, char** argv) {
  const Cli cli = bench::parse_bench_cli(argc, argv, {"max-ranks", "out"});
  const int max_ranks = int(cli.get_int("max-ranks", 4096));
  const std::string out = cli.get("out", "BENCH_scale.json");
  const auto seed = std::uint64_t(cli.get_int("seed", 1));
  const Bytes bcast_bytes = 4 * 1024;

  const Shape shapes[] = {{1, 4, 4},    {4, 8, 8},    {4, 16, 16},
                          {8, 32, 16},  {32, 32, 16}, {128, 32, 16}};
  const int smallest = shapes[0].ranks();
  const int largest = std::end(shapes)[-1].ranks();
  if (max_ranks < smallest || max_ranks > largest) {
    std::cerr << "error: --max-ranks " << max_ranks << " is outside the "
              << "series (" << smallest << ".." << largest << " ranks)\n";
    return 2;
  }

  Table table({"ranks", "setup [ms]", "session [ms]", "events",
               "events/s [M]", "scale fit [ms]", "triplets",
               "peak RSS [MB]"});
  // Work counts are deterministic per seed; timings and RSS are
  // host-noisy.
  using bench::Better;
  using bench::Gate;
  std::vector<bench::BenchMetric> metrics;
  for (const Shape& shape : shapes) {
    const int n = shape.ranks();
    if (n > max_ranks) continue;

    const auto t_setup = std::chrono::steady_clock::now();
    sim::ClusterConfig cfg = sim::make_multicore_cluster(
        shape.switches, shape.nodes, shape.cores, seed);
    vmpi::World world(cfg);
    estimate::SimExperimenter ex(world, bench::bench_measure_options());
    const double setup_s = seconds_since(t_setup);

    double session_s = 0.0;
    {
      const auto t_session = std::chrono::steady_clock::now();
      const vmpi::SimSession session(world.shared_config());
      session_s = seconds_since(t_session);
    }

    // Micro: one anchor-session broadcast; events/s from the session's own
    // engine accounting (host_ns counts time inside engine runs only).
    const vmpi::SessionMetrics before = world.metrics();
    (void)ex.observe_global([bcast_bytes](vmpi::Comm& c) {
      return coll::binomial_bcast(c, 0, bcast_bytes);
    });
    const vmpi::SessionMetrics after = world.metrics();
    const double events = double(after.events - before.events);
    const double engine_s = double(after.host_ns - before.host_ns) * 1e-9;
    const double events_per_s = engine_s > 0 ? events / engine_s : 0.0;

    // Macro: the sampled scale fit end to end (two experiment stages plus
    // the per-level/per-profile aggregation).
    estimate::MeasurementStore store;
    store.set_cluster(cfg.size(), cfg.seed);
    estimate::ScaleOptions sopts;
    sopts.cluster = &cfg;
    const auto t_fit = std::chrono::steady_clock::now();
    const auto fit = estimate::estimate_scale_lmo(ex, store, sopts);
    const double fit_s = seconds_since(t_fit);

    const long rss_kb = peak_rss_kb();
    table.add_row({std::to_string(n), format_fixed(setup_s * 1e3, 2),
                   format_fixed(session_s * 1e3, 3), format_fixed(events, 0),
                   format_fixed(events_per_s * 1e-6, 2),
                   format_fixed(fit_s * 1e3, 2),
                   std::to_string(fit.triplets.size()),
                   format_fixed(double(rss_kb) / 1024.0, 1)});
    const std::string row = "N=" + std::to_string(n) + ".";
    auto exact = [&](const char* field, double value) {
      metrics.push_back(
          {row + field, value, "count", Better::kLower, Gate::kExact});
    };
    auto noisy = [&](const char* field, double value, const char* unit,
                     Better better) {
      metrics.push_back({row + field, value, unit, better, Gate::kThreshold});
    };
    noisy("setup_s", setup_s, "s", Better::kLower);
    noisy("session_construct_s", session_s, "s", Better::kLower);
    exact("events", events);
    noisy("events_per_s", events_per_s, "1/s", Better::kHigher);
    noisy("scale_fit_s", fit_s, "s", Better::kLower);
    exact("triplets", double(fit.triplets.size()));
    exact("roundtrip_experiments", double(fit.roundtrip_experiments));
    exact("one_to_two_experiments", double(fit.one_to_two_experiments));
    exact("store_entries", double(store.size()));
    noisy("peak_rss_kb", double(rss_kb), "KiB", Better::kLower);
  }
  bench::emit(table, cli,
              "Scale — SoA state and sampled fit, N up to " +
                  std::to_string(max_ranks));

  obs::Json workload = obs::Json::object();
  workload["seed"] = std::int64_t(seed);
  bench::write_bench_record(out, "bench_scale", std::move(workload), metrics);
  std::cout << "\nscale series: " << out << "\n";
  return bench::finish_run();
}

int main(int argc, char** argv) {
  return lmo::bench::guarded_main([&] { return run(argc, argv); });
}
