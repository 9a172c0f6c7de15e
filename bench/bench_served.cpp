// bench_served — throughput of the estimation-service hot paths, and the
// proof that MeasurementStore readers are no longer serialized.
//
// One serve::Service is stood up on the Table-I cluster (full estimation
// campaign), then three paths are timed:
//
//  * service_qps — (i, j, M) query triples per second through the full
//    request path: JSON parse -> BatchPredictor -> JSON response, exactly
//    what one lmo_served client experiences;
//  * kernel_qps — the raw batch-predict loop, the ceiling the request
//    path amortizes toward as batches grow;
//  * the reader benchmark — N threads reading the warm store through the
//    pre-fix path (one coarse mutex around every map lookup — what
//    measurement_store.hpp shipped before) versus the published immutable
//    snapshot. multi_reader_scaling = snapshot qps / coarse-lock qps at
//    equal thread count: > 1 means readers stopped serializing. (On a
//    multi-core host the snapshot side additionally scales with threads;
//    scaling_vs_single records that, gate-free, since CI cores vary.)
//
// Before timing anything, the bench asserts bit-identity of the served
// "lmo" predictions against scalar LmoParams::pt2pt — throughput of wrong
// answers is not a result.
//
// Writes an lmo.bench/1 record to --out: the workload knobs plus every
// throughput, gated against a baseline by `tools/bench_report.py OLD NEW`
// (a worse-direction move past 50% fails). The absolute acceptance bars
// live here only: --min-qps (service_qps, default 10000) and
// --min-scaling (multi_reader_scaling, default 1.0, strict); 0 disables
// either, and a NaN fails both.
#include <atomic>
#include <chrono>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/batch_predict.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"

using namespace lmo;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Run `body(thread_index)` on `threads` threads, released together;
/// returns the wall seconds from release to the last finisher.
double timed_threads(int threads, const std::function<void(int)>& body) {
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(std::size_t(threads));
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body(t);
    });
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& th : pool) th.join();
  return seconds_since(t0);
}

}  // namespace

int run(int argc, char** argv) {
  const Cli cli = bench::parse_bench_cli(
      argc, argv, {"batch", "batches", "threads", "reader-iters", "min-qps",
                   "min-scaling", "out"});
  const std::uint64_t seed = std::uint64_t(cli.get_int("seed", 1));
  const int batch = int(cli.get_int("batch", 2048));
  const int batches = int(cli.get_int("batches", 16));
  const int threads = int(cli.get_int("threads", 4));
  const long reader_iters = cli.get_int("reader-iters", 200000);
  const double min_qps = cli.get_double("min-qps", 10000.0);
  const double min_scaling = cli.get_double("min-scaling", 1.0);
  const std::string out = cli.get("out", "BENCH_served.json");
  LMO_CHECK_MSG(batch > 0 && batches > 0 && threads > 0 && reader_iters > 0,
                "--batch, --batches, --threads, and --reader-iters must all "
                "be positive");

  std::cout << "standing up the service (full estimation campaign)...\n";
  serve::ServiceOptions sopts;
  sopts.measure = bench::bench_measure_options();
  serve::Service service(sim::make_paper_cluster(seed), sopts);
  const int n = service.size();

  // One batch of (i, j, M) triples cycling over pairs and sizes, both as
  // a parsed query vector (kernel path) and as a request line (service
  // path).
  std::vector<core::BatchQuery> queries;
  std::string request = R"({"op":"predict","models":["lmo"],"queries":[)";
  for (int k = 0; k < batch; ++k) {
    core::BatchQuery q;
    q.i = k % n;
    q.j = (k % n + 1 + (k / n) % (n - 1)) % n;
    q.m = Bytes(1) << (6 + k % 13);  // 64 B .. 256 KB
    queries.push_back(q);
    if (k > 0) request += ',';
    request += '[' + std::to_string(q.i) + ',' + std::to_string(q.j) + ',' +
               std::to_string(q.m) + ']';
  }
  request += "]}";

  // Correctness before speed: the served batch must equal the scalar
  // model bit for bit.
  const core::BatchPredictor kernel(service.params());
  std::vector<double> served;
  kernel.predict("lmo", queries, served);
  for (std::size_t k = 0; k < queries.size(); ++k)
    LMO_CHECK_MSG(
        served[k] == service.params().pt2pt(queries[k].i, queries[k].j,
                                            queries[k].m),
        "served prediction diverged from scalar pt2pt at query " +
            std::to_string(k));

  // --- service path: full JSON request -> response round trips.
  double service_s = 0.0;
  {
    const auto t0 = std::chrono::steady_clock::now();
    for (int b = 0; b < batches; ++b) {
      const serve::Response r = service.handle_line(request);
      LMO_CHECK_MSG(r.body.find("\"ok\":true") != std::string::npos,
                    "predict request failed: " + r.body.substr(0, 200));
    }
    service_s = seconds_since(t0);
  }
  const double service_qps = double(batch) * batches / service_s;

  // --- raw kernel.
  double kernel_s = 0.0;
  {
    const int reps = batches * 8;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) kernel.predict("lmo", queries, served);
    kernel_s = seconds_since(t0) / (8.0 * batches);
  }
  const double kernel_qps = double(batch) / kernel_s;

  // --- reader serialization: the same warm-store lookups, N threads,
  // through the pre-fix coarse lock vs the published snapshot.
  const auto snap = service.store().snapshot();
  LMO_CHECK_MSG(snap->size() > 0, "campaign left an empty store");
  const std::vector<estimate::ExperimentKey>& keys = snap->keys;
  std::mutex coarse;  // the old MeasurementStore::mu_, reconstructed
  const estimate::MeasurementStore& store = service.store();
  auto read_coarse = [&](int) {
    for (long q = 0; q < reader_iters; ++q) {
      std::lock_guard<std::mutex> lk(coarse);
      (void)store.lookup(keys[std::size_t(q) % keys.size()]);
    }
  };
  auto read_snapshot = [&](int) {
    const auto view = store.snapshot();  // grabbed once, then lock-free
    volatile double sink = 0.0;
    for (long q = 0; q < reader_iters; ++q)
      sink = *view->find(keys[std::size_t(q) % keys.size()]);
    (void)sink;
  };
  const double total = double(reader_iters) * threads;
  const double coarse_qps = total / timed_threads(threads, read_coarse);
  const double snapshot_qps = total / timed_threads(threads, read_snapshot);
  const double snapshot_1t_qps =
      double(reader_iters) / timed_threads(1, read_snapshot);
  const double scaling = snapshot_qps / coarse_qps;

  Table table({"path", "threads", "queries/s"});
  table.add_row({"service (JSON round trip)", "1",
                 format_fixed(service_qps, 0)});
  table.add_row({"kernel (batch)", "1", format_fixed(kernel_qps, 0)});
  table.add_row({"store reads, coarse lock", std::to_string(threads),
                 format_fixed(coarse_qps, 0)});
  table.add_row({"store reads, snapshot", std::to_string(threads),
                 format_fixed(snapshot_qps, 0)});
  bench::emit(table, cli, "Serving-path throughput");
  std::cout << "multi-reader scaling (snapshot vs coarse lock, " << threads
            << " threads): " << format_fixed(scaling, 2) << "x\n";

  obs::Json workload = obs::Json::object();
  workload["cluster_size"] = n;
  workload["store_entries"] = snap->size();
  workload["queries_per_batch"] = batch;
  workload["batches"] = batches;
  workload["threads"] = threads;
  workload["reader_iters"] = reader_iters;
  obs::Json models = obs::Json::array();
  for (const std::string& m : core::BatchPredictor::model_names())
    models.push_back(m);
  workload["models"] = std::move(models);
  // Throughputs are host-noisy: gate only a worse-direction move past
  // half. scaling_vs_single depends on the host's core count: recorded
  // only.
  using bench::Better;
  using bench::Gate;
  bench::write_bench_record(
      out, "bench_served", std::move(workload),
      {{"service_qps", service_qps, "1/s", Better::kHigher, Gate::kThreshold},
       {"kernel_qps", kernel_qps, "1/s", Better::kHigher, Gate::kThreshold},
       {"reader_qps_coarse_lock", coarse_qps, "1/s", Better::kHigher,
        Gate::kThreshold},
       {"reader_qps_snapshot", snapshot_qps, "1/s", Better::kHigher,
        Gate::kThreshold},
       {"multi_reader_scaling", scaling, "ratio", Better::kHigher,
        Gate::kThreshold},
       {"scaling_vs_single", snapshot_qps / snapshot_1t_qps, "ratio",
        Better::kHigher, Gate::kNone}});
  std::cout << "served benchmark: " << out << "\n";

  const int rc = bench::finish_run();
  const auto failures =
      bench::served_bar_failures(service_qps, min_qps, scaling, min_scaling);
  for (const std::string& failure : failures)
    std::cout << "FAIL: " << failure << "\n";
  if (!failures.empty()) return 1;
  return rc;
}

int main(int argc, char** argv) {
  return lmo::bench::guarded_main([&] { return run(argc, argv); });
}
