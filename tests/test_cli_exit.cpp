// Exit-code contract of the installed binaries, pinned end to end by
// actually spawning them:
//   0 — success (including a clean daemon shutdown),
//   1 — named runtime failure, "error: <message>" on stderr,
//   2 — usage error (bad/missing subcommand or required flag).
// No input, however wrong, may abort: a SIGABRT (exit 134) with no
// message is exactly the regression this suite exists to catch.
//
// Binary paths are injected by CMake via LMO_*_BIN compile definitions
// ($<TARGET_FILE:...>), so the suite always tests the binaries built
// alongside it.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <sys/wait.h>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

/// Run a shell command, capturing combined output and the exit code.
RunResult run(const std::string& command) {
  RunResult r;
  std::FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) return r;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) r.output += buf;
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + status;
  return r;
}

void expect_named_failure(const RunResult& r, const std::string& needle) {
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("error: "), std::string::npos) << r.output;
  EXPECT_NE(r.output.find(needle), std::string::npos) << r.output;
}

// ------------------------------------------------------------ lmo_tool --

TEST(LmoToolExitTest, NoSubcommandIsUsage) {
  EXPECT_EQ(run(LMO_TOOL_BIN).exit_code, 2);
  EXPECT_EQ(run(std::string(LMO_TOOL_BIN) + " frobnicate").exit_code, 2);
}

TEST(LmoToolExitTest, MissingClusterFileFailsNamed) {
  expect_named_failure(
      run(std::string(LMO_TOOL_BIN) +
          " estimate --cluster /nonexistent/cluster.cfg --out /dev/null"),
      "/nonexistent/cluster.cfg");
}

TEST(LmoToolExitTest, MissingModelFileFailsNamed) {
  expect_named_failure(run(std::string(LMO_TOOL_BIN) +
                           " predict --model /nonexistent/model.cfg"),
                       "/nonexistent/model.cfg");
}

TEST(LmoToolExitTest, UnknownFlagFailsNamed) {
  expect_named_failure(
      run(std::string(LMO_TOOL_BIN) + " make-cluster --no-such-flag x"),
      "--no-such-flag");
}

TEST(LmoToolExitTest, BadCollectiveNameFailsNamed) {
  // The model file must exist for the failure to be about the op name:
  // make a cluster + model first, in the test's temp dir.
  const std::string dir = testing::TempDir();
  const std::string cluster = dir + "lmo_exit_cluster.cfg";
  const std::string model = dir + "lmo_exit_model.cfg";
  ASSERT_EQ(run(std::string(LMO_TOOL_BIN) + " make-cluster --nodes 4 --out " +
                cluster)
                .exit_code,
            0);
  ASSERT_EQ(run(std::string(LMO_TOOL_BIN) + " estimate --cluster " + cluster +
                " --out " + model + " --jobs 2")
                .exit_code,
            0);
  expect_named_failure(run(std::string(LMO_TOOL_BIN) + " predict --model " +
                           model + " --op allgather"),
                       "allgather");
  std::remove(cluster.c_str());
  std::remove(model.c_str());
}

// ---------------------------------------------------------- lmo_served --

TEST(LmoServedExitTest, MissingClusterFlagIsUsage) {
  EXPECT_EQ(run(LMO_SERVED_BIN).exit_code, 2);
}

TEST(LmoServedExitTest, MissingClusterFileFailsNamed) {
  expect_named_failure(run(std::string(LMO_SERVED_BIN) +
                           " --cluster /nonexistent/cluster.cfg"),
                       "/nonexistent/cluster.cfg");
}

TEST(LmoServedExitTest, UnknownFlagFailsNamed) {
  expect_named_failure(
      run(std::string(LMO_SERVED_BIN) + " --cluster x --no-such-flag y"),
      "--no-such-flag");
}

TEST(LmoServedExitTest, ForeignMeasurementsFailNamed) {
  // A store from a different cluster must refuse at startup (exit 1), not
  // silently serve a mixed-platform model.
  const std::string dir = testing::TempDir();
  const std::string cluster = dir + "lmo_exit_served.cfg";
  const std::string other = dir + "lmo_exit_other.cfg";
  const std::string store = dir + "lmo_exit_store.json";
  ASSERT_EQ(run(std::string(LMO_TOOL_BIN) + " make-cluster --nodes 4 --out " +
                cluster)
                .exit_code,
            0);
  ASSERT_EQ(run(std::string(LMO_TOOL_BIN) +
                " make-cluster --nodes 5 --seed 9 --out " + other)
                .exit_code,
            0);
  ASSERT_EQ(run(std::string(LMO_TOOL_BIN) + " estimate --cluster " + other +
                " --measurements-save " + store + " --out /dev/null --jobs 2")
                .exit_code,
            0);
  expect_named_failure(run(std::string(LMO_SERVED_BIN) + " --cluster " +
                           cluster + " --measurements-load " + store),
                       "5-node");
  std::remove(cluster.c_str());
  std::remove(other.c_str());
  std::remove(store.c_str());
}

TEST(LmoServedExitTest, ShutdownRequestExitsZeroAndBadLinesDoNot) {
  const std::string dir = testing::TempDir();
  const std::string cluster = dir + "lmo_exit_daemon.cfg";
  ASSERT_EQ(run(std::string(LMO_TOOL_BIN) + " make-cluster --nodes 4 --out " +
                cluster)
                .exit_code,
            0);
  // Garbage lines produce error responses; the daemon survives them and
  // the shutdown request still exits 0.
  const RunResult r =
      run("printf '%s\\n' 'garbage' '{\"op\":\"stats\"}' "
          "'{\"op\":\"shutdown\"}' | " +
          std::string(LMO_SERVED_BIN) + " --cluster " + cluster + " --jobs 2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("bad request"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"ok\":true"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("shutdown requested"), std::string::npos)
      << r.output;
  std::remove(cluster.c_str());
}

// ------------------------------------------------------ bench binaries --

TEST(BenchExitTest, UnknownFlagFailsNamedNotAborts) {
  expect_named_failure(
      run(std::string(LMO_BENCH_TABLE1_BIN) + " --no-such-flag 3"),
      "--no-such-flag");
}

TEST(BenchExitTest, NonNumericSeedFailsNamed) {
  const RunResult r = run(std::string(LMO_BENCH_TABLE1_BIN) + " --seed abc");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("error: "), std::string::npos) << r.output;
}

TEST(BenchExitTest, BadServedKnobsFailNamed) {
  expect_named_failure(run(std::string(LMO_BENCH_SERVED_BIN) + " --batch -3"),
                       "positive");
  expect_named_failure(
      run(std::string(LMO_BENCH_SERVED_BIN) + " --out /nonexistent/dir/x.json"
          " --batch 8 --batches 1 --reader-iters 100 --threads 1 --jobs 2"
          " --min-qps 0 --min-scaling 0"),
      "/nonexistent/dir/x.json");
}

TEST(BenchExitTest, ServedBarsItCannotMeetFailNamed) {
  // Each absolute bar fails the run on its own, naming the metric.
  const std::string small = std::string(LMO_BENCH_SERVED_BIN) +
                            " --batch 8 --batches 1 --reader-iters 100"
                            " --threads 1 --jobs 2 --out /dev/null";
  const RunResult qps = run(small + " --min-qps 1e15 --min-scaling 0");
  EXPECT_EQ(qps.exit_code, 1) << qps.output;
  EXPECT_NE(qps.output.find("FAIL: service_qps"), std::string::npos)
      << qps.output;
  const RunResult scaling = run(small + " --min-qps 0 --min-scaling 1e9");
  EXPECT_EQ(scaling.exit_code, 1) << scaling.output;
  EXPECT_NE(scaling.output.find("FAIL: multi_reader_scaling"),
            std::string::npos)
      << scaling.output;
}

TEST(BenchExitTest, ScaleMaxRanksBeyondTheSeriesIsUsage) {
  // A bound outside the series must not silently run a shorter one; it
  // is rejected before any cluster is built.
  for (const char* ranks : {"65537", "8"}) {
    const RunResult r = run(std::string(LMO_BENCH_SCALE_BIN) +
                            " --max-ranks " + ranks + " --out /dev/null");
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("error: --max-ranks " + std::string(ranks)),
              std::string::npos)
        << r.output;
  }
}

}  // namespace
