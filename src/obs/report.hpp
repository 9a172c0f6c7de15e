// Machine-readable run reports (the --report flag).
//
// A report is one JSON document with a stable schema id, capturing what a
// tool run produced (estimated parameters, prediction tables, error
// summaries), what it cost (wall clock, repetition counts, per-phase
// estimation cost), and enough provenance to reproduce it (seed, jobs,
// compiler, build flavor). The metrics snapshot from the global Registry
// and thread-pool utilization are appended automatically at build() time.
//
// Schema (lmo.run_report/1):
//   {
//     "schema": "lmo.run_report/1",
//     "tool": "<basename of the binary>",
//     "created_unix": <seconds>,
//     "wall_seconds": <float>,
//     "provenance": {"compiler": ..., "build": ..., ...caller keys},
//     "tables": [ {"title": ..., "columns": [...], "rows": [[...], ...]} ],
//     ...caller sections (set()),
//     "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}},
//     "thread_pool": {"workers": N, "tasks": ..., "busy_seconds": ...,
//                     "idle_seconds": ...}   // when the pool was used
//   }
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace lmo::obs {

struct Snapshot;

inline constexpr const char* kReportSchema = "lmo.run_report/1";

/// The degradation summary of a run: every fault.* / recovery.* /
/// store.quarantined counter from the snapshot, plus a "clean" boolean
/// (true when no fault was injected and no recovery acted). Benches and
/// lmo_tool publish this as the report's "degradation" section; CI uploads
/// it as an artifact.
[[nodiscard]] Json degradation_json(const Snapshot& snap);

/// The build's compiler version and flavor ({"compiler", "build":
/// "release"|"debug"}): the provenance every run report and bench record
/// carries.
[[nodiscard]] Json build_provenance();

class ReportBuilder {
 public:
  explicit ReportBuilder(std::string tool);

  /// Set a top-level section. Each key may be set once; setting a section
  /// twice throws lmo::Error naming the section (silently overwriting a
  /// section a tool already published hid real bugs).
  void set(const std::string& key, Json value);
  /// Add one {"title", "columns", "rows"} table to the "tables" array.
  void add_table(Json table);
  /// Record a provenance key (seed, jobs, ...).
  void provenance(const std::string& key, Json value);

  /// Assemble the full document: header, caller sections, metrics snapshot,
  /// thread-pool utilization, wall clock since construction.
  [[nodiscard]] Json build() const;
  /// build() and write to `path` (pretty-printed, trailing newline).
  void write(const std::string& path) const;

 private:
  std::string tool_;
  double t0_us_ = 0.0;
  long long created_unix_ = 0;
  Json provenance_ = Json::object();
  std::vector<std::pair<std::string, Json>> sections_;
  Json tables_ = Json::array();
};

}  // namespace lmo::obs
