#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Which of the processes an untraced run is split into this one is.
  /// Part 0 also runs the once-per-run work: the SLO guard of the
  /// admission workloads (the slo_* metrics) and the slo_schedule
  /// one-worker replay. Other parts leave the slo_* metrics out on
  /// cold_admission and hot_recurring.
  int part = 0;
  std::string trace_out;  ///< span file written at exit (trace runs only)
  /// When set, an untraced run writes its latency samples here as
  /// "<value_us> <count>" lines, so run.py can pool the percentiles of all
  /// the processes of a run instead of taking a median of per-process ones.
  std::string samples_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the correctness verdict, the operation counts and
/// the metrics (end-to-end when untraced, per-layer when traced).
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  /// Records a failed correctness check; the run then exits non-zero.
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      errors.push_back(what);
    }
  }
};

RunResult RunColdAdmission(const RunConfig& config);
RunResult RunHotRecurring(const RunConfig& config);
RunResult RunSloSchedule(const RunConfig& config);

/// Checks the benchmark's own arithmetic (stats.h, trace.h); returns the
/// number of failed checks and prints each to stderr.
int RunSelfTest();

}  // namespace perfbench
