// Benchmark program: runs one named workload and prints one JSON object as
// the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs report the end-to-end metrics, traced runs (--trace 1) the
// per-layer metrics. Exits non-zero when a correctness check fails.
//
//   perfbench --workload cold_admission --seed 1 --seconds 10 --trace 0
//   perfbench --self-test

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

using namespace perfbench;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cold_admission|hot_recurring|"
               "slo_schedule --seed N --seconds S --trace 0|1 "
               "[--part K] [--trace-out FILE] [--samples-out FILE]\n"
               "       perfbench --self-test\n");
  return 2;
}

void PrintResult(const RunResult& res) {
  std::string out = "{\"correct\": ";
  out += res.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  bool self_test_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test_only = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    if (arg == "--workload") {
      cfg.workload = v;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::atof(v);
    } else if (arg == "--trace") {
      cfg.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--part") {
      cfg.part = std::atoi(v);
    } else if (arg == "--trace-out") {
      cfg.trace_out = v;
    } else if (arg == "--samples-out") {
      cfg.samples_out = v;
    } else {
      return Usage();
    }
  }

  // The arithmetic the metrics rest on is checked on every run.
  const int self_test_failures = RunSelfTest();
  if (self_test_only || self_test_failures != 0) {
    std::fprintf(stderr, "self-test: %d failure(s)\n", self_test_failures);
    return self_test_failures == 0 ? 0 : 1;
  }
  if (!(cfg.seconds > 0.0)) return Usage();

  RunResult res;
  if (cfg.workload == "cold_admission") {
    res = RunColdAdmission(cfg);
  } else if (cfg.workload == "hot_recurring") {
    res = RunHotRecurring(cfg);
  } else if (cfg.workload == "slo_schedule") {
    res = RunSloSchedule(cfg);
  } else {
    return Usage();
  }

  for (Metric& m : res.metrics) {
    if (!std::isfinite(m.value)) {
      res.Check(false, "metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  }
  res.Check(res.attempted > 0, "no operation was attempted");
  for (const std::string& e : res.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  PrintResult(res);
  return res.correct ? 0 : 1;
}
