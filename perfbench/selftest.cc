// Self-test of the benchmark's own arithmetic: the percentile rule and its
// tail-sample requirement, self time with overlapping children, and the
// bases the reported ratios divide by.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "self-test failed: %s\n", what);
  }
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

Span At(int64_t start, int64_t end) { return Span{"t", start, end, 0, 0}; }

}  // namespace

int RunSelfTest() {
  failures = 0;

  // Nearest rank: p50 of 1..100 is 50, p99 is 99, p100 the maximum.
  std::vector<double> v = OneTo(100);
  Expect(Percentile(&v, 0.5) == 50, "p50 of 1..100 is 50");
  Expect(Percentile(&v, 0.99) == 99, "p99 of 1..100 is 99");
  Expect(Percentile(&v, 1.0) == 100, "p100 is the maximum");
  std::vector<double> odd = OneTo(5);
  Expect(Percentile(&odd, 0.5) == 3, "p50 of 1..5 is the middle sample");
  std::vector<double> empty;
  Expect(Percentile(&empty, 0.5) == 0, "percentile of nothing is 0");
  Expect(Median({4, 1, 3, 2}) == 2, "median of an even count is the lower");

  // A p99 needs at least ten samples beyond it: n = 1000 is the minimum.
  Expect(SamplesBeyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  Expect(TailIsSupported(1000, 0.99), "p99 of 1000 samples is supported");
  Expect(!TailIsSupported(999, 0.99), "p99 of 999 samples is not supported");
  Expect(!TailIsSupported(100, 0.99), "p99 of 100 samples is not supported");
  Expect(TailIsSupported(20, 0.5), "p50 of 20 samples is supported");

  // The histogram gives the same nearest-rank answers as the sorted
  // samples, across the bucket / overflow boundary and after a merge.
  LatencyHistogram h1, h2;
  std::vector<double> raw;
  for (int i = 0; i < 3000; ++i) {
    const int64_t ns = (int64_t(i) * 7919) % 70000;  // some overflow
    (i % 2 == 0 ? h1 : h2).Add(ns);
    raw.push_back(double(ns));
  }
  h1.Merge(h2);
  for (double q : {0.01, 0.5, 0.9, 0.99, 1.0}) {
    std::vector<double> copy = raw;
    Expect(h1.PercentileNs(q) == Percentile(&copy, q),
           "histogram percentile matches the sorted samples");
  }
  Expect(h1.count() == 3000, "merged histogram counts every sample");

  // Self time: children clipped to the parent, overlaps counted once.
  const Span parent = At(0, 100);
  Expect(SelfTimeNs(parent, {}) == 100, "no children: self is everything");
  Expect(SelfTimeNs(parent, {At(10, 30), At(50, 60)}) == 70,
         "disjoint children are both subtracted");
  Expect(SelfTimeNs(parent, {At(10, 40), At(20, 50)}) == 60,
         "overlapping children count their union once");
  Expect(SelfTimeNs(parent, {At(10, 40), At(10, 40)}) == 70,
         "identical parallel children count once");
  Expect(SelfTimeNs(parent, {At(10, 60), At(20, 30)}) == 50,
         "a nested child inside a sibling adds nothing");
  Expect(SelfTimeNs(parent, {At(-20, 10), At(90, 150)}) == 80,
         "children sticking out are clipped to the parent");
  Expect(SelfTimeNs(parent, {At(200, 300)}) == 100,
         "a child outside the parent covers none of it");
  Expect(SelfTimeNs(parent, {At(40, 50), At(0, 45), At(45, 100)}) == 0,
         "children covering everything leave no self time");

  // Tracer: appending re-bases parent indexes.
  Tracer a, b;
  a.Record(At(0, 10));
  const int64_t root = b.Record(Span{"r", 0, 10, -1, 0});
  b.Record(Span{"c", 2, 4, root, 0});
  a.Append(std::move(b));
  Expect(a.spans().size() == 3 && a.spans()[2].parent == 1,
         "append re-bases parent indexes");
  Expect(a.Children()[1].size() == 1, "children are found by parent index");

  // Ratio bases: the part over its own base; an empty base reads 0.
  Expect(Near(Ratio(3, 4), 0.75), "hit ratio is hits over predictions");
  Expect(Ratio(5, 0) == 0, "an empty base reads 0, not inf");
  Expect(Near(PercentOver(110, 100), 10.0),
         "overhead is over the untraced base");
  Expect(Near(PercentOver(90, 100), -10.0),
         "a faster traced run reads negative");
  Expect(PercentOver(5, 0) == 0, "overhead over an empty base reads 0");

  return failures;
}

}  // namespace perfbench
