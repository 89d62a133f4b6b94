#pragma once

// The benchmark's own arithmetic: percentiles, ratios and medians. Kept in
// one header so selftest.cc can pin every rule it relies on.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported high percentile: a p99
/// read off fewer than ten tail samples is one or two outliers, not a tail.
inline constexpr size_t kMinTailSamples = 10;

/// Nearest-rank percentile (q in (0, 1]): the value at 1-based rank
/// ceil(q * n) of the sorted samples. Sorts `v` in place; 0 when empty.
inline double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const size_t n = v->size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return (*v)[rank - 1];
}

/// Samples strictly beyond the nearest-rank q-percentile of n samples.
inline size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

/// True when the q-percentile of n samples has at least kMinTailSamples
/// beyond it (p99 needs n >= 1000).
inline bool TailIsSupported(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinTailSamples;
}

inline double Median(std::vector<double> v) { return Percentile(&v, 0.5); }

/// Exact latency distribution at 1 ns resolution in fixed memory: a count
/// per nanosecond below kBuckets, raw samples above. Lets a client record
/// millions of requests without its memory growing with throughput.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = size_t(1) << 16;  // 65.5 us

  void Add(int64_t ns) {
    if (ns < 0) ns = 0;
    if (size_t(ns) < kBuckets) {
      ++counts_[size_t(ns)];
    } else {
      overflow_.push_back(double(ns));
    }
    ++n_;
  }

  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    overflow_.insert(overflow_.end(), other.overflow_.begin(),
                     other.overflow_.end());
    n_ += other.n_;
  }

  size_t count() const { return n_; }

  /// Calls fn(value_ns, count) for every recorded value, ascending within
  /// the buckets; overflow samples come last, one call each.
  template <class Fn>
  void ForEach(Fn fn) const {
    for (size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] != 0) fn(double(i), counts_[i]);
    }
    for (double v : overflow_) fn(v, uint64_t(1));
  }

  /// Same nearest-rank rule as Percentile().
  double PercentileNs(double q) {
    if (n_ == 0) return 0.0;
    size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n_)));
    rank = std::clamp<size_t>(rank, 1, n_);
    size_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) return double(i);
    }
    std::sort(overflow_.begin(), overflow_.end());
    return overflow_[rank - seen - 1];
  }

 private:
  std::vector<uint64_t> counts_ = std::vector<uint64_t>(kBuckets, 0);
  std::vector<double> overflow_;
  size_t n_ = 0;
};

/// part / base, 0 when the base is empty. Every ratio the benchmark reports
/// goes through here so its base is explicit at the call site.
inline double Ratio(double part, double base) {
  return base > 0.0 ? part / base : 0.0;
}

/// Relative change of `value` against `base`, in percent.
inline double PercentOver(double value, double base) {
  return base > 0.0 ? 100.0 * (value - base) / base : 0.0;
}

}  // namespace perfbench
