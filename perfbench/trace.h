#pragma once

// In-memory spans recorded by the benchmark around its calls into each
// layer's public functions. Spans stay in memory while the workload runs
// and are written out once, at exit, so recording costs two clock reads and
// a vector append.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< static string: "<layer>.<call>"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;    ///< index of the enclosing span, -1 for a root
  int64_t request = -1;   ///< spans of one request share this id
  int64_t duration() const { return end_ns - start_ns; }
};

/// Self time of `parent`: its duration minus the part of its interval that
/// the children cover. Children may overlap each other (parallel calls) or
/// stick out of the parent; each instant is subtracted at most once.
inline int64_t SelfTimeNs(const Span& parent, std::vector<Span> children) {
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (const Span& c : children) {
    const int64_t lo = std::max(c.start_ns, parent.start_ns);
    const int64_t hi = std::min(c.end_ns, parent.end_ns);
    if (hi > lo) iv.emplace_back(lo, hi);
  }
  std::sort(iv.begin(), iv.end());
  int64_t covered = 0, cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : iv) {
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return parent.duration() - covered;
}

/// One thread's span buffer. Not thread-safe: give each client thread its
/// own and Append them afterwards.
class Tracer {
 public:
  /// Opens a span now and returns its index, for End and as a parent.
  int64_t Begin(const char* name, int64_t parent = -1, int64_t request = -1) {
    spans_.push_back(Span{name, NowNs(), 0, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void End(int64_t index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
  }

  int64_t Record(const Span& span) {
    spans_.push_back(span);
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  /// Moves `other`'s spans in, re-basing their parent indexes.
  void Append(Tracer&& other) {
    const int64_t base = static_cast<int64_t>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(s);
    }
    other.spans_.clear();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Direct children of every span, by index.
  std::vector<std::vector<Span>> Children() const {
    std::vector<std::vector<Span>> out(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) out[static_cast<size_t>(s.parent)].push_back(s);
    }
    return out;
  }

  /// Writes one JSON object per span (with its self time) to `path`.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const auto children = Children();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"i\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%lld,\"request\":%lld,"
                   "\"self_ns\":%lld}\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.request),
                   static_cast<long long>(SelfTimeNs(s, children[i])));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
