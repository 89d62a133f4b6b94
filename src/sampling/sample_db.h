#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "math/rng.h"
#include "storage/database.h"

namespace uqp {

/// Options for building the offline sample tables.
struct SampleOptions {
  /// Fraction of each relation taken as sample (paper §6.3's SR knob).
  double sampling_ratio = 0.05;
  /// Independent sample tables kept per relation. The estimator binds a
  /// different copy to each occurrence of a relation in a plan, which is
  /// what makes Xl ⊥ Xr when the two sides share relations (paper §5.1.2).
  int copies_per_relation = 2;
  uint64_t seed = 20140827;  // arXiv date of the paper, why not
  /// Floor on sample rows per relation so S²_n (which divides by n-1)
  /// stays defined.
  int64_t min_sample_rows = 4;
  /// Threads for building the sample tables (1 = sequential, <= 0 =
  /// hardware concurrency). Each (relation, copy) draws its permutation
  /// from an Rng substream keyed by its position in the sorted relation
  /// order, so the built samples are identical at every thread count.
  int num_threads = 1;
};

/// Offline tuple-level samples, materialized one Table per (relation,
/// copy). Row i of a sample table is the sample tuple with index i —
/// provenance ids from the executor index directly into it (the tuple
/// annotations of paper §3.2.2).
class SampleDb {
 public:
  /// Builds the samples, fanning (relation, copy) table builds across an
  /// ephemeral pool when options.num_threads != 1. The sample contents
  /// depend only on options.seed — not on the thread count or the
  /// database's relation enumeration order.
  static SampleDb Build(const Database& db, const SampleOptions& options);

  const SampleOptions& options() const { return options_; }

  int copies(const std::string& relation) const;
  const Table& Get(const std::string& relation, int copy) const;

  int64_t SampleRows(const std::string& relation) const;
  int64_t BaseRows(const std::string& relation) const;

  /// Total pages across sample tables (one copy each) — used for the
  /// sampling-overhead experiments.
  int64_t TotalSamplePages() const;

 private:
  SampleOptions options_;
  struct Entry {
    std::vector<std::unique_ptr<Table>> copies;
    int64_t base_rows = 0;
  };
  std::unordered_map<std::string, Entry> entries_;
};

}  // namespace uqp
