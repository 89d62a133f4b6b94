#include "sampling/sample_db.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.h"
#include "engine/executor.h"

namespace uqp {

SampleDb SampleDb::Build(const Database& db, const SampleOptions& options) {
  UQP_CHECK(options.sampling_ratio > 0.0 && options.sampling_ratio <= 1.0)
      << "sampling ratio must be in (0, 1]";
  UQP_CHECK(options.copies_per_relation >= 1);
  SampleDb out;
  out.options_ = options;
  const Rng base_rng(options.seed);

  // Stable substream indexing: relations in sorted name order, one
  // substream per (relation, copy). Each build unit's randomness depends
  // only on (seed, index) — not on which thread draws first or on the
  // database's enumeration order — so the samples are identical at any
  // thread count.
  std::vector<std::string> names = db.TableNames();
  // Canonicalizes the relation order (distinct names, total order) that
  // the substream indexing above depends on.
  // det-lint: sorted-output
  std::sort(names.begin(), names.end());
  const int copies = options.copies_per_relation;

  struct BuildUnit {
    const std::string* name = nullptr;
    Entry* entry = nullptr;
    int copy = 0;
    uint64_t substream = 0;
  };
  std::vector<BuildUnit> units;
  units.reserve(names.size() * static_cast<size_t>(copies));
  for (size_t t = 0; t < names.size(); ++t) {
    const Table& base = db.GetTable(names[t]);
    Entry& entry = out.entries_[names[t]];
    entry.base_rows = base.num_rows();
    entry.copies.resize(static_cast<size_t>(copies));
    for (int c = 0; c < copies; ++c) {
      units.push_back(BuildUnit{&names[t], &entry, c,
                                t * static_cast<uint64_t>(copies) +
                                    static_cast<uint64_t>(c)});
    }
  }

  const auto build_unit = [&](const BuildUnit& u) {
    const Table& base = db.GetTable(*u.name);
    const int64_t rows = base.num_rows();
    int64_t sample_rows = static_cast<int64_t>(
        std::ceil(options.sampling_ratio * static_cast<double>(rows)));
    sample_rows = std::clamp<int64_t>(
        sample_rows, std::min(rows, options.min_sample_rows), rows);
    auto sample = std::make_unique<Table>(
        *u.name + "#s" + std::to_string(u.copy), base.schema());
    // Simple random sample without replacement: the first sample_rows
    // entries of a random permutation, each column gathered through them.
    Rng rng = base_rng.SubStream(u.substream);
    const std::vector<uint32_t> perm = rng.Permutation(static_cast<uint32_t>(rows));
    sample->AppendRows(base, perm.data(), sample_rows);
    u.entry->copies[static_cast<size_t>(u.copy)] = std::move(sample);
  };

  const int threads = ResolveNumThreads(options.num_threads);
  if (threads > 1 && units.size() > 1) {
    MorselPool pool(threads);
    pool.RunTasks(static_cast<int64_t>(units.size()), [&](int64_t i) {
      build_unit(units[static_cast<size_t>(i)]);
    });
  } else {
    for (const BuildUnit& u : units) build_unit(u);
  }
  return out;
}

int SampleDb::copies(const std::string& relation) const {
  auto it = entries_.find(relation);
  UQP_CHECK(it != entries_.end()) << "no samples for relation " << relation;
  return static_cast<int>(it->second.copies.size());
}

const Table& SampleDb::Get(const std::string& relation, int copy) const {
  auto it = entries_.find(relation);
  UQP_CHECK(it != entries_.end()) << "no samples for relation " << relation;
  const auto& copies = it->second.copies;
  return *copies[static_cast<size_t>(copy % static_cast<int>(copies.size()))];
}

int64_t SampleDb::SampleRows(const std::string& relation) const {
  return Get(relation, 0).num_rows();
}

int64_t SampleDb::BaseRows(const std::string& relation) const {
  auto it = entries_.find(relation);
  UQP_CHECK(it != entries_.end());
  return it->second.base_rows;
}

int64_t SampleDb::TotalSamplePages() const {
  int64_t pages = 0;
  // Integer sum over the entries; addition order cannot change it.
  // det-lint: order-independent
  for (const auto& [_, entry] : entries_) {
    if (!entry.copies.empty()) pages += entry.copies[0]->num_pages();
  }
  return pages;
}

}  // namespace uqp
