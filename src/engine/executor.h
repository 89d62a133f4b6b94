#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/cost_model.h"
#include "engine/plan.h"
#include "storage/database.h"

namespace uqp {

/// The worker pool, the only one in the tree: `num_threads - 1` helper
/// threads popping one FIFO queue of closures. Two kinds of work share it.
/// Submit queues a whole job (PredictionService's PredictAsync requests).
/// RunTasks is the fan-out primitive for intra-query parallelism: it runs
/// every task index in [0, n) exactly once and returns only when all of
/// them finished. It queues min(num_threads - 1, n - 1) helper closures
/// behind whatever is already queued, then the calling thread pulls task
/// indexes from a shared atomic counter alongside any helper that reaches
/// the front (morsel-driven dispatch: skewed tasks rebalance dynamically,
/// while merge order stays the deterministic task-index order chosen by the
/// caller). A saturated pool thus degrades to each caller running its own
/// tasks, never to a deadlock, and RunTasks may be called again from inside
/// a task (the executor fans out both join children and, within each,
/// table chunks). Callers hand one to the executor through
/// ExecOptions::task_runner; long-lived callers (the sampling estimator,
/// the service, benches) share one instance across runs.
class MorselPool {
 public:
  explicit MorselPool(int num_threads);
  /// Calls Shutdown().
  ~MorselPool();

  MorselPool(const MorselPool&) = delete;
  MorselPool& operator=(const MorselPool&) = delete;

  int num_threads() const { return static_cast<int>(threads_.size()) + 1; }

  /// After Shutdown, runs every index on the calling thread.
  void RunTasks(int64_t n, const std::function<void(int64_t)>& fn);

  /// Queues `task` behind everything already queued (FIFO, so the oldest
  /// job is served first). A pool without helper threads runs it on the
  /// calling thread. Returns false, without running it, after Shutdown.
  bool Submit(std::function<void()> task);

  /// Stops accepting work, lets the helpers drain every closure queued
  /// before it, then joins them. Idempotent.
  void Shutdown();

  /// Wakes every idle helper with nothing new to run (the fault
  /// injector's spurious-wakeup seam): each must fall back asleep through
  /// its predicate loop.
  void WakeAll();

 private:
  struct Batch;
  void WorkerLoop();

  Mutex mu_;
  CondVar cv_;
  /// Helper threads; written only by the constructor and joined by
  /// Shutdown (never erased), so concurrent readers (num_threads,
  /// RunTasks) race with nothing.
  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_ UQP_GUARDED_BY(mu_);
  bool stop_ UQP_GUARDED_BY(mu_) = false;
};

/// Resolves a num_threads knob: <= 0 means "use the hardware concurrency",
/// anything else is taken literally (floored at 1).
int ResolveNumThreads(int num_threads);

/// Late-materialised intermediate result. A row is a tuple of `width`
/// uint32 row ids, one per source slot; a slot is either a bound leaf
/// table (base table or sample) or an aggregate's output, a small columnar
/// Table the block co-owns through `owned`. Every schema column reads its
/// cells from one source column through one slot (`columns`), so a cell is
/// decoded from the source's payload array only where an operator reads it
/// (at). Operators move row-id tuples, never Values.
///
/// Provenance is the leading `prov_width` slots of every row: for each
/// leaf position in the subtree that produced the block (aggregates drop
/// their input's), the row index of the source tuple in that leaf's
/// (sample) table — the tuple annotations of paper §3.2.2 used to maintain
/// the Q_{k,j,n} counters. prov_width is 0 unless
/// ExecOptions::collect_provenance is set.
///
/// A block reads leaf cells straight out of the Database and leaf-override
/// tables it was executed against: those must outlive it. Aggregate slots
/// are co-owned, so a copy stays readable after its ExecResult is gone.
struct RowBlock {
  /// Where one schema column's cells live: row `rid` of a source column's
  /// payload array, with rid taken from the row's `slot`.
  struct ColumnSource {
    const uint64_t* data = nullptr;
    ValueType type = ValueType::kInt64;
    int slot = 0;
  };

  /// The operator's full output schema: spill counters size tuples by it.
  Schema schema;
  std::vector<ColumnSource> columns;  ///< one per schema column
  int width = 0;                      ///< row-id slots per row
  std::vector<uint32_t> rids;         ///< num_rows() * width, row-major
  int prov_width = 0;                 ///< leading slots that are provenance
  /// Aggregate outputs some slot reads from.
  std::vector<std::shared_ptr<const Table>> owned;

  int64_t num_rows() const {
    return width == 0 ? 0 : static_cast<int64_t>(rids.size()) / width;
  }
  /// The raw payload of the cell at row `r`, column `c` (its type is
  /// columns[c].type).
  uint64_t payload(int64_t r, int c) const {
    const ColumnSource& col = columns[static_cast<size_t>(c)];
    return col.data[rids[static_cast<size_t>(r * width + col.slot)]];
  }
  /// The cell at row `r`, column `c`.
  Value at(int64_t r, int c) const {
    return ValueOfPayload(columns[static_cast<size_t>(c)].type, payload(r, c));
  }
  /// Row `r`'s row-id tuple (`width` ids).
  const uint32_t* row_ids(int64_t r) const { return rids.data() + r * width; }
  /// Row `r`'s provenance: its first `prov_width` row ids.
  const uint32_t* prov_row(int64_t r) const { return row_ids(r); }
};

/// Hashes the key columns `cols` of rows [begin, begin + n) of `block`
/// into out[0, n): each row's hash folds PayloadHash of its key cells, in
/// `cols` order, into a fixed seed with HashMix64, so it equals folding
/// Value::Hash over the decoded cells. Column at a time, straight from the
/// source payload arrays, with the type switch outside the row loop. The
/// key kernel of hash-join builds and probes, aggregate grouping and the
/// estimator's GEE group counts.
void HashRowKeys(const RowBlock& block, const std::vector<int>& cols, int64_t begin,
                 int64_t n, uint64_t* out);

/// Per-operator execution statistics: the observed resource counters (the
/// ground-truth n's of paper Eq. 1) and cardinalities.
struct OpStats {
  int id = -1;
  OpType type = OpType::kSeqScan;
  ResourceVector actual;     ///< observed counter values
  double left_rows = 0.0;    ///< Nl
  double right_rows = 0.0;   ///< Nr
  double out_rows = 0.0;     ///< M
  /// Product of source-table row counts over the subtree's leaves (the
  /// |R| of paper Eq. 3, computed against whatever tables were bound —
  /// base tables for real runs, sample tables for estimation runs).
  double leaf_row_product = 1.0;
  /// M / leaf_row_product.
  double selectivity() const {
    return leaf_row_product > 0.0 ? out_rows / leaf_row_product : 0.0;
  }
};

/// Execution options.
struct ExecOptions {
  /// Collect per-row provenance (enabled for sampling-estimation runs).
  bool collect_provenance = false;
  /// If non-null, leaf scan i reads from (*leaf_overrides)[i] instead of
  /// the base table — this is how the estimator runs the plan over sample
  /// tables, binding a distinct sample per leaf occurrence. The tables
  /// must outlive the ExecResult: its blocks read cells out of them.
  const std::vector<const Table*>* leaf_overrides = nullptr;
  /// Keep every operator's output block in ExecResult::blocks
  /// (sampling-estimation runs post-process them into the Q_{k,j,n}
  /// counters). A parent moves each child's block into the child's slot
  /// once it has consumed it; only the root's block and a Materialize
  /// child's block (Materialize's output is its input) are copied.
  bool retain_intermediates = false;
  /// Rows per inner-loop chunk: filters and join probes process their
  /// input in chunks of at most this many rows (vectorized-style batched
  /// execution — scan predicates evaluate over the table's column arrays
  /// into a selection mask, whose compacted survivor row ids are the scan's
  /// output block). Row order, provenance and every cell except aggregate
  /// SUM and AVG are identical for every value, and so is every counter
  /// except sort comparisons. The blocked merge sort's leaf blocks and
  /// aggregation's per-chunk tables are max_batch_size rows, and both
  /// merge up a pairwise tree shaped by the chunk count, so the sort's
  /// comparison count and the rounding of a group's floating-point sum
  /// (hence its average) follow the batch size by design; group keys,
  /// COUNT, MIN and MAX do not.
  int64_t max_batch_size = 1024;
  /// Intra-query parallelism, the executor's only parallelism input. Null
  /// runs every task inline on the calling thread. With a pool, filter
  /// scans, hash-join builds/probes, nest-loop outer loops, sort key
  /// decoding, leaf blocks + merge-tree levels, per-chunk aggregation
  /// tables and merge-join group emission shard across it, and independent
  /// join children run concurrently (PredictionService's one MorselPool
  /// serves both its plan-level requests and these intra-plan tasks). The
  /// determinism contract (enforced by tests/parallel_parity_test.cc): at
  /// a given max_batch_size, output rows and cells (aggregate sums
  /// included), provenance, retained blocks and every resource counter
  /// are bit-identical with and without a pool, at any pool size. Three
  /// ingredients: every operator has one body over a task decomposition
  /// fixed by row count and max_batch_size, never by thread count, and
  /// task results land in task order; task-accumulated counters are
  /// integer-valued, so double addition regroups exactly; and operators
  /// whose algorithm shape matters — sort's merge tree, aggregation's
  /// per-chunk tables — therefore run the same shape inline too. Sort
  /// comparison counts are defined by the blocked merge tree over
  /// std::sort-sorted leaf blocks (deterministic for a given standard
  /// library, invariant to thread count — though not portable across
  /// standard-library implementations, whose introsorts compare
  /// differently), aggregate sums by the chunk-table merge tree, and
  /// aggregate output order by first appearance in the input.
  MorselPool* task_runner = nullptr;
  /// Cooperative cancellation probe. When set, the executor polls it at
  /// operator boundaries and at morsel-shard boundaries inside
  /// RunTaskRange / RunShardedTasks; once it returns true the run stops
  /// consuming pool time (remaining shard bodies become no-ops) and
  /// Execute resolves with Status::DeadlineExceeded. The probe must be
  /// callable from any pool thread. Cancellation never yields a partial
  /// result — a cancelled run returns only the error. Null means "never
  /// cancelled" and costs nothing on the hot path.
  std::function<bool()> cancelled;
};

/// Result of executing a plan. Its blocks read cells from the Database and
/// the leaf-override tables the plan ran against (see RowBlock), so those
/// must outlive it.
struct ExecResult {
  RowBlock output;
  std::vector<OpStats> ops;  ///< indexed by operator id
  /// Per-operator output blocks when retain_intermediates was set.
  std::vector<RowBlock> blocks;
};

/// Materializing executor, inline or morsel-parallel (see
/// ExecOptions::task_runner). Operators maintain the exact
/// PostgreSQL-style resource counters; these deliberately deviate from the
/// optimizer's closed-form estimates (hash-chain visits, true distinct heap
/// pages, true sort comparisons) so that the cost model carries a realistic
/// "error in g" as in the paper.
class Executor {
 public:
  explicit Executor(const Database* db) : db_(db) {}

  StatusOr<ExecResult> Execute(const Plan& plan, const ExecOptions& options) const;

 private:
  const Database* db_;
};

}  // namespace uqp
