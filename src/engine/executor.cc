#include "engine/executor.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>
#include <utility>

#include "common/logging.h"

namespace uqp {

int ResolveNumThreads(int num_threads) {
  if (num_threads > 0) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::max(1u, hw));
}

/// Shared pull-state of one RunTasks call: the caller and its queued helper
/// closures claim indexes from `next` until exhausted; the last finisher
/// wakes the waiting caller. Helpers hold it by shared_ptr, so one that
/// reaches the queue front after the call returned finds nothing to claim.
struct MorselPool::Batch {
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> done{0};
  int64_t total = 0;
  const std::function<void(int64_t)>* fn = nullptr;
  /// Guards nothing directly (`next`/`done` are atomics) — it exists so
  /// the completion notify and the caller's wait agree on one lock and a
  /// wakeup can never be lost between the final done increment and the
  /// caller parking on the condition variable.
  Mutex mu;
  CondVar cv;

  void Pull() {
    for (;;) {
      const int64_t i = next.fetch_add(1);
      if (i >= total) return;
      (*fn)(i);
      if (done.fetch_add(1) + 1 == total) {
        MutexLock lock(&mu);
        cv.NotifyAll();
      }
    }
  }
};

MorselPool::MorselPool(int num_threads) {
  const int n = std::max(1, ResolveNumThreads(num_threads));
  threads_.reserve(static_cast<size_t>(n - 1));
  for (int i = 0; i < n - 1; ++i) {
    threads_.emplace_back(&MorselPool::WorkerLoop, this);
  }
}

MorselPool::~MorselPool() { Shutdown(); }

void MorselPool::Shutdown() {
  {
    MutexLock lock(&mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void MorselPool::WakeAll() { cv_.NotifyAll(); }

void MorselPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      // Explicit predicate loop (not the wait-with-lambda overload): the
      // thread-safety analysis checks guarded accesses here, in the
      // function that provably holds mu_.
      while (!stop_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

bool MorselPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    if (stop_) return false;
    if (!threads_.empty()) queue_.push_back(std::move(task));
  }
  if (threads_.empty()) {
    task();
  } else {
    cv_.NotifyOne();
  }
  return true;
}

void MorselPool::RunTasks(int64_t n, const std::function<void(int64_t)>& fn) {
  if (n <= 0) return;
  if (n == 1 || threads_.empty()) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->total = n;
  batch->fn = &fn;  // outlives the call: we wait for completion below
  const int64_t helpers = std::min(static_cast<int64_t>(threads_.size()), n - 1);
  {
    MutexLock lock(&mu_);
    // After Shutdown nobody pops the queue: the caller runs every index.
    if (!stop_) {
      for (int64_t i = 0; i < helpers; ++i) {
        queue_.push_back([batch] { batch->Pull(); });
      }
    }
  }
  cv_.NotifyAll();
  batch->Pull();  // the calling thread shards too (incl. nested calls)
  MutexLock lock(&batch->mu);
  while (batch->done.load() != batch->total) batch->cv.Wait(batch->mu);
}

namespace {

/// Folds one key column's PayloadHash into out[0, n), the rows' column
/// cells read through their row ids (`ids[i * width]`).
template <ValueType kType>
void FoldKeyColumn(const uint64_t* data, const uint32_t* ids, int width, int64_t n,
                   uint64_t* out) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = HashMix64(out[i], PayloadHash(kType, data[ids[i * width]]));
  }
}

}  // namespace

void HashRowKeys(const RowBlock& block, const std::vector<int>& cols, int64_t begin,
                 int64_t n, uint64_t* out) {
  if (n <= 0) return;
  std::fill(out, out + n, uint64_t{0x9e3779b97f4a7c15ULL});
  const uint32_t* rids = block.row_ids(begin);
  for (const int c : cols) {
    const RowBlock::ColumnSource& col = block.columns[static_cast<size_t>(c)];
    const uint32_t* ids = rids + col.slot;
    switch (col.type) {
      case ValueType::kInt64:
        FoldKeyColumn<ValueType::kInt64>(col.data, ids, block.width, n, out);
        break;
      case ValueType::kDouble:
        FoldKeyColumn<ValueType::kDouble>(col.data, ids, block.width, n, out);
        break;
      case ValueType::kString:
        FoldKeyColumn<ValueType::kString>(col.data, ids, block.width, n, out);
        break;
    }
  }
}

namespace {

bool KeysEqual(const RowBlock& a, int64_t ar, const std::vector<int>& acols,
               const RowBlock& b, int64_t br, const std::vector<int>& bcols) {
  for (size_t i = 0; i < acols.size(); ++i) {
    const int ac = acols[i], bc = bcols[i];
    if (!PayloadEquals(a.columns[static_cast<size_t>(ac)].type, a.payload(ar, ac),
                       b.columns[static_cast<size_t>(bc)].type, b.payload(br, bc))) {
      return false;
    }
  }
  return true;
}

/// Three-way compare behind Sort/MergeJoin: numeric order for numbers,
/// lexicographic for strings. NaN sorts after every number and equal to
/// NaN (PostgreSQL's float8 order), so the order is a strict weak order
/// over every value.
int ValueCompare3(const Value& a, const Value& b) {
  if (a.type == ValueType::kString && b.type == ValueType::kString) {
    if (a.s == b.s) return 0;
    const int cmp = a.AsString().compare(b.AsString());
    return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
  }
  const double x = a.AsDouble();
  const double y = b.AsDouble();
  if (x < y) return -1;
  if (y < x) return 1;
  return static_cast<int>(std::isnan(x)) - static_cast<int>(std::isnan(y));
}

/// True for a NaN double: the one key that equals nothing, itself included.
bool IsNan(const Value& v) { return v.type == ValueType::kDouble && std::isnan(v.d); }

/// The executor's one hash table, built once over a fixed list of 64-bit
/// key hashes: the hash join's build rows, an aggregate chunk's rows, or
/// the left partial's groups in an aggregate merge. A power-of-two
/// directory of chain heads (at least one per row), each with a 32-bit tag
/// mask, over one {exact key hash, next} entry per row. The
/// Fibonacci-multiplied hash picks the head with its top bits and a tag
/// bit with the five bits below them. The build links every row in one
/// branch-free pass in reverse row order, so each chain lists its rows in
/// ascending order; a lookup whose tag bit is clear (most hash-join
/// probes: the sample run joins independent samples) touches one head and
/// no chain.
class JoinTable {
 public:
  explicit JoinTable(const std::vector<uint64_t>& hashes) : entries_(hashes.size()) {
    int bits = 1;
    while ((size_t{1} << bits) < hashes.size()) ++bits;
    shift_ = 64 - bits;
    heads_.assign(size_t{1} << bits, Head{kEnd, 0});
    for (size_t r = hashes.size(); r-- > 0;) {
      const uint64_t m = hashes[r] * 0x9e3779b97f4a7c15ULL;
      Head& head = heads_[m >> shift_];
      entries_[r] = {hashes[r], head.first};
      head.first = static_cast<uint32_t>(r);
      head.tags |= TagBit(m);
    }
  }

  /// Calls visit(r) for every row r whose key hash is exactly `h`, in
  /// ascending order, until visit returns false.
  template <typename Visit>
  void ForEachRow(uint64_t h, const Visit& visit) const {
    const uint64_t m = h * 0x9e3779b97f4a7c15ULL;
    const Head& head = heads_[m >> shift_];
    if ((head.tags & TagBit(m)) == 0) return;
    for (uint32_t r = head.first; r != kEnd; r = entries_[r].next) {
      if (entries_[r].hash == h && !visit(r)) return;
    }
  }

 private:
  static constexpr uint32_t kEnd = std::numeric_limits<uint32_t>::max();
  struct Head {
    uint32_t first;  ///< smallest row of the chain, or kEnd
    uint32_t tags;   ///< TagBit of every row on the chain
  };
  struct Entry {
    uint64_t hash;
    uint32_t next;  ///< next larger row of the chain, or kEnd
  };

  uint32_t TagBit(uint64_t m) const { return uint32_t{1} << ((m >> (shift_ - 5)) & 31); }

  int shift_ = 63;
  std::vector<Head> heads_;
  std::vector<Entry> entries_;
};

/// An empty block over one table: one slot, column c reading src's
/// column c (a scan's output, or an aggregate's over its group table).
RowBlock TableBlock(const Schema& schema, const Table& src, bool prov) {
  RowBlock out;
  out.schema = schema;
  out.width = 1;
  out.prov_width = prov ? 1 : 0;
  for (int c = 0; c < schema.num_columns(); ++c) {
    out.columns.push_back({src.column_data(c), schema.column(c).type, 0});
  }
  return out;
}

/// Marks every column a predicate reads in `used`.
void MarkColumns(const Expr& e, std::vector<uint8_t>* used) {
  switch (e.kind) {
    case Expr::Kind::kCmpCol:
      (*used)[static_cast<size_t>(e.column2)] = 1;
      [[fallthrough]];
    case Expr::Kind::kCmp:
      (*used)[static_cast<size_t>(e.column)] = 1;
      return;
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
      MarkColumns(*e.lhs, used);
      MarkColumns(*e.rhs, used);
      return;
    case Expr::Kind::kNot:
      MarkColumns(*e.lhs, used);
      return;
  }
}

/// Builds a join's output: which (left row, right row) pairs survive the
/// residual predicate, and their row-id tuples. A tuple is left's
/// provenance slots, right's provenance slots, then left's remaining
/// slots, then right's, so the join's provenance (left's leaf ids, then
/// right's) leads every tuple as RowBlock requires. Shared read-only by
/// the join's tasks; each task passes its own residual scratch row.
class JoinEmitter {
 public:
  JoinEmitter(const PlanNode& node, const RowBlock& left, const RowBlock& right)
      : node_(node),
        left_(left),
        right_(right),
        quals_(PredicateOpCount(node.predicate.get())) {
    if (node.predicate != nullptr) {
      std::vector<uint8_t> used(static_cast<size_t>(node.output_schema.num_columns()));
      MarkColumns(*node.predicate, &used);
      for (size_t c = 0; c < used.size(); ++c) {
        if (used[c] != 0) residual_cols_.push_back(static_cast<int>(c));
      }
    }
  }

  /// The join's empty output block: left's columns, then right's, over
  /// the tuple layout above.
  RowBlock OutputBlock() const {
    RowBlock out;
    out.schema = node_.output_schema;
    out.width = left_.width + right_.width;
    out.prov_width = left_.prov_width + right_.prov_width;
    for (RowBlock::ColumnSource col : left_.columns) {
      if (col.slot >= left_.prov_width) col.slot += right_.prov_width;
      out.columns.push_back(col);
    }
    for (RowBlock::ColumnSource col : right_.columns) {
      col.slot += col.slot < right_.prov_width ? left_.prov_width : left_.width;
      out.columns.push_back(col);
    }
    out.owned = left_.owned;
    out.owned.insert(out.owned.end(), right_.owned.begin(), right_.owned.end());
    return out;
  }

  /// Cells of residual scratch row one task needs (0 without a residual).
  size_t scratch_size() const {
    return node_.predicate == nullptr
               ? 0
               : static_cast<size_t>(node_.output_schema.num_columns());
  }

  /// Appends pair (l, r)'s tuple to `dst` unless the residual rejects it,
  /// adding the residual's comparisons to the task-local count `ops`. The
  /// residual reads only the columns it references, decoded into `scratch`.
  void Emit(int64_t l, int64_t r, Value* scratch, std::vector<uint32_t>* dst,
            int64_t* ops) const {
    if (node_.predicate != nullptr) {
      *ops += quals_;
      const int lcols = left_.schema.num_columns();
      for (int c : residual_cols_) {
        scratch[c] = c < lcols ? left_.at(l, c) : right_.at(r, c - lcols);
      }
      const RowRef row{scratch, node_.output_schema.num_columns()};
      if (!EvalPredicate(*node_.predicate, row)) return;
    }
    const int lw = left_.width, lp = left_.prov_width;
    const int rw = right_.width, rp = right_.prov_width;
    const uint32_t* lt = left_.row_ids(l);
    const uint32_t* rt = right_.row_ids(r);
    const size_t start = dst->size();
    dst->resize(start + static_cast<size_t>(lw + rw));
    uint32_t* o = dst->data() + start;
    o = std::copy(lt, lt + lp, o);
    o = std::copy(rt, rt + rp, o);
    o = std::copy(lt + lp, lt + lw, o);
    std::copy(rt + rp, rt + rw, o);
  }

 private:
  const PlanNode& node_;
  const RowBlock& left_;
  const RowBlock& right_;
  const int quals_;
  std::vector<int> residual_cols_;  ///< output columns the residual reads
};

double PagesFor(double rows, double width_bytes) {
  if (rows <= 0.0) return 0.0;
  return std::ceil(rows * std::max(8.0, width_bytes) / kPageSizeBytes);
}

/// One group's running aggregates.
struct GroupAccumulator {
  int64_t row = 0;    ///< the group's first row in the aggregate's input
  uint64_t hash = 0;  ///< group-key hash, kept so chunk partials merge cheaply
  std::vector<double> sums;
  std::vector<double> mins;
  std::vector<double> maxs;
  int64_t count = 0;
};

class ExecContext {
 public:
  ExecContext(const Database* db, const ExecOptions& options, int num_operators,
              int num_leaves)
      : db_(db), options_(options) {
    stats_.resize(static_cast<size_t>(num_operators));
    leaf_source_rows_.resize(static_cast<size_t>(num_leaves), 1.0);
  }

  const Table& SourceTable(const PlanNode& node) const {
    if (options_.leaf_overrides != nullptr) {
      const auto& overrides = *options_.leaf_overrides;
      UQP_CHECK(node.leaf_begin >= 0 &&
                node.leaf_begin < static_cast<int>(overrides.size()))
          << "leaf override vector too short";
      return *overrides[static_cast<size_t>(node.leaf_begin)];
    }
    return db_->GetTable(node.table_name);
  }

  bool prov() const { return options_.collect_provenance; }
  int64_t batch() const { return std::max<int64_t>(1, options_.max_batch_size); }

  /// Cooperative cancellation probe, latched: once the caller's token
  /// fires, every subsequent check short-circuits on the atomic without
  /// re-invoking the (potentially costlier) std::function. The latch is a
  /// monotonic flag, so relaxed ordering suffices — a stale `false` read
  /// merely delays the stop by one morsel boundary.
  bool Cancelled() {
    if (!options_.cancelled) return false;
    // Plain atomic flag, deliberately outside the mutex capability model:
    // it carries no data dependency, only a monotonic "stop" signal.
    if (cancel_seen_.load(std::memory_order_relaxed)) return true;
    if (options_.cancelled()) {
      cancel_seen_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Intra-query fan-out is on: shard chunked loops and join children
  /// across the pool.
  bool parallel() const { return options_.task_runner != nullptr; }
  MorselPool* runner() const { return options_.task_runner; }

  OpStats& stats(const PlanNode& node) {
    return stats_[static_cast<size_t>(node.id)];
  }

  void RecordLeafRows(int leaf_pos, double rows) {
    leaf_source_rows_[static_cast<size_t>(leaf_pos)] = rows;
  }
  double LeafProduct(int begin, int end) const {
    double p = 1.0;
    for (int i = begin; i < end; ++i) p *= leaf_source_rows_[static_cast<size_t>(i)];
    return p;
  }

  std::vector<OpStats> TakeStats() { return std::move(stats_); }

 private:
  const Database* db_;
  const ExecOptions& options_;
  std::atomic<bool> cancel_seen_{false};
  std::vector<OpStats> stats_;
  std::vector<double> leaf_source_rows_;
};

class NodeRunner {
 public:
  NodeRunner(ExecContext* ctx, std::vector<RowBlock>* retained)
      : ctx_(ctx), retained_(retained) {}

  StatusOr<RowBlock> Run(const PlanNode& node) {
    // Operator-boundary cancellation checks. The entry check stops a
    // cancelled run before it charges the next operator; the exit check
    // discards output whose shard bodies were skipped mid-flight (a
    // cancelled RunTaskRange leaves partially-built blocks behind).
    if (ctx_->Cancelled()) {
      return Status::DeadlineExceeded("execution cancelled at operator boundary");
    }
    OpStats& st = ctx_->stats(node);
    st.id = node.id;
    st.type = node.type;
    UQP_ASSIGN_OR_RETURN(RowBlock block, RunImpl(node));
    if (ctx_->Cancelled()) {
      return Status::DeadlineExceeded("execution cancelled at operator boundary");
    }
    return block;
  }

 private:
  /// Moves a child's block into the child's retained slot once its parent
  /// has consumed it; a no-op unless intermediates are retained.
  void Retain(const PlanNode& child, RowBlock&& block) {
    if (retained_ != nullptr) {
      (*retained_)[static_cast<size_t>(child.id)] = std::move(block);
    }
  }

  StatusOr<RowBlock> RunImpl(const PlanNode& node) {
    switch (node.type) {
      case OpType::kSeqScan:
        return RunSeqScan(node);
      case OpType::kIndexScan:
        return RunIndexScan(node);
      case OpType::kHashJoin:
        return RunHashJoin(node);
      case OpType::kMergeJoin:
        return RunMergeJoin(node);
      case OpType::kNestLoopJoin:
        return RunNestLoopJoin(node);
      case OpType::kSort:
        return RunSort(node);
      case OpType::kAggregate:
        return RunAggregate(node);
      case OpType::kMaterialize:
        return RunMaterialize(node);
    }
    return Status::Internal("unknown operator type");
  }

  // ----- task dispatch ----------------------------------------------------
  //
  // Every chunked loop has one body over a fixed task decomposition: one
  // task per max_batch_size-row chunk (or per emission-group batch), never
  // shaped by thread count. The helpers below only choose the dispatch:
  // inline in task order without a pool, across the pool with one. Either
  // way results land in task order, and every counter a task accumulates
  // is an integer-valued count (hash ops, chain visits, qual evaluations,
  // sort comparisons), so summing per-task partials regroups the same
  // double additions exactly: output is bit-identical at every thread
  // count.

  int64_t NumChunks(int64_t total) const {
    const int64_t chunk = ctx_->batch();
    return (total + chunk - 1) / chunk;
  }

  /// The one pool/inline fork: runs task indexes [0, n) on the pool when
  /// there is one and more than one task, inline in task order otherwise.
  template <typename Fn>
  void Dispatch(int64_t n, const Fn& fn) {
    if (ctx_->parallel() && n >= 2) {
      ctx_->runner()->RunTasks(n, fn);
    } else {
      for (int64_t t = 0; t < n; ++t) fn(t);
    }
  }

  /// Dispatches a chunked loop's tasks with morsel-boundary cancellation:
  /// each shard re-probes the token before its body, so a request past its
  /// deadline stops consuming pool time within one morsel of the expiry —
  /// without interrupting a shard that is already running.
  void RunTaskRange(int64_t n, const std::function<void(int64_t)>& fn) {
    Dispatch(n, [&](int64_t t) {
      if (ctx_->Cancelled()) return;
      fn(t);
    });
  }

  /// Runs `task_fn(t, rids, stats)` for every task in [0, ntasks) and
  /// appends the row-id tuples the tasks emit to `out` in task order.
  /// Inline (no pool, or fewer than two tasks) every task appends straight
  /// into `out` and `st`. On the pool each task fills a private vector and
  /// partial stats, then the output is assembled two-pass: exact per-task
  /// offsets are prefix-summed, `out` is resized once, and every task's
  /// row ids are placed in its span concurrently — no sequential merge
  /// copy.
  void RunShardedTasks(
      int64_t ntasks, std::vector<uint32_t>* out, OpStats* st,
      const std::function<void(int64_t, std::vector<uint32_t>*, OpStats*)>& task_fn) {
    if (!ctx_->parallel() || ntasks < 2) {
      for (int64_t t = 0; t < ntasks; ++t) {
        if (ctx_->Cancelled()) return;  // see RunTaskRange
        task_fn(t, out, st);
      }
      return;
    }
    std::vector<std::vector<uint32_t>> parts(static_cast<size_t>(ntasks));
    std::vector<OpStats> partials(static_cast<size_t>(ntasks));
    Dispatch(ntasks, [&](int64_t t) {
      // Morsel-boundary cancellation (see RunTaskRange): a cancelled
      // compute pass leaves empty parts; the run's output is discarded
      // at the next operator boundary, so no partial block escapes.
      if (ctx_->Cancelled()) return;
      task_fn(t, &parts[static_cast<size_t>(t)], &partials[static_cast<size_t>(t)]);
    });
    // Sizing: exact prefix offsets per task, one resize of the output.
    const size_t base = out->size();
    std::vector<size_t> off(static_cast<size_t>(ntasks) + 1, 0);
    for (int64_t t = 0; t < ntasks; ++t) {
      off[static_cast<size_t>(t) + 1] =
          off[static_cast<size_t>(t)] + parts[static_cast<size_t>(t)].size();
    }
    out->resize(base + off[static_cast<size_t>(ntasks)]);
    // Placement: every task writes its span of the pre-sized output.
    Dispatch(ntasks, [&](int64_t t) {
      const std::vector<uint32_t>& part = parts[static_cast<size_t>(t)];
      std::copy(part.begin(), part.end(),
                out->begin() + static_cast<std::ptrdiff_t>(base + off[static_cast<size_t>(t)]));
    });
    for (int64_t t = 0; t < ntasks; ++t) {
      st->actual += partials[static_cast<size_t>(t)].actual;
    }
  }

  /// Row-chunk flavor of RunShardedTasks: one task per max_batch_size-row
  /// chunk of [0, total), `chunk_fn(base, nb, rids, stats)`.
  void RunChunks(
      int64_t total, std::vector<uint32_t>* out, OpStats* st,
      const std::function<void(int64_t, int64_t, std::vector<uint32_t>*, OpStats*)>&
          chunk_fn) {
    const int64_t chunk = ctx_->batch();
    RunShardedTasks(NumChunks(total), out, st,
                    [&](int64_t c, std::vector<uint32_t>* dst, OpStats* pst) {
                      const int64_t base = c * chunk;
                      const int64_t nb = std::min(chunk, total - base);
                      chunk_fn(base, nb, dst, pst);
                    });
  }

  /// The scans' filter: the row ids of `src` that satisfy `pred`, in
  /// order. The candidates are rows rids[0..n) (an index scan's matches),
  /// or rows 0..n-1 when `rids` is null. One task per chunk evaluates the
  /// predicate over the column arrays into the chunk's mask and compacts
  /// its survivors' row ids into the chunk's span of the selection vector;
  /// the spans are then slid together in chunk order, and the compacted
  /// selection vector is the scan's output.
  std::vector<uint32_t> FilterRows(const Expr& pred, const Table& src, int64_t n,
                                   const uint32_t* rids) {
    const int64_t chunk = ctx_->batch();
    const int64_t nchunks = NumChunks(n);
    std::vector<uint8_t> mask(static_cast<size_t>(n));
    std::vector<uint32_t> sel(static_cast<size_t>(n));
    std::vector<int64_t> counts(static_cast<size_t>(nchunks), 0);
    RunTaskRange(nchunks, [&](int64_t c) {
      const int64_t base = c * chunk;
      const int64_t nb = std::min(chunk, n - base);
      uint8_t* chunk_mask = mask.data() + base;
      const uint32_t* chunk_rids = rids == nullptr ? nullptr : rids + base;
      EvalPredicateColumns(pred, src, base, chunk_rids, nb, chunk_mask);
      // Branch-free compaction: every candidate is written at the next
      // free position, which only a survivor advances (count <= i < nb).
      uint32_t* chunk_sel = sel.data() + base;
      int64_t count = 0;
      if (chunk_rids == nullptr) {
        for (int64_t i = 0; i < nb; ++i) {
          chunk_sel[count] = static_cast<uint32_t>(base + i);
          count += chunk_mask[i] != 0;
        }
      } else {
        for (int64_t i = 0; i < nb; ++i) {
          chunk_sel[count] = chunk_rids[i];
          count += chunk_mask[i] != 0;
        }
      }
      counts[static_cast<size_t>(c)] = count;
    });
    // A chunk's survivors never move past its own start, so one forward
    // pass compacts without overwriting any survivor not yet moved.
    int64_t total = 0;
    for (int64_t c = 0; c < nchunks; ++c) {
      const uint32_t* chunk_sel = sel.data() + c * chunk;
      const int64_t count = counts[static_cast<size_t>(c)];
      if (total != c * chunk) std::copy(chunk_sel, chunk_sel + count, sel.data() + total);
      total += count;
    }
    sel.resize(static_cast<size_t>(total));
    return sel;
  }

  /// Runs both children of a binary operator as two tasks, concurrently
  /// when the intra-query pool is on (independent subtrees touch disjoint
  /// stats / retained-block slots). Errors keep the sequential precedence:
  /// the left child's status wins, and a right child not yet started when
  /// the left one fails never starts (inline: none of its operators runs).
  /// Run's own entry check turns cancellation into DeadlineExceeded.
  Status RunChildren(const PlanNode& node, RowBlock* left, RowBlock* right) {
    StatusOr<RowBlock> l = Status::DeadlineExceeded("child skipped");
    StatusOr<RowBlock> r = l.status();
    std::atomic<bool> left_failed{false};
    Dispatch(2, [&](int64_t i) {
      if (i == 0) {
        l = Run(*node.left);
        if (!l.ok()) left_failed = true;
      } else if (!left_failed) {
        r = Run(*node.right);
      }
    });
    if (!l.ok()) return l.status();
    if (!r.ok()) return r.status();
    *left = std::move(l).value();
    *right = std::move(r).value();
    return Status::OK();
  }

  StatusOr<RowBlock> RunSeqScan(const PlanNode& node) {
    const Table& src = ctx_->SourceTable(node);
    OpStats& st = ctx_->stats(node);
    ctx_->RecordLeafRows(node.leaf_begin, static_cast<double>(src.num_rows()));

    RowBlock out = TableBlock(node.output_schema, src, ctx_->prov());
    const int quals = PredicateOpCount(node.predicate.get());
    const int64_t rows = src.num_rows();
    st.actual.ns += static_cast<double>(src.num_pages());
    st.actual.nt += static_cast<double>(rows);
    st.actual.no += static_cast<double>(rows) * quals;

    if (node.predicate == nullptr) {
      out.rids.resize(static_cast<size_t>(rows));
      std::iota(out.rids.begin(), out.rids.end(), uint32_t{0});
    } else {
      out.rids = FilterRows(*node.predicate, src, rows, /*rids=*/nullptr);
    }
    st.out_rows = static_cast<double>(out.num_rows());
    return out;
  }

  StatusOr<RowBlock> RunIndexScan(const PlanNode& node) {
    const Table& src = ctx_->SourceTable(node);
    OpStats& st = ctx_->stats(node);
    ctx_->RecordLeafRows(node.leaf_begin, static_cast<double>(src.num_rows()));

    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    bool has_range = false, pure = true;
    CollectIndexRange(node.predicate.get(), node.index_column, &lo, &hi,
                      &has_range, &pure);
    if (!has_range) {
      return Status::InvalidArgument(
          "index scan predicate has no range over the indexed column");
    }
    const std::vector<uint32_t>& index = src.OrderedIndex(node.index_column);
    const int64_t n = src.num_rows();

    // Binary search for the boundaries in the ordered index.
    auto value_at = [&src, &node](uint32_t rid) {
      return src.at(rid, node.index_column).AsDouble();
    };
    const auto begin_it =
        std::lower_bound(index.begin(), index.end(), lo,
                         [&](uint32_t rid, double v) { return value_at(rid) < v; });
    const auto end_it =
        std::upper_bound(begin_it, index.end(), hi,
                         [&](double v, uint32_t rid) { return v < value_at(rid); });

    RowBlock out = TableBlock(node.output_schema, src, ctx_->prov());
    const int quals = PredicateOpCount(node.predicate.get());
    const int64_t matches = end_it - begin_it;
    // Distinct heap pages touched: one seen-flag per page of the table.
    std::vector<uint8_t> page_seen(static_cast<size_t>(src.num_pages()), 0);
    const int64_t rows_per_page = src.rows_per_page();
    int64_t pages_touched = 0;
    for (auto it = begin_it; it != end_it; ++it) {
      uint8_t& seen = page_seen[static_cast<size_t>(*it / rows_per_page)];
      pages_touched += seen == 0;
      seen = 1;
    }
    const uint32_t* rids = index.data() + (begin_it - index.begin());
    if (!pure && node.predicate != nullptr) {
      // Residual filter: the full predicate runs on the matched rids, in
      // index order.
      out.rids = FilterRows(*node.predicate, src, matches, rids);
    } else {
      out.rids.assign(rids, rids + matches);
    }
    st.actual.ni += static_cast<double>(matches) + std::log2(std::max<double>(2.0, static_cast<double>(n)));
    st.actual.nr += static_cast<double>(pages_touched);
    st.actual.nt += static_cast<double>(matches);
    st.actual.no += static_cast<double>(matches) * quals;
    st.out_rows = static_cast<double>(out.num_rows());
    return out;
  }

  StatusOr<RowBlock> RunHashJoin(const PlanNode& node) {
    RowBlock left, right;
    UQP_RETURN_IF_ERROR(RunChildren(node, &left, &right));
    OpStats& st = ctx_->stats(node);
    st.left_rows = static_cast<double>(left.num_rows());
    st.right_rows = static_cast<double>(right.num_rows());

    std::vector<int> lcols, rcols;
    for (const auto& [l, r] : node.join_keys) {
      lcols.push_back(l);
      rcols.push_back(r);
    }

    const int64_t chunk = ctx_->batch();

    // Build on the right input: hash every build row (chunks shard across
    // the pool), then link the rows into the table in one sequential pass.
    // A probe visits the build rows with its exact hash in build-row order
    // at any thread count, which keeps the probe output order bit-identical.
    const int64_t rn = right.num_rows();
    std::vector<uint64_t> build_hashes(static_cast<size_t>(rn));
    RunTaskRange(NumChunks(rn), [&](int64_t c) {
      const int64_t base = c * chunk;
      HashRowKeys(right, rcols, base, std::min(chunk, rn - base),
                  build_hashes.data() + base);
    });
    st.actual.no += static_cast<double>(rn);  // build-side hash ops
    const JoinTable table(build_hashes);

    const JoinEmitter emitter(node, left, right);
    RowBlock out = emitter.OutputBlock();
    // Probe in chunks: hash a chunk of probe keys, then visit each probe
    // row's equal-hash build rows, appending matches' row-id tuples to the
    // chunk's output.
    const auto probe_chunk = [&](int64_t base, int64_t nb,
                                 std::vector<uint32_t>* dst, OpStats* pst) {
      std::vector<Value> scratch(emitter.scratch_size());
      std::vector<uint64_t> hashes(static_cast<size_t>(nb));
      HashRowKeys(left, lcols, base, nb, hashes.data());
      int64_t ops = nb;  // probe-side hash ops
      for (int64_t i = 0; i < nb; ++i) {
        const int64_t l = base + i;
        table.ForEachRow(hashes[static_cast<size_t>(i)], [&](uint32_t r) {
          ++ops;  // chain visit / key compare
          if (KeysEqual(left, l, lcols, right, r, rcols)) {
            emitter.Emit(l, r, scratch.data(), dst, &ops);
          }
          return true;
        });
      }
      pst->actual.no += static_cast<double>(ops);
    };
    RunChunks(left.num_rows(), &out.rids, &st, probe_chunk);
    st.out_rows = static_cast<double>(out.num_rows());
    st.actual.nt += st.out_rows;
    // Grace-hash spill I/O if the build side exceeds work_mem.
    const double build_bytes =
        st.right_rows * node.right->output_schema.TupleWidthBytes();
    if (build_bytes > kEngineConfig.work_mem_bytes) {
      st.actual.ns +=
          2.0 * (PagesFor(st.left_rows, node.left->output_schema.TupleWidthBytes()) +
                 PagesFor(st.right_rows, node.right->output_schema.TupleWidthBytes()));
    }
    Retain(*node.left, std::move(left));
    Retain(*node.right, std::move(right));
    return out;
  }

  StatusOr<RowBlock> RunMergeJoin(const PlanNode& node) {
    if (node.join_keys.size() != 1) {
      return Status::InvalidArgument("merge join supports exactly one key");
    }
    RowBlock left, right;
    UQP_RETURN_IF_ERROR(RunChildren(node, &left, &right));
    OpStats& st = ctx_->stats(node);
    st.left_rows = static_cast<double>(left.num_rows());
    st.right_rows = static_cast<double>(right.num_rows());

    const int lc = node.join_keys[0].first;
    const int rc = node.join_keys[0].second;

    const JoinEmitter emitter(node, left, right);
    RowBlock out = emitter.OutputBlock();

    // Phase 1 — the two-pointer walk stays sequential and defines the
    // comparison counter exactly as before; it now only records the
    // equal-group boundaries instead of emitting inside the loop.
    struct EqualGroup {
      int64_t li, le, ri, re;
    };
    std::vector<EqualGroup> eq_groups;
    int64_t li = 0, ri = 0;
    const int64_t ln = left.num_rows(), rn = right.num_rows();
    while (li < ln && ri < rn) {
      st.actual.no += 1.0;
      const int cmp = ValueCompare3(left.at(li, lc), right.at(ri, rc));
      if (cmp < 0) {
        ++li;
        continue;
      }
      if (cmp > 0) {
        ++ri;
        continue;
      }
      // Equal group: [li, le) x [ri, re). A NaN group is walked past like
      // any other but emits nothing: NaN equals no key (Value::Equals), so
      // hash and nest-loop joins never match it either.
      int64_t le = li + 1;
      while (le < ln) {
        st.actual.no += 1.0;
        if (ValueCompare3(left.at(le, lc), left.at(li, lc)) != 0) break;
        ++le;
      }
      int64_t re = ri + 1;
      while (re < rn) {
        st.actual.no += 1.0;
        if (ValueCompare3(right.at(re, rc), right.at(ri, rc)) != 0) break;
        ++re;
      }
      if (!IsNan(left.at(li, lc))) eq_groups.push_back({li, le, ri, re});
      li = le;
      ri = re;
    }

    // Phase 2 — cross-product emission in tasks: consecutive groups batch
    // into tasks of roughly max_batch_size output pairs (an input-derived
    // decomposition — thread count never shapes it), each task emits its
    // groups in order, and task outputs land in task order.
    std::vector<size_t> task_bounds{0};
    int64_t pending_pairs = 0;
    for (size_t g = 0; g < eq_groups.size(); ++g) {
      const EqualGroup& eq = eq_groups[g];
      pending_pairs += (eq.le - eq.li) * (eq.re - eq.ri);
      if (pending_pairs >= ctx_->batch()) {
        task_bounds.push_back(g + 1);
        pending_pairs = 0;
      }
    }
    if (task_bounds.back() < eq_groups.size()) {
      task_bounds.push_back(eq_groups.size());
    }
    RunShardedTasks(
        static_cast<int64_t>(task_bounds.size()) - 1, &out.rids, &st,
        [&](int64_t t, std::vector<uint32_t>* dst, OpStats* pst) {
          std::vector<Value> scratch(emitter.scratch_size());
          int64_t ops = 0;
          const size_t gend = task_bounds[static_cast<size_t>(t) + 1];
          for (size_t g = task_bounds[static_cast<size_t>(t)]; g < gend; ++g) {
            const EqualGroup& eq = eq_groups[g];
            for (int64_t a = eq.li; a < eq.le; ++a) {
              for (int64_t b = eq.ri; b < eq.re; ++b) {
                emitter.Emit(a, b, scratch.data(), dst, &ops);
              }
            }
          }
          pst->actual.no += static_cast<double>(ops);
        });
    st.out_rows = static_cast<double>(out.num_rows());
    st.actual.nt += st.out_rows;
    Retain(*node.left, std::move(left));
    Retain(*node.right, std::move(right));
    return out;
  }

  StatusOr<RowBlock> RunNestLoopJoin(const PlanNode& node) {
    RowBlock left, right;
    UQP_RETURN_IF_ERROR(RunChildren(node, &left, &right));
    OpStats& st = ctx_->stats(node);
    st.left_rows = static_cast<double>(left.num_rows());
    st.right_rows = static_cast<double>(right.num_rows());

    std::vector<int> lcols, rcols;
    for (const auto& [l, r] : node.join_keys) {
      lcols.push_back(l);
      rcols.push_back(r);
    }

    const JoinEmitter emitter(node, left, right);
    RowBlock out = emitter.OutputBlock();
    const int64_t rn = right.num_rows();
    // Outer loop in left-row chunks (output order is left-row order).
    const auto outer_chunk = [&](int64_t base, int64_t nb,
                                 std::vector<uint32_t>* dst, OpStats* pst) {
      std::vector<Value> scratch(emitter.scratch_size());
      int64_t ops = 0;
      for (int64_t l = base; l < base + nb; ++l) {
        ops += rn;  // per-pair key comparisons
        for (int64_t r = 0; r < rn; ++r) {
          if (!lcols.empty() && !KeysEqual(left, l, lcols, right, r, rcols)) {
            continue;
          }
          emitter.Emit(l, r, scratch.data(), dst, &ops);
        }
      }
      pst->actual.no += static_cast<double>(ops);
    };
    RunChunks(left.num_rows(), &out.rids, &st, outer_chunk);
    st.out_rows = static_cast<double>(out.num_rows());
    st.actual.nt += st.out_rows;
    Retain(*node.left, std::move(left));
    Retain(*node.right, std::move(right));
    return out;
  }

  StatusOr<RowBlock> RunSort(const PlanNode& node) {
    UQP_ASSIGN_OR_RETURN(RowBlock in, Run(*node.left));
    OpStats& st = ctx_->stats(node);
    st.left_rows = static_cast<double>(in.num_rows());

    // Fixed-shape blocked merge sort. Leaf blocks of max_batch_size rows
    // are sorted independently, then merged pairwise up a tree whose shape
    // is fully determined by (row count, batch size) — never by thread
    // count. Leaf sorts, same-level merges and the permuted output writes
    // all dispatch as independent tasks; the comparison count is the sum
    // of per-task integer counts accumulated in task order, so the counter
    // and the output are bit-identical at every thread count.
    const int64_t n = in.num_rows();
    const int64_t block = ctx_->batch();
    const int64_t nleaves = n > 0 ? NumChunks(n) : 0;
    // Sort keys are decoded once per row, chunk by chunk.
    const size_t nkeys = node.sort_columns.size();
    std::vector<Value> keys(static_cast<size_t>(n) * nkeys);
    RunTaskRange(nleaves, [&](int64_t c) {
      const int64_t hi = std::min(n, (c + 1) * block);
      for (int64_t r = c * block; r < hi; ++r) {
        for (size_t k = 0; k < nkeys; ++k) {
          keys[static_cast<size_t>(r) * nkeys + k] = in.at(r, node.sort_columns[k]);
        }
      }
    });
    // Total order: sort columns first, original row index as tiebreak —
    // no two indexes compare equal, so the sorted permutation is unique.
    const auto row_less = [&](uint32_t a, uint32_t b) {
      const Value* ka = keys.data() + static_cast<size_t>(a) * nkeys;
      const Value* kb = keys.data() + static_cast<size_t>(b) * nkeys;
      for (size_t k = 0; k < nkeys; ++k) {
        const int cmp = ValueCompare3(ka[k], kb[k]);
        if (cmp != 0) return cmp < 0;
      }
      return a < b;
    };

    std::vector<uint32_t> order(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      order[static_cast<size_t>(i)] = static_cast<uint32_t>(i);
    }
    int64_t comparisons = 0;
    {
      // Leaf sorts: each block sorted independently, counting comparisons
      // in a local and storing the count once into its own slot (adjacent
      // slots share a cache line, so per-comparison stores would bounce it
      // between the threads sorting neighbouring leaves).
      std::vector<int64_t> leaf_comps(static_cast<size_t>(nleaves), 0);
      RunTaskRange(nleaves, [&](int64_t l) {
        const int64_t lo = l * block;
        const int64_t hi = std::min(n, lo + block);
        int64_t comps = 0;
        // Leaf blocks are carved by max_batch_size only (never thread
        // count), each is sorted with a total order (row_less tie-breaks
        // on rid), and the counter sums per-leaf slots in leaf order.
        // det-lint: fixed-shape
        std::sort(order.begin() + lo, order.begin() + hi,
                  [&](uint32_t a, uint32_t b) {
                    ++comps;
                    return row_less(a, b);
                  });
        leaf_comps[static_cast<size_t>(l)] = comps;
      });
      for (int64_t l = 0; l < nleaves; ++l) {
        comparisons += leaf_comps[static_cast<size_t>(l)];
      }
    }
    // Merge tree: at each level, runs of `width` rows merge pairwise; an
    // unpaired tail run carries over untouched. Same-level merges are
    // independent tasks with per-merge comparison counts.
    std::vector<uint32_t> buffer(static_cast<size_t>(n));
    uint32_t* src = order.data();
    uint32_t* dst = buffer.data();
    for (int64_t width = block; width < n; width *= 2) {
      const int64_t nmerges = (n + 2 * width - 1) / (2 * width);
      std::vector<int64_t> merge_comps(static_cast<size_t>(nmerges), 0);
      RunTaskRange(nmerges, [&](int64_t m) {
        const int64_t lo = m * 2 * width;
        const int64_t mid = std::min(n, lo + width);
        const int64_t hi = std::min(n, lo + 2 * width);
        if (mid >= hi) {  // unpaired tail: carry over, no comparisons
          std::copy(src + lo, src + hi, dst + lo);
          return;
        }
        int64_t comps = 0;
        int64_t i = lo, j = mid, k = lo;
        while (i < mid && j < hi) {
          ++comps;
          if (row_less(src[j], src[i])) {
            dst[k++] = src[j++];
          } else {
            dst[k++] = src[i++];
          }
        }
        std::copy(src + i, src + mid, dst + k);
        std::copy(src + j, src + hi, dst + k + (mid - i));
        merge_comps[static_cast<size_t>(m)] = comps;
      });
      for (int64_t m = 0; m < nmerges; ++m) {
        comparisons += merge_comps[static_cast<size_t>(m)];
      }
      std::swap(src, dst);
    }
    const uint32_t* sorted = src;

    // Permuted output, written in place: size the output once, then each
    // chunk of the permutation copies its rows' row-id tuples into its
    // span of the output.
    RowBlock out;
    out.schema = in.schema;
    out.columns = in.columns;
    out.width = in.width;
    out.prov_width = in.prov_width;
    out.owned = in.owned;
    const int w = in.width;
    out.rids.resize(static_cast<size_t>(n * w));
    RunTaskRange(nleaves, [&](int64_t c) {
      const int64_t base = c * block;
      const int64_t nb = std::min(block, n - base);
      uint32_t* dst = out.rids.data() + base * w;
      for (int64_t i = 0; i < nb; ++i) {
        const uint32_t* t = in.row_ids(sorted[base + i]);
        std::copy(t, t + w, dst + i * w);
      }
    });
    st.actual.no += static_cast<double>(comparisons);
    st.actual.nt += static_cast<double>(n);
    const double bytes = static_cast<double>(n) * in.schema.TupleWidthBytes();
    if (bytes > kEngineConfig.work_mem_bytes) {
      st.actual.ns += 3.0 * PagesFor(static_cast<double>(n),
                                     in.schema.TupleWidthBytes());
    }
    st.out_rows = static_cast<double>(n);
    Retain(*node.left, std::move(in));
    return out;
  }

  StatusOr<RowBlock> RunAggregate(const PlanNode& node) {
    UQP_ASSIGN_OR_RETURN(RowBlock in, Run(*node.left));
    OpStats& st = ctx_->stats(node);
    st.left_rows = static_cast<double>(in.num_rows());

    // Sharded aggregation with a pinned output contract: groups emit in
    // FIRST-APPEARANCE order of their key in the input. Each
    // max_batch_size-row chunk groups its rows in chunk-local
    // first-appearance order; the chunk partials then combine through a
    // width-doubling pairwise merge tree (same fixed-shape contract as the
    // sort's merge tree): the tree's shape depends only on the chunk count
    // — i.e. on row count and max_batch_size — never on thread count, so
    // the same merges happen in the same pairing at every thread count and
    // the output is bit-identical. Ordered-union merging (left partial's
    // order wins, the right partial's new groups append in their local
    // first-appearance order) is associative, so the tree reproduces the
    // sequential scan's global first-appearance order exactly.
    const std::vector<int>& keys = node.group_columns;
    const size_t nagg = node.aggregates.size();
    const int64_t rows = in.num_rows();
    const int64_t chunk = ctx_->batch();
    const int64_t nchunks = rows > 0 ? NumChunks(rows) : 0;
    st.actual.no += static_cast<double>(rows);  // group hash / transition ops

    std::vector<std::vector<GroupAccumulator>> locals(static_cast<size_t>(nchunks));
    RunTaskRange(nchunks, [&](int64_t c) {
      const int64_t base = c * chunk;
      const int64_t nb = std::min(chunk, rows - base);
      std::vector<GroupAccumulator>& groups = locals[static_cast<size_t>(c)];
      std::vector<uint64_t> hashes(static_cast<size_t>(nb));
      HashRowKeys(in, keys, base, nb, hashes.data());
      const JoinTable table(hashes);
      std::vector<uint32_t> group_of(static_cast<size_t>(nb));
      for (uint32_t i = 0; i < static_cast<uint32_t>(nb); ++i) {
        const int64_t r = base + i;
        // The row joins the group of the first earlier row with equal keys
        // (its chain lists rows in ascending order); a row without one,
        // such as any row with a NaN key, starts a group.
        uint32_t first = i;
        table.ForEachRow(hashes[i], [&](uint32_t j) {
          if (j == i) return false;
          if (!KeysEqual(in, base + j, keys, in, r, keys)) return true;
          first = j;
          return false;
        });
        if (first == i) {
          group_of[i] = static_cast<uint32_t>(groups.size());
          GroupAccumulator fresh;
          fresh.row = r;
          fresh.hash = hashes[i];
          fresh.sums.assign(nagg, 0.0);
          fresh.mins.assign(nagg, std::numeric_limits<double>::infinity());
          fresh.maxs.assign(nagg, -std::numeric_limits<double>::infinity());
          groups.push_back(std::move(fresh));
        } else {
          group_of[i] = group_of[first];
        }
        GroupAccumulator& acc = groups[group_of[i]];
        ++acc.count;
        for (size_t a = 0; a < nagg; ++a) {
          const AggSpec& spec = node.aggregates[a];
          if (spec.kind == AggSpec::Kind::kCount) continue;
          const double v = PayloadAsDouble(in.columns[static_cast<size_t>(spec.column)].type,
                                           in.payload(r, spec.column));
          acc.sums[a] += v;
          acc.mins[a] = std::min(acc.mins[a], v);
          acc.maxs[a] = std::max(acc.maxs[a], v);
        }
      }
    });

    // Pairwise tree-merge of the chunk partials. Each level pairs
    // locals[lo] with locals[lo + width] and folds the right partial into
    // the left (first chunk that saw a key keeps its output position);
    // pairs at one level touch disjoint partials, so they merge in
    // parallel, and the tree does O(log nchunks) levels of halving work.
    // Only the left partial's groups are looked up: the right partial's
    // groups are pairwise distinct, so none matches one appended here.
    const auto merge_pair = [&](std::vector<GroupAccumulator>* left,
                                std::vector<GroupAccumulator>* right) {
      std::vector<uint64_t> hashes;
      hashes.reserve(left->size());
      for (const GroupAccumulator& acc : *left) hashes.push_back(acc.hash);
      const JoinTable table(hashes);
      for (GroupAccumulator& acc : *right) {
        GroupAccumulator* into = nullptr;
        table.ForEachRow(acc.hash, [&](uint32_t g) {
          GroupAccumulator& cand = (*left)[g];
          if (!KeysEqual(in, cand.row, keys, in, acc.row, keys)) return true;
          into = &cand;
          return false;
        });
        if (into == nullptr) {
          left->push_back(std::move(acc));
          continue;
        }
        into->count += acc.count;
        for (size_t a = 0; a < nagg; ++a) {
          into->sums[a] += acc.sums[a];
          into->mins[a] = std::min(into->mins[a], acc.mins[a]);
          into->maxs[a] = std::max(into->maxs[a], acc.maxs[a]);
        }
      }
      right->clear();
    };
    for (int64_t width = 1; width < nchunks; width *= 2) {
      std::vector<int64_t> lefts;
      for (int64_t lo = 0; lo + width < nchunks; lo += 2 * width) {
        lefts.push_back(lo);
      }
      // Partials without a partner at this level carry over untouched.
      RunTaskRange(static_cast<int64_t>(lefts.size()), [&](int64_t p) {
        const int64_t lo = lefts[static_cast<size_t>(p)];
        merge_pair(&locals[static_cast<size_t>(lo)],
                   &locals[static_cast<size_t>(lo + width)]);
      });
    }
    std::vector<GroupAccumulator> merged;
    if (nchunks > 0) merged = std::move(locals[0]);

    // The groups become a small columnar table the output block (and every
    // block derived from it) co-owns; provenance does not flow through.
    auto groups = std::make_shared<Table>("aggregate", node.output_schema);
    groups->Reserve(static_cast<int64_t>(merged.size()));
    std::vector<Value> row;
    for (const GroupAccumulator& acc : merged) {
      row.clear();
      for (const int g : keys) row.push_back(in.at(acc.row, g));
      for (size_t a = 0; a < nagg; ++a) {
        const AggSpec& spec = node.aggregates[a];
        double v = 0.0;
        switch (spec.kind) {
          case AggSpec::Kind::kCount:
            v = static_cast<double>(acc.count);
            break;
          case AggSpec::Kind::kSum:
            v = acc.sums[a];
            break;
          case AggSpec::Kind::kMin:
            v = acc.mins[a];
            break;
          case AggSpec::Kind::kMax:
            v = acc.maxs[a];
            break;
          case AggSpec::Kind::kAvg:
            v = acc.count > 0 ? acc.sums[a] / static_cast<double>(acc.count)
                              : 0.0;
            break;
        }
        row.push_back(Value::Double(v));
      }
      groups->AppendRow(row);
      st.actual.no += 1.0;  // finalize op
    }
    RowBlock out = TableBlock(node.output_schema, *groups, /*prov=*/false);
    out.rids.resize(static_cast<size_t>(groups->num_rows()));
    std::iota(out.rids.begin(), out.rids.end(), uint32_t{0});
    out.owned.push_back(std::move(groups));
    st.out_rows = static_cast<double>(out.num_rows());
    st.actual.nt += st.out_rows;
    Retain(*node.left, std::move(in));
    return out;
  }

  StatusOr<RowBlock> RunMaterialize(const PlanNode& node) {
    UQP_ASSIGN_OR_RETURN(RowBlock in, Run(*node.left));
    OpStats& st = ctx_->stats(node);
    st.left_rows = static_cast<double>(in.num_rows());
    st.actual.no += static_cast<double>(in.num_rows());
    st.actual.nt += static_cast<double>(in.num_rows());
    const double bytes =
        static_cast<double>(in.num_rows()) * in.schema.TupleWidthBytes();
    if (bytes > kEngineConfig.work_mem_bytes) {
      st.actual.ns += 2.0 * PagesFor(static_cast<double>(in.num_rows()),
                                     in.schema.TupleWidthBytes());
    }
    st.out_rows = static_cast<double>(in.num_rows());
    if (retained_ != nullptr) {
      Retain(*node.left, RowBlock(in));  // copy: `in` is also our output
    }
    return in;
  }

  ExecContext* ctx_;
  std::vector<RowBlock>* retained_;
};

}  // namespace

StatusOr<ExecResult> Executor::Execute(const Plan& plan,
                                       const ExecOptions& options) const {
  if (plan.root() == nullptr) return Status::InvalidArgument("empty plan");
  if (plan.root()->id != 0) {
    return Status::FailedPrecondition("plan must be finalized before execution");
  }
  if (options.leaf_overrides != nullptr &&
      static_cast<int>(options.leaf_overrides->size()) != plan.num_leaves()) {
    return Status::InvalidArgument("leaf override count mismatch");
  }
  ExecContext ctx(db_, options, plan.num_operators(), plan.num_leaves());
  ExecResult result;
  if (options.retain_intermediates) {
    result.blocks.resize(static_cast<size_t>(plan.num_operators()));
  }
  NodeRunner runner(&ctx, options.retain_intermediates ? &result.blocks : nullptr);
  UQP_ASSIGN_OR_RETURN(result.output, runner.Run(*plan.root()));
  if (options.retain_intermediates) {
    result.blocks[static_cast<size_t>(plan.root()->id)] = result.output;  // copy
  }
  result.ops = ctx.TakeStats();
  // Fill leaf-row products per node from the bound source tables.
  for (const PlanNode* node : plan.NodesPreorder()) {
    result.ops[static_cast<size_t>(node->id)].leaf_row_product =
        ctx.LeafProduct(node->leaf_begin, node->leaf_end);
  }
  return result;
}

}  // namespace uqp
