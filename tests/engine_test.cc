// Executor correctness tests: every physical operator is checked against a
// naive reference evaluation on small synthetic tables, and the resource
// counters are checked against their defining formulas.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/cardinality.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "engine/planner.h"
#include "math/rng.h"
#include "storage/database.h"

namespace uqp {
namespace {

/// Small deterministic test database:
///   t1(a int, b double, tag string)  -- 200 rows, a = i % 50, b = i
///   t2(k int, w double)              -- 40 rows,  k = i % 50, w = 2 i
Database MakeTestDb() {
  Database db("engine-test");
  {
    Table t1("t1", Schema({{"a", ValueType::kInt64},
                           {"b", ValueType::kDouble},
                           {"tag", ValueType::kString, 4}}));
    for (int i = 0; i < 200; ++i) {
      t1.AppendRow({Value::Int64(i % 50), Value::Double(i),
                    Value::String(i % 3 == 0 ? "x" : "y")});
    }
    t1.DeclareIndex(1);
    db.AddTable(std::move(t1));
  }
  {
    Table t2("t2", Schema({{"k", ValueType::kInt64}, {"w", ValueType::kDouble}}));
    for (int i = 0; i < 40; ++i) {
      t2.AppendRow({Value::Int64(i % 50), Value::Double(2 * i)});
    }
    db.AddTable(std::move(t2));
  }
  db.AnalyzeAll(16);
  return db;
}

ExecResult MustExecute(const Database& db, Plan* plan,
                       ExecOptions options = ExecOptions()) {
  EXPECT_TRUE(plan->Finalize(db).ok());
  Executor executor(&db);
  auto result = executor.Execute(*plan, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Row `r` of `t`, built cell by cell from Table::at.
std::vector<Value> TableRow(const Table& t, int64_t r) {
  std::vector<Value> row;
  for (int c = 0; c < t.schema().num_columns(); ++c) row.push_back(t.at(r, c));
  return row;
}

/// A block's provenance, row after row: prov_width ids per row.
std::vector<uint32_t> Provenance(const RowBlock& block) {
  std::vector<uint32_t> out;
  for (int64_t r = 0; r < block.num_rows(); ++r) {
    out.insert(out.end(), block.prov_row(r), block.prov_row(r) + block.prov_width);
  }
  return out;
}

/// Order-insensitive multiset comparison of result rows.
std::multiset<std::string> RowFingerprints(const RowBlock& block) {
  std::multiset<std::string> out;
  for (int64_t r = 0; r < block.num_rows(); ++r) {
    std::string key;
    for (int c = 0; c < block.schema.num_columns(); ++c) {
      key += block.at(r, c).ToString();
      key += "|";
    }
    out.insert(key);
  }
  return out;
}

// ---------- Scans ----------

TEST(Executor, SeqScanFilterMatchesReference) {
  Database db = MakeTestDb();
  const Table& t1 = db.GetTable("t1");
  // a = i % 50 < 10 <-> i % 50 in [0, 10) -> 4 * 10 = 40 rows in four
  // contiguous runs; adding tag = "x" (i % 3 == 0) scatters 14 of them.
  const ExprPtr range = Expr::Cmp(0, CmpOp::kLt, Value::Int64(10));
  const std::vector<std::pair<ExprPtr, size_t>> cases = {
      {range, 40}, {Expr::And(range, Expr::StrEq(2, "x")), 14}};
  MorselPool pool(3);
  for (const auto& [pred, expected_rows] : cases) {
    // Reference: a row-at-a-time filter of t1, in table order, over rows
    // built cell by cell from Table::at.
    std::vector<uint32_t> expected_rids;
    for (int64_t i = 0; i < t1.num_rows(); ++i) {
      const std::vector<Value> row = TableRow(t1, i);
      if (EvalPredicate(*pred, RowRef{row.data(), 3})) {
        expected_rids.push_back(static_cast<uint32_t>(i));
      }
    }
    ASSERT_EQ(expected_rids.size(), expected_rows);
    for (MorselPool* runner : {static_cast<MorselPool*>(nullptr),
                               static_cast<MorselPool*>(&pool)}) {
      for (const int64_t batch : {int64_t{1}, int64_t{7}, int64_t{1024}}) {
        SCOPED_TRACE(std::to_string(expected_rows) + " rows, batch " +
                     std::to_string(batch) +
                     (runner == nullptr ? ", no pool" : ", pool"));
        ExecOptions options;
        options.collect_provenance = true;
        options.max_batch_size = batch;
        options.task_runner = runner;
        Plan plan(MakeSeqScan("t1", pred));
        const ExecResult result = MustExecute(db, &plan, options);
        ASSERT_EQ(result.output.num_rows(),
                  static_cast<int64_t>(expected_rids.size()));
        EXPECT_EQ(Provenance(result.output), expected_rids);
        for (int64_t r = 0; r < result.output.num_rows(); ++r) {
          const std::vector<Value> want =
              TableRow(t1, expected_rids[static_cast<size_t>(r)]);
          for (int c = 0; c < result.output.schema.num_columns(); ++c) {
            EXPECT_TRUE(result.output.at(r, c).Equals(want[static_cast<size_t>(c)]))
                << "row " << r << " col " << c;
          }
        }
      }
    }
  }
}

TEST(Executor, SeqScanCountersMatchFormulas) {
  Database db = MakeTestDb();
  Plan plan(MakeSeqScan("t1", Expr::Cmp(0, CmpOp::kLt, Value::Int64(10))));
  const ExecResult result = MustExecute(db, &plan);
  const Table& t1 = db.GetTable("t1");
  const OpStats& st = result.ops[0];
  EXPECT_DOUBLE_EQ(st.actual.ns, static_cast<double>(t1.num_pages()));
  EXPECT_DOUBLE_EQ(st.actual.nt, 200.0);
  EXPECT_DOUBLE_EQ(st.actual.no, 200.0);  // one comparison per tuple
  EXPECT_DOUBLE_EQ(st.actual.nr, 0.0);
  EXPECT_DOUBLE_EQ(st.out_rows, 40.0);
  EXPECT_DOUBLE_EQ(st.leaf_row_product, 200.0);
  EXPECT_DOUBLE_EQ(st.selectivity(), 0.2);
}

class IndexVsSeqScan : public ::testing::TestWithParam<double> {};

TEST_P(IndexVsSeqScan, SameResults) {
  // Index scan over b <= v must return exactly what the seq scan returns.
  const double v = GetParam();
  Database db = MakeTestDb();
  Plan seq(MakeSeqScan("t1", Expr::Cmp(1, CmpOp::kLe, Value::Double(v))));
  Plan idx(MakeIndexScan("t1", 1, Expr::Cmp(1, CmpOp::kLe, Value::Double(v))));
  const ExecResult rs = MustExecute(db, &seq);
  const ExecResult ri = MustExecute(db, &idx);
  EXPECT_EQ(RowFingerprints(rs.output), RowFingerprints(ri.output));
}

INSTANTIATE_TEST_SUITE_P(Selectivities, IndexVsSeqScan,
                         ::testing::Values(-1.0, 0.0, 10.0, 99.5, 150.0, 500.0));

TEST(Executor, IndexScanWithResidualFilter) {
  Database db = MakeTestDb();
  // Range on b plus residual on tag.
  ExprPtr pred = Expr::And(Expr::Cmp(1, CmpOp::kLe, Value::Double(29.0)),
                           Expr::StrEq(2, "x"));
  Plan seq(MakeSeqScan("t1", pred));
  Plan idx(MakeIndexScan("t1", 1, pred));
  const ExecResult rs = MustExecute(db, &seq);
  const ExecResult ri = MustExecute(db, &idx);
  EXPECT_EQ(RowFingerprints(rs.output), RowFingerprints(ri.output));
  // Index counters scale with range matches (30), output is smaller.
  EXPECT_DOUBLE_EQ(ri.ops[0].actual.nt, 30.0);
  EXPECT_EQ(ri.output.num_rows(), 10);  // i % 3 == 0 among 0..29
  // nr counts the distinct heap pages of every range match (b <= 29),
  // residual survivors or not.
  const Table& t1 = db.GetTable("t1");
  std::set<int64_t> pages;
  for (int64_t i = 0; i < t1.num_rows(); ++i) {
    if (t1.at(i, 1).AsDouble() <= 29.0) pages.insert(i / t1.rows_per_page());
  }
  EXPECT_DOUBLE_EQ(ri.ops[0].actual.nr, static_cast<double>(pages.size()));
}

TEST(Executor, IndexScanResidualBatchParity) {
  // The batched residual-filter path (EvalPredicateColumns over the
  // matched rids + row gather) must be indistinguishable from tuple-at-a-time execution:
  // same rows in the same order, same provenance, same counters.
  Database db = MakeTestDb();
  ExprPtr pred = Expr::And(Expr::Cmp(1, CmpOp::kLe, Value::Double(97.0)),
                           Expr::StrEq(2, "x"));
  Plan tuple_plan(MakeIndexScan("t1", 1, pred));
  Plan batch_plan(MakeIndexScan("t1", 1, pred));

  ExecOptions tuple_opts;
  tuple_opts.max_batch_size = 1;  // reproduces the historical per-row loop
  tuple_opts.collect_provenance = true;
  ExecOptions batch_opts;
  batch_opts.max_batch_size = 7;  // odd chunk: exercises the tail chunk
  batch_opts.collect_provenance = true;

  const ExecResult rt = MustExecute(db, &tuple_plan, tuple_opts);
  const ExecResult rb = MustExecute(db, &batch_plan, batch_opts);

  EXPECT_EQ(rb.output.num_rows(), rt.output.num_rows());
  EXPECT_EQ(RowFingerprints(rb.output), RowFingerprints(rt.output));
  EXPECT_EQ(Provenance(rb.output), Provenance(rt.output));
  ASSERT_EQ(rb.ops.size(), rt.ops.size());
  const OpStats& st = rt.ops[0];
  const OpStats& sb = rb.ops[0];
  EXPECT_DOUBLE_EQ(sb.out_rows, st.out_rows);
  EXPECT_DOUBLE_EQ(sb.actual.ni, st.actual.ni);
  EXPECT_DOUBLE_EQ(sb.actual.nr, st.actual.nr);
  EXPECT_DOUBLE_EQ(sb.actual.nt, st.actual.nt);
  EXPECT_DOUBLE_EQ(sb.actual.no, st.actual.no);
}

TEST(Executor, ScanFilterProvenanceModesBatchParity) {
  // The scans' shared filter serves both provenance modes: contiguous
  // rows (seq scans, ids = row index) and gathered rows (index scans, ids
  // from the rid array). Both modes must produce identical rows,
  // provenance and counters at every batch size, with provenance on and
  // off.
  Database db = MakeTestDb();
  ExprPtr pred = Expr::And(Expr::Cmp(1, CmpOp::kLe, Value::Double(97.0)),
                           Expr::StrEq(2, "x"));
  for (const bool prov : {false, true}) {
    ExecOptions base_opts;
    base_opts.collect_provenance = prov;
    base_opts.max_batch_size = 1;

    Plan seq_ref(MakeSeqScan("t1", pred));
    Plan idx_ref(MakeIndexScan("t1", 1, pred));
    const ExecResult seq_baseline = MustExecute(db, &seq_ref, base_opts);
    const ExecResult idx_baseline = MustExecute(db, &idx_ref, base_opts);

    for (const int64_t batch : {int64_t{1}, int64_t{7}, int64_t{1024}}) {
      ExecOptions opts = base_opts;
      opts.max_batch_size = batch;
      Plan seq_plan(MakeSeqScan("t1", pred));
      Plan idx_plan(MakeIndexScan("t1", 1, pred));
      const ExecResult rs = MustExecute(db, &seq_plan, opts);
      const ExecResult ri = MustExecute(db, &idx_plan, opts);

      // Contiguous mode vs its tuple-at-a-time baseline.
      EXPECT_EQ(RowFingerprints(rs.output), RowFingerprints(seq_baseline.output))
          << "seq batch " << batch << " prov " << prov;
      EXPECT_EQ(Provenance(rs.output), Provenance(seq_baseline.output));
      EXPECT_EQ(rs.output.prov_width, prov ? 1 : 0);
      // Rid mode vs its baseline.
      EXPECT_EQ(RowFingerprints(ri.output), RowFingerprints(idx_baseline.output))
          << "idx batch " << batch << " prov " << prov;
      EXPECT_EQ(Provenance(ri.output), Provenance(idx_baseline.output));
      // Across modes: same rows in the same (b-ordered == row-ordered for
      // MakeTestDb's monotone b column) order, same provenance ids.
      EXPECT_EQ(RowFingerprints(ri.output), RowFingerprints(rs.output));
      if (prov) {
        EXPECT_EQ(Provenance(ri.output), Provenance(rs.output));
      }
      EXPECT_DOUBLE_EQ(rs.ops[0].out_rows, ri.ops[0].out_rows);
    }
  }
}

// ---------- Joins ----------

ExprPtr NoPred() { return nullptr; }

std::multiset<std::string> ReferenceJoin(const Database& db, double t1_b_max) {
  // t1 (b <= max) equi-join t2 on a = k.
  std::multiset<std::string> out;
  const Table& t1 = db.GetTable("t1");
  const Table& t2 = db.GetTable("t2");
  for (int64_t i = 0; i < t1.num_rows(); ++i) {
    if (t1.at(i, 1).AsDouble() > t1_b_max) continue;
    for (int64_t j = 0; j < t2.num_rows(); ++j) {
      if (t1.at(i, 0).AsInt64() != t2.at(j, 0).AsInt64()) continue;
      std::string key;
      for (int c = 0; c < 3; ++c) key += t1.at(i, c).ToString() + "|";
      for (int c = 0; c < 2; ++c) key += t2.at(j, c).ToString() + "|";
      out.insert(key);
    }
  }
  return out;
}

class JoinAlgorithms : public ::testing::TestWithParam<OpType> {};

TEST_P(JoinAlgorithms, MatchReferenceJoin) {
  Database db = MakeTestDb();
  const OpType type = GetParam();
  auto left = MakeSeqScan("t1", Expr::Cmp(1, CmpOp::kLe, Value::Double(120.0)));
  auto right = MakeSeqScan("t2", NoPred());
  std::unique_ptr<PlanNode> join;
  if (type == OpType::kHashJoin) {
    join = MakeHashJoin(std::move(left), std::move(right), {{0, 0}});
  } else if (type == OpType::kNestLoopJoin) {
    join = MakeNestLoopJoin(std::move(left), std::move(right), {{0, 0}});
  } else {
    // Merge join needs sorted inputs.
    join = MakeMergeJoin(MakeSort(std::move(left), {0}),
                         MakeSort(std::move(right), {0}), {{0, 0}});
  }
  Plan plan(std::move(join));
  const ExecResult result = MustExecute(db, &plan);
  EXPECT_EQ(RowFingerprints(result.output), ReferenceJoin(db, 120.0));
}

INSTANTIATE_TEST_SUITE_P(Types, JoinAlgorithms,
                         ::testing::Values(OpType::kHashJoin,
                                           OpType::kNestLoopJoin,
                                           OpType::kMergeJoin));

TEST(Executor, MultiKeyHashJoin) {
  Database db = MakeTestDb();
  // Self-join t2 on (k, w): each row matches only itself.
  Plan plan(MakeHashJoin(MakeSeqScan("t2", NoPred()), MakeSeqScan("t2", NoPred()),
                         {{0, 0}, {1, 1}}));
  const ExecResult result = MustExecute(db, &plan);
  EXPECT_EQ(result.output.num_rows(), 40);
}

TEST(Executor, JoinResidualPredicate) {
  Database db = MakeTestDb();
  // Join t1 x t2 on a = k with residual w > b (column 4 vs column 1 in the
  // concatenated schema).
  ExprPtr residual = Expr::CmpColumns(4, CmpOp::kGt, 1);
  Plan plan(MakeHashJoin(MakeSeqScan("t1", NoPred()), MakeSeqScan("t2", NoPred()),
                         {{0, 0}}, residual));
  const ExecResult result = MustExecute(db, &plan);
  for (int64_t r = 0; r < result.output.num_rows(); ++r) {
    EXPECT_GT(result.output.at(r, 4).AsDouble(), result.output.at(r, 1).AsDouble());
  }
  // Same with nested loop.
  Plan nlj(MakeNestLoopJoin(MakeSeqScan("t1", NoPred()), MakeSeqScan("t2", NoPred()),
                            {{0, 0}}, residual));
  const ExecResult nlj_result = MustExecute(db, &nlj);
  EXPECT_EQ(RowFingerprints(result.output), RowFingerprints(nlj_result.output));
}

TEST(Executor, CrossJoinViaNestLoop) {
  Database db = MakeTestDb();
  Plan plan(MakeNestLoopJoin(MakeSeqScan("t2", NoPred()),
                             MakeSeqScan("t2", NoPred()), {}));
  const ExecResult result = MustExecute(db, &plan);
  EXPECT_EQ(result.output.num_rows(), 40 * 40);
  EXPECT_DOUBLE_EQ(result.ops[0].actual.no, 1600.0);  // one visit per pair
}

TEST(Executor, HashJoinCounters) {
  Database db = MakeTestDb();
  Plan plan(MakeHashJoin(MakeSeqScan("t1", NoPred()), MakeSeqScan("t2", NoPred()),
                         {{0, 0}}));
  const ExecResult result = MustExecute(db, &plan);
  const OpStats& join = result.ops[0];
  EXPECT_DOUBLE_EQ(join.left_rows, 200.0);
  EXPECT_DOUBLE_EQ(join.right_rows, 40.0);
  // Each t1 row with a < 40 matches exactly one t2 row: 4 * 40 = 160.
  EXPECT_DOUBLE_EQ(join.out_rows, 160.0);
  EXPECT_DOUBLE_EQ(join.actual.nt, 160.0);
  // 40 build hashes + 200 probe hashes + 160 chain visits (one per
  // matching probe row: every t2 key is distinct).
  EXPECT_DOUBLE_EQ(join.actual.no, 400.0);
  EXPECT_DOUBLE_EQ(join.leaf_row_product, 200.0 * 40.0);
}

TEST(Executor, HashJoinDuplicateBuildKeysKeepBuildRowOrder) {
  Database db = MakeTestDb();
  // Probe t2, build t1: each t1 key (a = i % 50) appears 4 times.
  Plan plan(MakeHashJoin(MakeSeqScan("t2", NoPred()), MakeSeqScan("t1", NoPred()),
                         {{0, 0}}));
  ExecOptions options;
  options.collect_provenance = true;
  const ExecResult result = MustExecute(db, &plan, options);
  const OpStats& join = result.ops[0];
  // Each t2 row (k < 40) matches the 4 t1 rows with a == k.
  ASSERT_EQ(result.output.num_rows(), 160);
  // 200 build hashes + 40 probe hashes + 160 chain visits.
  EXPECT_DOUBLE_EQ(join.actual.no, 400.0);
  // Output is probe-row order, and each probe row's matches come out in
  // increasing t1 row id: t1 rows k, k + 50, k + 100, k + 150.
  for (int64_t r = 0; r < result.output.num_rows(); ++r) {
    const uint32_t* prov = result.output.prov_row(r);
    EXPECT_EQ(prov[0], static_cast<uint32_t>(r / 4)) << "row " << r;
    EXPECT_EQ(prov[1], static_cast<uint32_t>(r / 4 + 50 * (r % 4))) << "row " << r;
  }
}

// ---------- Join children: error precedence and cancellation ----------
//
// RunChildren runs a join's two children one after the other inline and
// concurrently on a pool. Both dispatches must resolve the same way: the
// left child's error wins when both fail, and a cancelled run ends in the
// full result or DeadlineExceeded, never a partial OK.

TEST(Executor, JoinChildErrorsKeepLeftPrecedence) {
  Database db = MakeTestDb();
  // The left child is an index scan whose predicate has no range over the
  // indexed column; the right child is a merge join given a second key
  // after Finalize. Each rejects its input when it runs.
  const auto make_right = [] {
    return MakeMergeJoin(MakeSort(MakeSeqScan("t2", NoPred()), {0}),
                         MakeSort(MakeSeqScan("t2", NoPred()), {0}), {{0, 0}});
  };
  Plan right_fails(MakeHashJoin(MakeSeqScan("t1", NoPred()), make_right(), {{0, 0}}));
  Plan both_fail(
      MakeHashJoin(MakeIndexScan("t1", 1, Expr::Cmp(0, CmpOp::kLe, Value::Int64(10))),
                   make_right(), {{0, 0}}));
  for (Plan* plan : {&right_fails, &both_fail}) {
    ASSERT_TRUE(plan->Finalize(db).ok());
    plan->mutable_root()->right->join_keys.push_back({1, 1});
  }
  MorselPool pool(3);
  Executor executor(&db);
  for (MorselPool* runner : {static_cast<MorselPool*>(nullptr),
                             static_cast<MorselPool*>(&pool)}) {
    SCOPED_TRACE(runner == nullptr ? "inline" : "pool");
    ExecOptions options;
    options.task_runner = runner;
    const auto right = executor.Execute(right_fails, options);
    ASSERT_FALSE(right.ok());
    EXPECT_EQ(right.status().message(), "merge join supports exactly one key");
    const auto both = executor.Execute(both_fail, options);
    ASSERT_FALSE(both.ok());
    EXPECT_EQ(both.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(both.status().message(),
              "index scan predicate has no range over the indexed column");
  }
}

TEST(Executor, InlineJoinSkipsRightChildAfterLeftFails) {
  Database db = MakeTestDb();
  // The left child fails when it runs (an index scan whose predicate has no
  // range over the indexed column); the right child is a merge join over
  // two sorted scans. Every operator polls the cancellation probe when it
  // starts, so the probe's call count tells which operators ran.
  const auto make_left = [] {
    return MakeIndexScan("t1", 1, Expr::Cmp(0, CmpOp::kLe, Value::Int64(10)));
  };
  const auto make_right = [] {
    return MakeMergeJoin(MakeSort(MakeSeqScan("t2", NoPred()), {0}),
                         MakeSort(MakeSeqScan("t2", NoPred()), {0}), {{0, 0}});
  };
  Plan left(make_left());
  Plan right(make_right());
  Plan join(MakeHashJoin(make_left(), make_right(), {{0, 0}}));
  for (Plan* plan : {&left, &right, &join}) ASSERT_TRUE(plan->Finalize(db).ok());
  Executor executor(&db);
  // Probe calls over one inline execution (no task runner).
  const auto probe_calls = [&executor](const Plan& plan) {
    int64_t calls = 0;
    ExecOptions options;
    options.cancelled = [&calls] {
      ++calls;
      return false;
    };
    const bool ok = executor.Execute(plan, options).ok();
    return std::make_pair(ok, calls);
  };
  const auto [left_ok, left_calls] = probe_calls(left);
  const auto [right_ok, right_calls] = probe_calls(right);
  const auto [join_ok, join_calls] = probe_calls(join);
  ASSERT_FALSE(left_ok);
  ASSERT_TRUE(right_ok);
  ASSERT_GE(right_calls, 5) << "each of the right child's operators polls";
  EXPECT_FALSE(join_ok);
  // The join's own entry check, then the left child's calls, and nothing
  // of the right child.
  EXPECT_EQ(join_calls, 1 + left_calls);
}

TEST(Executor, CancelledJoinEndsInFullResultOrDeadline) {
  Database db = MakeTestDb();
  // Two hash joins, every input several morsels long at batch 16.
  Plan plan(MakeHashJoin(
      MakeSeqScan("t1", Expr::Cmp(1, CmpOp::kLe, Value::Double(150))),
      MakeHashJoin(MakeSeqScan("t2", NoPred()), MakeSeqScan("t1", NoPred()), {{0, 0}}),
      {{0, 0}}));
  ASSERT_TRUE(plan.Finalize(db).ok());
  ExecOptions options;
  options.collect_provenance = true;
  options.max_batch_size = 16;
  const ExecResult full = MustExecute(db, &plan, options);
  ASSERT_GT(full.output.num_rows(), 0);
  MorselPool pool(3);
  Executor executor(&db);
  for (MorselPool* runner : {static_cast<MorselPool*>(nullptr),
                             static_cast<MorselPool*>(&pool)}) {
    SCOPED_TRACE(runner == nullptr ? "inline" : "pool");
    options.task_runner = runner;
    // The probe's call count over an uncancelled run bounds the sweep.
    std::atomic<int64_t> calls{0};
    options.cancelled = [&calls] {
      calls.fetch_add(1);
      return false;
    };
    ASSERT_TRUE(executor.Execute(plan, options).ok());
    const int64_t total = calls.load();
    ASSERT_GT(total, 4);
    for (int64_t k = 0; k <= total + 2; ++k) {
      SCOPED_TRACE("fires on call " + std::to_string(k));
      calls = 0;
      // Fires on its k-th call (counting from 0) and on every later one.
      options.cancelled = [&calls, k] { return calls.fetch_add(1) >= k; };
      const auto result = executor.Execute(plan, options);
      if (!result.ok()) {
        EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
            << result.status().ToString();
        EXPECT_LT(k, total) << "a probe that never fired cancelled the run";
        continue;
      }
      EXPECT_GE(k, total) << "a fired probe let the run finish";
      EXPECT_EQ(result->output.rids, full.output.rids);
      ASSERT_EQ(result->ops.size(), full.ops.size());
      for (size_t op = 0; op < full.ops.size(); ++op) {
        EXPECT_EQ(result->ops[op].actual.no, full.ops[op].actual.no);
        EXPECT_EQ(result->ops[op].actual.nt, full.ops[op].actual.nt);
        EXPECT_EQ(result->ops[op].out_rows, full.ops[op].out_rows);
      }
    }
  }
}

// ---------- Sort / Aggregate / Materialize ----------

TEST(Executor, SortOrdersRows) {
  Database db = MakeTestDb();
  Plan plan(MakeSort(MakeSeqScan("t1", NoPred()), {0, 1}));
  const ExecResult result = MustExecute(db, &plan);
  ASSERT_EQ(result.output.num_rows(), 200);
  for (int64_t r = 1; r < result.output.num_rows(); ++r) {
    const RowBlock& out = result.output;
    const bool ordered =
        out.at(r - 1, 0).AsInt64() < out.at(r, 0).AsInt64() ||
        (out.at(r - 1, 0).AsInt64() == out.at(r, 0).AsInt64() &&
         out.at(r - 1, 1).AsDouble() <= out.at(r, 1).AsDouble());
    EXPECT_TRUE(ordered) << "row " << r;
  }
  // Comparison counter: at least n log2 n / 2, at most n log2 n * 2 + n.
  const double n = 200.0;
  EXPECT_GT(result.ops[0].actual.no, 0.5 * n * std::log2(n));
  EXPECT_LT(result.ops[0].actual.no, 2.0 * n * std::log2(n) + n);
}

TEST(Executor, SortOnStringColumn) {
  Database db = MakeTestDb();
  Plan plan(MakeSort(MakeSeqScan("t1", NoPred()), {2}));
  const ExecResult result = MustExecute(db, &plan);
  for (int64_t r = 1; r < result.output.num_rows(); ++r) {
    EXPECT_LE(result.output.at(r - 1, 2).AsString(),
              result.output.at(r, 2).AsString());
  }
}

TEST(Executor, AggregateGroupsAndFunctions) {
  Database db = MakeTestDb();
  // Group t2 rows by k % ... -> each k in 0..39 has exactly one row; group
  // by constant-ish column instead: group t1 by tag.
  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kCount, -1, "cnt"});
  aggs.push_back({AggSpec::Kind::kSum, 1, "sum_b"});
  aggs.push_back({AggSpec::Kind::kMin, 1, "min_b"});
  aggs.push_back({AggSpec::Kind::kMax, 1, "max_b"});
  aggs.push_back({AggSpec::Kind::kAvg, 1, "avg_b"});
  Plan plan(MakeAggregate(MakeSeqScan("t1", NoPred()), {2}, aggs));
  const ExecResult result = MustExecute(db, &plan);
  ASSERT_EQ(result.output.num_rows(), 2);  // tags "x" and "y"
  std::map<std::string, std::vector<double>> by_tag;
  for (int64_t r = 0; r < 2; ++r) {
    const RowBlock& out = result.output;
    by_tag[out.at(r, 0).AsString()] = {out.at(r, 1).AsDouble(), out.at(r, 2).AsDouble(),
                                       out.at(r, 3).AsDouble(), out.at(r, 4).AsDouble(),
                                       out.at(r, 5).AsDouble()};
  }
  // Reference for tag "x": i in {0,3,...,198}, 67 rows, sum = 3*(0+..+66).
  const double cnt_x = 67.0;
  const double sum_x = 3.0 * (66.0 * 67.0 / 2.0);
  ASSERT_TRUE(by_tag.count("x"));
  EXPECT_DOUBLE_EQ(by_tag["x"][0], cnt_x);
  EXPECT_DOUBLE_EQ(by_tag["x"][1], sum_x);
  EXPECT_DOUBLE_EQ(by_tag["x"][2], 0.0);
  EXPECT_DOUBLE_EQ(by_tag["x"][3], 198.0);
  EXPECT_DOUBLE_EQ(by_tag["x"][4], sum_x / cnt_x);
}

TEST(Executor, AggregateOutputsGroupsInFirstAppearanceOrder) {
  Database db = MakeTestDb();
  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kCount, -1, "cnt"});
  // t1.a = i % 50, so grouping by a sees keys 0, 1, ..., 49 in row order.
  // The pinned contract: groups emit in FIRST-APPEARANCE order of their
  // key in the input — stable across standard-library implementations —
  // and independent of the chunking, so the same rows come back at every
  // batch size.
  for (int64_t batch : {int64_t{1024}, int64_t{7}, int64_t{1}}) {
    Plan plan(MakeAggregate(MakeSeqScan("t1", NoPred()), {0}, aggs));
    ExecOptions options;
    options.max_batch_size = batch;
    const ExecResult result = MustExecute(db, &plan, options);
    ASSERT_EQ(result.output.num_rows(), 50) << "batch " << batch;
    for (int64_t r = 0; r < 50; ++r) {
      EXPECT_EQ(result.output.at(r, 0).AsInt64(), r) << "batch " << batch;
      EXPECT_DOUBLE_EQ(result.output.at(r, 1).AsDouble(), 4.0);
    }
  }
  // String keys too: tag "x" appears at row 0, "y" at row 1.
  Plan by_tag(MakeAggregate(MakeSeqScan("t1", NoPred()), {2}, aggs));
  const ExecResult result = MustExecute(db, &by_tag);
  ASSERT_EQ(result.output.num_rows(), 2);
  EXPECT_EQ(result.output.at(0, 0).AsString(), "x");
  EXPECT_EQ(result.output.at(1, 0).AsString(), "y");
}

/// agg_table(k int, v double): `rows` rows, k drawn from 37 keys, v a
/// non-integer double, so the order of a group's additions shows in its
/// SUM and AVG cells.
Database MakeAggDb(int rows, uint64_t seed) {
  Rng rng(seed);
  Database db("agg-test");
  Table t("agg_table", Schema({{"k", ValueType::kInt64}, {"v", ValueType::kDouble}}));
  for (int i = 0; i < rows; ++i) {
    t.AppendRow({Value::Int64(rng.NextInt(0, 36)), Value::Double(rng.NextDouble() * 1000.0)});
  }
  db.AddTable(std::move(t));
  db.AnalyzeAll(8);
  return db;
}

TEST(Executor, AggregateBatchSizeInvariants) {
  // Chunk partials merge up a tree whose shape follows max_batch_size, so
  // a group's floating-point SUM (and AVG) may differ in the last bits
  // between batch sizes. Everything else is batch-size invariant: group
  // order, keys, COUNT, MIN, MAX and every resource counter. At one batch
  // size the pool changes nothing, SUM and AVG included.
  Database db = MakeAggDb(3000, 17);
  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kCount, -1, "cnt"});
  aggs.push_back({AggSpec::Kind::kSum, 1, "sum_v"});
  aggs.push_back({AggSpec::Kind::kMin, 1, "min_v"});
  aggs.push_back({AggSpec::Kind::kMax, 1, "max_v"});
  aggs.push_back({AggSpec::Kind::kAvg, 1, "avg_v"});
  const int kInvariantCols[] = {0, 1, 3, 4};  // key, COUNT, MIN, MAX
  const int kSumCols[] = {2, 5};              // SUM, AVG
  MorselPool pool(3);
  auto run = [&](int64_t batch, MorselPool* runner) {
    Plan plan(MakeAggregate(MakeSeqScan("agg_table", NoPred()), {0}, aggs));
    ExecOptions options;
    options.max_batch_size = batch;
    options.task_runner = runner;
    return MustExecute(db, &plan, options);
  };
  auto expect_same_counters = [](const ExecResult& x, const ExecResult& y,
                                 const std::string& what) {
    ASSERT_EQ(x.ops.size(), y.ops.size()) << what;
    for (size_t i = 0; i < x.ops.size(); ++i) {
      EXPECT_EQ(x.ops[i].actual.ns, y.ops[i].actual.ns) << what << " op " << i;
      EXPECT_EQ(x.ops[i].actual.nr, y.ops[i].actual.nr) << what << " op " << i;
      EXPECT_EQ(x.ops[i].actual.nt, y.ops[i].actual.nt) << what << " op " << i;
      EXPECT_EQ(x.ops[i].actual.ni, y.ops[i].actual.ni) << what << " op " << i;
      EXPECT_EQ(x.ops[i].actual.no, y.ops[i].actual.no) << what << " op " << i;
      EXPECT_EQ(x.ops[i].out_rows, y.ops[i].out_rows) << what << " op " << i;
    }
  };
  const ExecResult reference = run(1024, nullptr);
  ASSERT_EQ(reference.output.num_rows(), 37);
  for (const int64_t batch : {int64_t{1}, int64_t{7}, int64_t{64}, int64_t{1} << 20}) {
    const std::string what = "batch " + std::to_string(batch);
    const ExecResult inline_run = run(batch, nullptr);
    const ExecResult pooled = run(batch, &pool);
    ASSERT_EQ(inline_run.output.num_rows(), reference.output.num_rows()) << what;
    ASSERT_EQ(pooled.output.num_rows(), reference.output.num_rows()) << what;
    for (int64_t r = 0; r < reference.output.num_rows(); ++r) {
      for (const int c : kInvariantCols) {
        EXPECT_TRUE(inline_run.output.at(r, c).Equals(reference.output.at(r, c)))
            << what << " row " << r << " col " << c;
      }
      for (const int c : {0, 1, 2, 3, 4, 5}) {
        EXPECT_EQ(pooled.output.payload(r, c), inline_run.output.payload(r, c))
            << what << " row " << r << " col " << c << " (pool vs no pool)";
      }
      for (const int c : kSumCols) {
        EXPECT_NEAR(inline_run.output.at(r, c).AsDouble(),
                    reference.output.at(r, c).AsDouble(),
                    1e-9 * std::abs(reference.output.at(r, c).AsDouble()))
            << what << " row " << r << " col " << c;
      }
    }
    expect_same_counters(inline_run, reference, what);
    expect_same_counters(pooled, inline_run, what + " (pool vs no pool)");
  }
}

TEST(Executor, SortOutputIdenticalAcrossBatchSizes) {
  // The blocked merge sort's leaf/merge shape follows max_batch_size, but
  // its comparator is a total order (sort keys, then row index), so the
  // sorted permutation — and hence every output row — is unique: batch
  // size may change the comparison counter, never the rows.
  Database db = MakeTestDb();
  ExecOptions reference_options;
  reference_options.collect_provenance = true;
  Plan reference_plan(MakeSort(MakeSeqScan("t1", NoPred()), {0, 1}));
  const ExecResult reference = MustExecute(db, &reference_plan, reference_options);
  for (int64_t batch : {int64_t{3}, int64_t{64}}) {
    Plan plan(MakeSort(MakeSeqScan("t1", NoPred()), {0, 1}));
    ExecOptions options = reference_options;
    options.max_batch_size = batch;
    const ExecResult result = MustExecute(db, &plan, options);
    ASSERT_EQ(result.output.num_rows(), reference.output.num_rows());
    for (int64_t r = 0; r < reference.output.num_rows(); ++r) {
      for (int c = 0; c < reference.output.schema.num_columns(); ++c) {
        ASSERT_TRUE(result.output.at(r, c).Equals(reference.output.at(r, c)))
            << "batch " << batch << " row " << r << " col " << c;
      }
    }
    EXPECT_EQ(Provenance(result.output), Provenance(reference.output))
        << "batch " << batch;
  }
}

/// nan_table(x double, id int): `rows` rows, about 31% of x NaN, the rest
/// drawn from a few dozen values so equal keys repeat.
Database MakeNanDb(int rows, uint64_t seed) {
  Rng rng(seed);
  Database db("nan-test");
  Table t("nan_table", Schema({{"x", ValueType::kDouble}, {"id", ValueType::kInt64}}));
  for (int i = 0; i < rows; ++i) {
    const double x = rng.NextBool(0.31) ? std::numeric_limits<double>::quiet_NaN()
                                        : static_cast<double>(rng.NextInt(-20, 20)) / 4.0;
    t.AppendRow({Value::Double(x), Value::Int64(i)});
  }
  db.AddTable(std::move(t));
  db.AnalyzeAll(8);
  return db;
}

TEST(Executor, SortWithNanKeysIsOrderedAndBatchInvariant) {
  // NaN sorts after every number and equal to NaN, so the sort comparator
  // is a strict weak order (std::sort's precondition) and the sorted rows
  // are the same at every batch size, with and without a pool.
  const Database db = MakeNanDb(5000, 11);
  Plan plan(MakeSort(MakeSeqScan("nan_table", NoPred()), {0}));
  ASSERT_TRUE(plan.Finalize(db).ok());
  Executor executor(&db);
  MorselPool pool(3);
  std::vector<uint32_t> reference;
  for (MorselPool* runner : {static_cast<MorselPool*>(nullptr),
                             static_cast<MorselPool*>(&pool)}) {
    for (const int64_t batch : {int64_t{16}, int64_t{64}, int64_t{1024}, int64_t{8192}}) {
      SCOPED_TRACE("batch " + std::to_string(batch) +
                   (runner == nullptr ? ", no pool" : ", pool of 3"));
      ExecOptions options;
      options.collect_provenance = true;
      options.max_batch_size = batch;
      options.task_runner = runner;
      auto run = executor.Execute(plan, options);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      const RowBlock& out = run->output;
      ASSERT_EQ(out.num_rows(), 5000);
      int64_t nans = 0;
      for (int64_t r = 0; r < out.num_rows(); ++r) {
        const double x = out.at(r, 0).AsDouble();
        if (std::isnan(x)) {
          ++nans;
          continue;
        }
        ASSERT_EQ(nans, 0) << "number after a NaN at row " << r;
        if (r > 0) {
          const double prev = out.at(r - 1, 0).AsDouble();
          ASSERT_TRUE(prev < x || (prev == x && out.at(r - 1, 1).AsInt64() <
                                                    out.at(r, 1).AsInt64()))
              << "row " << r;
        }
      }
      EXPECT_GT(nans, 1000);
      if (reference.empty()) {
        reference = Provenance(out);
      } else {
        EXPECT_EQ(Provenance(out), reference);
      }
    }
  }
}

/// A join's output as a sorted list of (left leaf id, right leaf id).
std::vector<std::pair<uint32_t, uint32_t>> SortedPairs(const RowBlock& block) {
  std::vector<std::pair<uint32_t, uint32_t>> out;
  for (int64_t r = 0; r < block.num_rows(); ++r) {
    out.emplace_back(block.prov_row(r)[0], block.prov_row(r)[1]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Executor, MergeJoinNeverMatchesNan) {
  // NaN equals nothing (Value::Equals), so hash and nest-loop joins never
  // match it; the merge join walks past a NaN equal group without
  // emitting, and all three agree pair for pair.
  Database db = MakeNanDb(300, 12);
  ExecOptions options;
  options.collect_provenance = true;
  Plan hash(MakeHashJoin(MakeSeqScan("nan_table", NoPred()),
                         MakeSeqScan("nan_table", NoPred()), {{0, 0}}));
  Plan nest(MakeNestLoopJoin(MakeSeqScan("nan_table", NoPred()),
                             MakeSeqScan("nan_table", NoPred()), {{0, 0}}));
  const ExecResult by_hash = MustExecute(db, &hash, options);
  const ExecResult by_nest = MustExecute(db, &nest, options);
  ASSERT_GT(by_hash.output.num_rows(), 0);
  for (int64_t r = 0; r < by_hash.output.num_rows(); ++r) {
    ASSERT_FALSE(std::isnan(by_hash.output.at(r, 0).AsDouble())) << "row " << r;
  }
  EXPECT_EQ(SortedPairs(by_nest.output), SortedPairs(by_hash.output));
  for (const int64_t batch : {int64_t{7}, int64_t{1024}}) {
    Plan merge(MakeMergeJoin(MakeSort(MakeSeqScan("nan_table", NoPred()), {0}),
                             MakeSort(MakeSeqScan("nan_table", NoPred()), {0}),
                             {{0, 0}}));
    ExecOptions merge_options = options;
    merge_options.max_batch_size = batch;
    const ExecResult by_merge = MustExecute(db, &merge, merge_options);
    EXPECT_EQ(SortedPairs(by_merge.output), SortedPairs(by_hash.output))
        << "batch " << batch;
  }
}

TEST(Executor, GlobalAggregateWithoutGroups) {
  Database db = MakeTestDb();
  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kCount, -1, "cnt"});
  Plan plan(MakeAggregate(MakeSeqScan("t1", NoPred()), {}, aggs));
  const ExecResult result = MustExecute(db, &plan);
  ASSERT_EQ(result.output.num_rows(), 1);
  EXPECT_DOUBLE_EQ(result.output.at(0, 0).AsDouble(), 200.0);
}

TEST(Executor, MaterializePassesThrough) {
  Database db = MakeTestDb();
  Plan plain(MakeSeqScan("t1", Expr::Cmp(0, CmpOp::kLt, Value::Int64(5))));
  Plan mat(MakeMaterialize(
      MakeSeqScan("t1", Expr::Cmp(0, CmpOp::kLt, Value::Int64(5)))));
  const ExecResult a = MustExecute(db, &plain);
  const ExecResult b = MustExecute(db, &mat);
  EXPECT_EQ(RowFingerprints(a.output), RowFingerprints(b.output));
}

// ---------- MorselPool ----------
//
// The pool contract, on a one-worker pool (one helper thread; RunTasks
// callers pull too).

TEST(MorselPool, SubmitRunsClosuresInFifoOrder) {
  MorselPool pool(2);
  std::atomic<bool> release{false};
  std::mutex mu;
  std::vector<int> order;
  // The blocker holds the only worker until every closure is queued.
  ASSERT_TRUE(pool.Submit([&] {
    while (!release.load()) std::this_thread::yield();
  }));
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(pool.Submit([&, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    }));
  }
  release.store(true);
  pool.Shutdown();
  std::vector<int> expected(32);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(MorselPool, ShutdownDrainsQueuedClosuresAndRefusesLaterOnes) {
  MorselPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<int> queued_ran{0};
  ASSERT_TRUE(pool.Submit([&] {
    while (!release.load()) std::this_thread::yield();
  }));
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(pool.Submit([&] { queued_ran.fetch_add(1); }));
  }
  // Shut down while the worker is blocked and 16 closures wait behind it.
  std::thread stopper([&] { pool.Shutdown(); });
  // Submit until the shutdown takes effect: every accepted closure runs,
  // the refused one never does.
  std::atomic<int> accepted_ran{0};
  int accepted = 0;
  while (accepted < 100000 && pool.Submit([&] { accepted_ran.fetch_add(1); })) {
    ++accepted;
    std::this_thread::yield();
  }
  release.store(true);
  stopper.join();
  ASSERT_LT(accepted, 100000) << "Submit kept accepting after Shutdown";
  EXPECT_EQ(queued_ran.load(), 16);
  EXPECT_EQ(accepted_ran.load(), accepted);
  EXPECT_FALSE(pool.Submit([&] { accepted_ran.fetch_add(1); }));
  pool.Shutdown();  // idempotent
  EXPECT_EQ(accepted_ran.load(), accepted);
}

TEST(MorselPool, RunTasksAfterShutdownRunsOnTheCaller) {
  MorselPool pool(2);
  pool.Shutdown();
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> hits(100, 0);
  std::vector<std::thread::id> ran_on(100);
  pool.RunTasks(100, [&](int64_t i) {
    ++hits[static_cast<size_t>(i)];
    ran_on[static_cast<size_t>(i)] = std::this_thread::get_id();
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "index " << i;
    EXPECT_EQ(ran_on[i], caller) << "index " << i;
  }
}

TEST(MorselPool, NestedRunTasksRunEachIndexOnce) {
  MorselPool pool(2);
  constexpr int kOuter = 8;
  constexpr int kInner = 16;
  // Outer task i fans out kInner inner tasks on the same pool.
  auto fan_out = [&pool](std::vector<std::atomic<int>>* hits) {
    pool.RunTasks(kOuter, [&pool, hits](int64_t i) {
      pool.RunTasks(kInner, [hits, i](int64_t j) {
        (*hits)[static_cast<size_t>(i * kInner + j)].fetch_add(1);
      });
    });
  };
  auto expect_once = [](const std::vector<std::atomic<int>>& hits,
                        const std::string& what) {
    for (size_t k = 0; k < hits.size(); ++k) {
      EXPECT_EQ(hits[k].load(), 1) << what << " index " << k;
    }
  };
  // Inside another RunTasks, from the caller.
  std::vector<std::atomic<int>> direct(kOuter * kInner);
  fan_out(&direct);
  expect_once(direct, "nested in RunTasks");
  // Inside a submitted closure, on the worker.
  std::vector<std::atomic<int>> submitted(kOuter * kInner);
  std::promise<void> done;
  ASSERT_TRUE(pool.Submit([&] {
    fan_out(&submitted);
    done.set_value();
  }));
  done.get_future().wait();
  expect_once(submitted, "nested in Submit");
}

// ---------- Provenance ----------

TEST(Executor, ScanProvenancePointsAtSourceRows) {
  Database db = MakeTestDb();
  Plan plan(MakeSeqScan("t1", Expr::Cmp(0, CmpOp::kLt, Value::Int64(3))));
  ExecOptions options;
  options.collect_provenance = true;
  const ExecResult result = MustExecute(db, &plan, options);
  const Table& t1 = db.GetTable("t1");
  ASSERT_EQ(result.output.prov_width, 1);
  for (int64_t r = 0; r < result.output.num_rows(); ++r) {
    const uint32_t src = result.output.prov_row(r)[0];
    for (int c = 0; c < 3; ++c) {
      EXPECT_TRUE(result.output.at(r, c).Equals(t1.at(src, c)));
    }
  }
}

TEST(Executor, JoinProvenanceConcatenatesLeafIds) {
  Database db = MakeTestDb();
  Plan plan(MakeHashJoin(MakeSeqScan("t1", NoPred()), MakeSeqScan("t2", NoPred()),
                         {{0, 0}}));
  ExecOptions options;
  options.collect_provenance = true;
  options.retain_intermediates = true;
  const ExecResult result = MustExecute(db, &plan, options);
  const Table& t1 = db.GetTable("t1");
  const Table& t2 = db.GetTable("t2");
  ASSERT_EQ(result.output.prov_width, 2);
  for (int64_t r = 0; r < result.output.num_rows(); ++r) {
    const uint32_t* prov = result.output.prov_row(r);
    EXPECT_TRUE(result.output.at(r, 0).Equals(t1.at(prov[0], 0)));
    EXPECT_TRUE(result.output.at(r, 3).Equals(t2.at(prov[1], 0)));
  }
  // Retained blocks exist for every operator.
  ASSERT_EQ(result.blocks.size(), 3u);
  EXPECT_EQ(result.blocks[0].num_rows(), result.output.num_rows());
}

/// Values, schema width and provenance of two blocks are identical.
void ExpectSameBlock(const RowBlock& a, const RowBlock& b, const std::string& what) {
  ASSERT_EQ(a.schema.num_columns(), b.schema.num_columns()) << what;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.schema.num_columns(); ++c) {
      ASSERT_EQ(a.at(r, c).type, b.at(r, c).type) << what << " row " << r;
      ASSERT_TRUE(a.at(r, c).Equals(b.at(r, c))) << what << " row " << r;
    }
  }
  EXPECT_EQ(a.prov_width, b.prov_width) << what;
  EXPECT_EQ(Provenance(a), Provenance(b)) << what;
}

TEST(Executor, RetainedBlocksEqualSubtreeOutputs) {
  Database db = MakeTestDb();
  // NestLoop(Materialize(Sort(HashJoin(t1, t2))), Aggregate(t1 filtered)):
  // every operator kind whose children hand their blocks to a retained slot.
  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kCount, -1, "cnt"});
  Plan plan(MakeNestLoopJoin(
      MakeMaterialize(MakeSort(
          MakeHashJoin(MakeSeqScan("t1", NoPred()), MakeSeqScan("t2", NoPred()),
                       {{0, 0}}),
          {1})),
      MakeAggregate(
          MakeSeqScan("t1", Expr::Cmp(0, CmpOp::kLt, Value::Int64(10))), {0},
          aggs),
      {{0, 0}}));
  ASSERT_TRUE(plan.Finalize(db).ok());
  Executor executor(&db);
  MorselPool pool(3);
  for (MorselPool* runner : {static_cast<MorselPool*>(nullptr),
                             static_cast<MorselPool*>(&pool)}) {
    SCOPED_TRACE(runner == nullptr ? "no pool" : "pool of 3");
    ExecOptions options;
    options.collect_provenance = true;
    options.retain_intermediates = true;
    options.max_batch_size = 16;
    options.task_runner = runner;
    auto run = executor.Execute(plan, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_EQ(run->blocks.size(), static_cast<size_t>(plan.num_operators()));
    ASSERT_GT(run->output.num_rows(), 0);
    ExpectSameBlock(run->blocks[0], run->output, "root");
    for (const PlanNode* node : plan.NodesPreorder()) {
      Plan sub(ClonePlanTree(*node));
      ASSERT_TRUE(sub.Finalize(db).ok());
      ExecOptions sub_options = options;
      sub_options.retain_intermediates = false;
      auto alone = executor.Execute(sub, sub_options);
      ASSERT_TRUE(alone.ok()) << alone.status().ToString();
      ExpectSameBlock(run->blocks[static_cast<size_t>(node->id)], alone->output,
                      "node " + std::to_string(node->id));
    }
  }
}

TEST(Executor, AggregateDropsProvenance) {
  Database db = MakeTestDb();
  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kCount, -1, "cnt"});
  Plan plan(MakeAggregate(MakeSeqScan("t1", NoPred()), {0}, aggs));
  ExecOptions options;
  options.collect_provenance = true;
  const ExecResult result = MustExecute(db, &plan, options);
  EXPECT_EQ(result.output.prov_width, 0);
}

// ---------- Late materialisation ----------
//
// Operator blocks hold row ids into their sources, not copied cells: every
// cell RowBlock::at decodes must be the source table's cell at the row the
// block's provenance names.

/// Expects every cell of a t1 x t2 join block (t1's three columns, then
/// t2's two) to equal the source cell at the block's provenance row ids.
void ExpectJoinCellsMatchSources(const Database& db, const RowBlock& block,
                                 const std::string& what) {
  const Table& t1 = db.GetTable("t1");
  const Table& t2 = db.GetTable("t2");
  ASSERT_EQ(block.prov_width, 2) << what;
  for (int64_t r = 0; r < block.num_rows(); ++r) {
    const uint32_t* prov = block.prov_row(r);
    for (int c = 0; c < 5; ++c) {
      const Value want = c < 3 ? t1.at(prov[0], c) : t2.at(prov[1], c - 3);
      const Value got = block.at(r, c);
      ASSERT_EQ(got.type, want.type) << what << " row " << r << " col " << c;
      ASSERT_TRUE(got.Equals(want)) << what << " row " << r << " col " << c;
    }
  }
}

TEST(Executor, LateMaterialisedJoinCellsMatchSources) {
  Database db = MakeTestDb();
  const Table& t1 = db.GetTable("t1");
  const Table& t2 = db.GetTable("t2");
  // t1 (b <= 120) join t2 on a = k, residual tag = "x" AND w > b: the
  // residual reads a string column from the left and a number from each
  // side.
  const ExprPtr residual = Expr::And(Expr::StrEq(2, "x"), Expr::CmpColumns(4, CmpOp::kGt, 1));
  int64_t want_rows = 0;
  for (int64_t i = 0; i < t1.num_rows(); ++i) {
    for (int64_t j = 0; j < t2.num_rows(); ++j) {
      want_rows += t1.at(i, 1).AsDouble() <= 120.0 &&
                   t1.at(i, 0).Equals(t2.at(j, 0)) && t1.at(i, 2).AsString() == "x" &&
                   t2.at(j, 1).AsDouble() > t1.at(i, 1).AsDouble();
    }
  }
  ASSERT_GT(want_rows, 0);
  MorselPool pool(3);
  for (const OpType type :
       {OpType::kHashJoin, OpType::kMergeJoin, OpType::kNestLoopJoin}) {
    auto left = MakeSeqScan("t1", Expr::Cmp(1, CmpOp::kLe, Value::Double(120.0)));
    auto right = MakeSeqScan("t2", NoPred());
    std::unique_ptr<PlanNode> join;
    if (type == OpType::kHashJoin) {
      join = MakeHashJoin(std::move(left), std::move(right), {{0, 0}}, residual);
    } else if (type == OpType::kMergeJoin) {
      join = MakeMergeJoin(MakeSort(std::move(left), {0}),
                           MakeSort(std::move(right), {0}), {{0, 0}}, residual);
    } else {
      join = MakeNestLoopJoin(std::move(left), std::move(right), {{0, 0}}, residual);
    }
    // Sort and Materialize on top permute and pass the row-id tuples on.
    Plan plan(MakeMaterialize(MakeSort(std::move(join), {4, 2})));
    ASSERT_TRUE(plan.Finalize(db).ok());
    for (MorselPool* runner : {static_cast<MorselPool*>(nullptr),
                               static_cast<MorselPool*>(&pool)}) {
      const std::string what = std::string(OpTypeName(type)) +
                               (runner == nullptr ? ", no pool" : ", pool");
      ExecOptions options;
      options.collect_provenance = true;
      options.retain_intermediates = true;
      options.max_batch_size = 7;
      options.task_runner = runner;
      const ExecResult result = MustExecute(db, &plan, options);
      ASSERT_EQ(result.output.num_rows(), want_rows) << what;
      ExpectJoinCellsMatchSources(db, result.output, what + " output");
      // The join's block, and the sort's (Materialize's retained copy).
      ExpectJoinCellsMatchSources(db, result.blocks[2], what + " join block");
      ExpectJoinCellsMatchSources(db, result.blocks[1], what + " sort block");
      for (int64_t r = 1; r < result.output.num_rows(); ++r) {
        EXPECT_LE(result.output.at(r - 1, 4).AsDouble(),
                  result.output.at(r, 4).AsDouble()) << what << " row " << r;
      }
    }
  }
}

/// Join(Aggregate(t1 grouped by a: count, sum b), t2) on a = k, sorted by
/// w and materialized: its tuples mix an aggregate slot with a leaf slot.
/// The aggregate reads t1 sorted by tag, so a group's row in the
/// aggregate output is not its key (nor the matching t2 row id).
Plan JoinAboveAggregatePlan() {
  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kCount, -1, "cnt"});
  aggs.push_back({AggSpec::Kind::kSum, 1, "sum_b"});
  return Plan(MakeMaterialize(MakeSort(
      MakeHashJoin(MakeAggregate(MakeSort(MakeSeqScan("t1", NoPred()), {2, 1}), {0}, aggs),
                   MakeSeqScan("t2", Expr::Cmp(0, CmpOp::kLt, Value::Int64(30))),
                   {{0, 0}}, Expr::CmpColumns(4, CmpOp::kGe, 1)),
      {4})));
}

/// Expects every cell of a JoinAboveAggregatePlan block to match its
/// source: t2's columns at the provenance row id, the aggregate's from
/// t1 = {a = i % 50, b = i}: group a has count 4 and sum b = 4a + 300.
void ExpectAggregateJoinCells(const Database& db, const RowBlock& block,
                              const std::string& what) {
  const Table& t2 = db.GetTable("t2");
  ASSERT_EQ(block.prov_width, 1) << what;  // the aggregate drops t1's
  for (int64_t r = 0; r < block.num_rows(); ++r) {
    const uint32_t k = block.prov_row(r)[0];
    EXPECT_TRUE(block.at(r, 3).Equals(t2.at(k, 0))) << what << " row " << r;
    EXPECT_TRUE(block.at(r, 4).Equals(t2.at(k, 1))) << what << " row " << r;
    const int64_t a = block.at(r, 0).AsInt64();
    EXPECT_EQ(a, t2.at(k, 0).AsInt64()) << what << " row " << r;
    EXPECT_DOUBLE_EQ(block.at(r, 1).AsDouble(), 4.0) << what << " row " << r;
    EXPECT_DOUBLE_EQ(block.at(r, 2).AsDouble(), 4.0 * a + 300.0) << what << " row " << r;
  }
}

TEST(Executor, JoinAboveAggregateKeepsLeafProvenance) {
  Database db = MakeTestDb();
  Plan plan = JoinAboveAggregatePlan();
  ExecOptions options;
  options.collect_provenance = true;
  options.retain_intermediates = true;
  options.max_batch_size = 4;
  const ExecResult result = MustExecute(db, &plan, options);
  // Each t2 row k < 30 matches group a = k; the residual w = 2k >= cnt = 4
  // keeps k >= 2.
  ASSERT_EQ(result.output.num_rows(), 28);
  ExpectAggregateJoinCells(db, result.output, "output");
  ExpectAggregateJoinCells(db, result.blocks[2], "join block");
  EXPECT_EQ(result.blocks[3].prov_width, 0);  // the aggregate's own block
  // Without collect_provenance no block reports provenance.
  Plan plain = JoinAboveAggregatePlan();
  const ExecResult unprov = MustExecute(db, &plain);
  EXPECT_EQ(unprov.output.prov_width, 0);
  ASSERT_EQ(unprov.output.num_rows(), 28);
  for (int64_t r = 0; r < 28; ++r) {
    for (int c = 0; c < 5; ++c) {
      EXPECT_TRUE(unprov.output.at(r, c).Equals(result.output.at(r, c)))
          << "row " << r << " col " << c;
    }
  }
}

TEST(Executor, CopiedBlockOutlivesItsResult) {
  // A block copied out of an ExecResult co-owns the aggregate output its
  // aggregate slot reads, so it stays readable once the result is gone.
  Database db = MakeTestDb();
  RowBlock copy;
  {
    Plan plan = JoinAboveAggregatePlan();
    ExecOptions options;
    options.collect_provenance = true;
    const ExecResult result = MustExecute(db, &plan, options);
    copy = result.output;
  }
  ASSERT_EQ(copy.num_rows(), 28);
  ExpectAggregateJoinCells(db, copy, "copy");
}

// ---------- Leaf overrides ----------

TEST(Executor, LeafOverridesBindPerOccurrence) {
  Database db = MakeTestDb();
  // Tiny replacement tables with distinct contents per occurrence.
  Table small1("t2#a", db.GetTable("t2").schema());
  small1.AppendRow({Value::Int64(1), Value::Double(1.0)});
  Table small2("t2#b", db.GetTable("t2").schema());
  small2.AppendRow({Value::Int64(1), Value::Double(2.0)});
  small2.AppendRow({Value::Int64(2), Value::Double(3.0)});

  Plan plan(MakeHashJoin(MakeSeqScan("t2", NoPred()), MakeSeqScan("t2", NoPred()),
                         {{0, 0}}));
  ASSERT_TRUE(plan.Finalize(db).ok());
  std::vector<const Table*> overrides = {&small1, &small2};
  ExecOptions options;
  options.leaf_overrides = &overrides;
  Executor executor(&db);
  auto result = executor.Execute(plan, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output.num_rows(), 1);  // k=1 matches k=1 only
  EXPECT_DOUBLE_EQ(result->ops[0].leaf_row_product, 1.0 * 2.0);
}

TEST(Executor, LeafOverrideCountMismatchFails) {
  Database db = MakeTestDb();
  Plan plan(MakeSeqScan("t1", NoPred()));
  ASSERT_TRUE(plan.Finalize(db).ok());
  std::vector<const Table*> overrides;
  ExecOptions options;
  options.leaf_overrides = &overrides;
  Executor executor(&db);
  EXPECT_FALSE(executor.Execute(plan, options).ok());
}

// ---------- Plan validation ----------

TEST(Plan, FinalizeRejectsUnknownTable) {
  Database db = MakeTestDb();
  Plan plan(MakeSeqScan("nonexistent", NoPred()));
  EXPECT_FALSE(plan.Finalize(db).ok());
}

TEST(Plan, FinalizeRejectsBadJoinKey) {
  Database db = MakeTestDb();
  Plan plan(MakeHashJoin(MakeSeqScan("t1", NoPred()), MakeSeqScan("t2", NoPred()),
                         {{99, 0}}));
  EXPECT_FALSE(plan.Finalize(db).ok());
}

/// Finalizes `plan` against MakeTestDb and expects InvalidArgument.
void ExpectFinalizeInvalid(Plan plan) {
  Database db = MakeTestDb();
  const Status status = plan.Finalize(db);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
}

TEST(Plan, FinalizeRejectsPredicateColumnOutOfRange) {
  // t1 has 3 columns, t2 has 2: column 3 is past t1's row, and a residual
  // over the 5-column join output can reach past that too.
  ExpectFinalizeInvalid(
      Plan(MakeSeqScan("t1", Expr::Cmp(3, CmpOp::kEq, Value::Int64(1)))));
  ExpectFinalizeInvalid(Plan(MakeSeqScan(
      "t1", Expr::And(Expr::Cmp(0, CmpOp::kLt, Value::Int64(5)),
                      Expr::Not(Expr::Cmp(-1, CmpOp::kEq, Value::Int64(1)))))));
  ExpectFinalizeInvalid(
      Plan(MakeSeqScan("t1", Expr::CmpColumns(0, CmpOp::kLt, 7))));
  ExpectFinalizeInvalid(Plan(MakeIndexScan(
      "t1", 1, Expr::And(Expr::Cmp(1, CmpOp::kLe, Value::Double(9.0)),
                         Expr::Cmp(5, CmpOp::kEq, Value::Int64(1))))));
  ExpectFinalizeInvalid(Plan(MakeHashJoin(
      MakeSeqScan("t1", NoPred()), MakeSeqScan("t2", NoPred()), {{0, 0}},
      Expr::Cmp(5, CmpOp::kLt, Value::Double(1.0)))));
}

TEST(Plan, FinalizeRejectsStringOrdering) {
  // Column 2 of t1 is the string `tag`: ordering comparisons and
  // column-column comparisons on it (or against a string constant) are
  // rejected before any sample run could reach Value::AsDouble.
  ExpectFinalizeInvalid(
      Plan(MakeSeqScan("t1", Expr::Cmp(2, CmpOp::kLt, Value::String("x")))));
  ExpectFinalizeInvalid(
      Plan(MakeSeqScan("t1", Expr::Cmp(2, CmpOp::kGe, Value::Int64(0)))));
  ExpectFinalizeInvalid(
      Plan(MakeSeqScan("t1", Expr::Cmp(0, CmpOp::kLe, Value::String("x")))));
  ExpectFinalizeInvalid(
      Plan(MakeSeqScan("t1", Expr::CmpColumns(0, CmpOp::kEq, 2))));
  ExpectFinalizeInvalid(Plan(MakeSeqScan(
      "t1", Expr::Or(Expr::StrEq(2, "x"), Expr::CmpColumns(2, CmpOp::kNe, 2)))));
  ExpectFinalizeInvalid(Plan(MakeNestLoopJoin(
      MakeSeqScan("t1", NoPred()), MakeSeqScan("t2", NoPred()), {{0, 0}},
      Expr::CmpColumns(2, CmpOp::kGt, 4))));
}

TEST(Plan, FinalizeRejectsStringIndexAndAggregate) {
  ExpectFinalizeInvalid(
      Plan(MakeIndexScan("t1", 2, Expr::StrEq(2, "x"))));
  ExpectFinalizeInvalid(Plan(MakeAggregate(
      MakeSeqScan("t1", NoPred()), {0}, {{AggSpec::Kind::kSum, 2, "sum_tag"}})));
  ExpectFinalizeInvalid(Plan(MakeAggregate(
      MakeSeqScan("t1", NoPred()), {}, {{AggSpec::Kind::kMax, 2, "max_tag"}})));
}

TEST(Plan, FinalizeRejectsMergeJoinKeyArity) {
  // The merge walk orders exactly one key pair; any other count used to
  // abort the executor instead of failing the plan.
  ExpectFinalizeInvalid(Plan(MakeMergeJoin(MakeSort(MakeSeqScan("t1", NoPred()), {0}),
                                           MakeSort(MakeSeqScan("t2", NoPred()), {0}),
                                           {})));
  ExpectFinalizeInvalid(Plan(MakeMergeJoin(MakeSort(MakeSeqScan("t1", NoPred()), {0}),
                                           MakeSort(MakeSeqScan("t2", NoPred()), {0}),
                                           {{0, 0}, {1, 1}})));
}

TEST(Plan, FinalizeRejectsMixedTypeMergeJoinKeys) {
  // t1.tag is a string, t2.k an int: the merge walk would order a string
  // against a number. Same-kind pairs pass, int vs double included.
  ExpectFinalizeInvalid(Plan(MakeMergeJoin(MakeSort(MakeSeqScan("t1", NoPred()), {2}),
                                           MakeSort(MakeSeqScan("t2", NoPred()), {0}),
                                           {{2, 0}})));
  ExpectFinalizeInvalid(Plan(MakeMergeJoin(MakeSort(MakeSeqScan("t2", NoPred()), {0}),
                                           MakeSort(MakeSeqScan("t1", NoPred()), {2}),
                                           {{0, 2}})));
  Database db = MakeTestDb();
  Plan strings(MakeMergeJoin(MakeSort(MakeSeqScan("t1", NoPred()), {2}),
                             MakeSort(MakeSeqScan("t1", NoPred()), {2}), {{2, 2}}));
  EXPECT_TRUE(strings.Finalize(db).ok());
  Plan numbers(MakeMergeJoin(MakeSort(MakeSeqScan("t1", NoPred()), {1}),
                             MakeSort(MakeSeqScan("t2", NoPred()), {0}), {{1, 0}}));
  EXPECT_TRUE(numbers.Finalize(db).ok());
}

TEST(Plan, FinalizeAcceptsStringEqualityAndCounts) {
  // Strings support equality against any constant (a number never equals
  // a string), and COUNT and GROUP BY may use string columns.
  Database db = MakeTestDb();
  Plan eq(MakeSeqScan("t1", Expr::Or(Expr::StrEq(2, "x"),
                                     Expr::Cmp(2, CmpOp::kNe, Value::Int64(3)))));
  EXPECT_TRUE(eq.Finalize(db).ok());
  Plan num_vs_string(
      MakeSeqScan("t1", Expr::Cmp(0, CmpOp::kEq, Value::String("x"))));
  EXPECT_TRUE(num_vs_string.Finalize(db).ok());
  Plan agg(MakeAggregate(MakeSeqScan("t1", NoPred()), {2},
                         {{AggSpec::Kind::kCount, 2, "cnt"},
                          {AggSpec::Kind::kSum, 1, "sum_b"}}));
  EXPECT_TRUE(agg.Finalize(db).ok());
}

TEST(Plan, PreorderIdsAndLeafSpans) {
  Database db = MakeTestDb();
  Plan plan(MakeHashJoin(MakeSeqScan("t1", NoPred()), MakeSeqScan("t2", NoPred()),
                         {{0, 0}}));
  ASSERT_TRUE(plan.Finalize(db).ok());
  EXPECT_EQ(plan.num_operators(), 3);
  EXPECT_EQ(plan.num_leaves(), 2);
  const auto nodes = plan.NodesPreorder();
  EXPECT_EQ(nodes[0]->id, 0);
  EXPECT_TRUE(IsJoin(nodes[0]->type));
  EXPECT_EQ(nodes[0]->leaf_begin, 0);
  EXPECT_EQ(nodes[0]->leaf_end, 2);
  EXPECT_EQ(nodes[1]->leaf_begin, 0);
  EXPECT_EQ(nodes[1]->leaf_end, 1);
  EXPECT_DOUBLE_EQ(nodes[0]->leaf_row_product, 8000.0);
}

TEST(Plan, ClonePreservesStructure) {
  Database db = MakeTestDb();
  auto original = MakeHashJoin(
      MakeSeqScan("t1", Expr::Cmp(0, CmpOp::kLt, Value::Int64(10))),
      MakeSeqScan("t2", NoPred()), {{0, 0}});
  auto clone = ClonePlanTree(*original);
  Plan p1(std::move(original)), p2(std::move(clone));
  const ExecResult a = MustExecute(db, &p1);
  const ExecResult b = MustExecute(db, &p2);
  EXPECT_EQ(RowFingerprints(a.output), RowFingerprints(b.output));
}

TEST(Plan, CloneCarriesFinalizedStateAndSharesNothing) {
  Database db = MakeTestDb();
  Plan plan(MakeHashJoin(
      MakeSeqScan("t1", Expr::And(Expr::Cmp(0, CmpOp::kLt, Value::Int64(10)),
                                  Expr::Cmp(1, CmpOp::kGe, Value::Double(2.0)))),
      MakeSeqScan("t2", NoPred()), {{0, 0}}));
  ASSERT_TRUE(plan.Finalize(db).ok());

  const Plan clone = plan.Clone();
  // Finalized state survives without re-running Finalize.
  EXPECT_EQ(clone.num_operators(), plan.num_operators());
  EXPECT_EQ(clone.num_leaves(), plan.num_leaves());
  const auto orig_nodes = plan.NodesPreorder();
  const auto clone_nodes = clone.NodesPreorder();
  ASSERT_EQ(clone_nodes.size(), orig_nodes.size());
  for (size_t i = 0; i < orig_nodes.size(); ++i) {
    EXPECT_EQ(clone_nodes[i]->id, orig_nodes[i]->id);
    EXPECT_EQ(clone_nodes[i]->leaf_begin, orig_nodes[i]->leaf_begin);
    EXPECT_EQ(clone_nodes[i]->leaf_end, orig_nodes[i]->leaf_end);
    EXPECT_EQ(clone_nodes[i]->output_schema.num_columns(),
              orig_nodes[i]->output_schema.num_columns());
    EXPECT_DOUBLE_EQ(clone_nodes[i]->leaf_row_product,
                     orig_nodes[i]->leaf_row_product);
    // A deep copy: no PlanNode and no Expr node is shared.
    EXPECT_NE(clone_nodes[i], orig_nodes[i]);
    if (orig_nodes[i]->predicate != nullptr) {
      EXPECT_NE(clone_nodes[i]->predicate.get(), orig_nodes[i]->predicate.get());
    }
  }
  // Identical structural identity: same fingerprint and canonical key.
  EXPECT_EQ(PlanFingerprint(clone), PlanFingerprint(plan));
  EXPECT_EQ(PlanStructuralKey(clone), PlanStructuralKey(plan));
  EXPECT_EQ(clone.ToString(), plan.ToString());

  // The clone executes standalone, WITHOUT re-running Finalize — and keeps
  // working after every plan it was cloned from is gone (the lifetime
  // contract a queued PredictAsync request relies on).
  const ExecResult a = MustExecute(db, &plan);
  Plan survivor;
  {
    Plan doomed = plan.Clone();
    survivor = doomed.Clone();
  }  // doomed destroyed; survivor must share nothing with it
  Executor executor(&db);
  auto b = executor.Execute(survivor, ExecOptions{});
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(RowFingerprints(a.output), RowFingerprints(b->output));
}

TEST(Plan, IdentityIsPublishedOnceAndFollowsThePlan) {
  Database db = MakeTestDb();
  Plan plan(MakeHashJoin(
      MakeSeqScan("t1", Expr::Cmp(0, CmpOp::kLt, Value::Int64(10))),
      MakeSeqScan("t2", NoPred()), {{0, 0}}));
  ASSERT_TRUE(plan.Finalize(db).ok());

  // Racing first calls on a fresh plan: every caller gets the one
  // published PlanIdentity object.
  constexpr int kThreads = 4;
  std::vector<const PlanIdentity*> seen(kThreads, nullptr);
  std::atomic<int> arrived{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      seen[t] = plan.Identity().get();
    });
  }
  for (std::thread& th : threads) th.join();
  const PlanIdentity* first = seen[0];
  ASSERT_NE(first, nullptr);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], first) << t;
  EXPECT_EQ(first->fingerprint, PlanFingerprint(plan));
  EXPECT_EQ(first->key, PlanStructuralKey(plan));

  // Later calls, a clone, and the targets of a move all return it.
  EXPECT_EQ(plan.Identity().get(), first);
  const Plan clone = plan.Clone();
  EXPECT_EQ(clone.Identity().get(), first);
  Plan moved(std::move(plan));
  EXPECT_EQ(moved.Identity().get(), first);
  Plan assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.Identity().get(), first);

  // An edit followed by Finalize yields a new identity that describes the
  // edited structure; the clone keeps the old one.
  assigned.mutable_root()->left->predicate =
      Expr::Cmp(0, CmpOp::kLt, Value::Int64(20));
  ASSERT_TRUE(assigned.Finalize(db).ok());
  const PlanIdentity* edited = assigned.Identity().get();
  ASSERT_NE(edited, nullptr);
  EXPECT_NE(edited, first);
  EXPECT_NE(edited->fingerprint, first->fingerprint);
  EXPECT_EQ(edited->fingerprint, PlanFingerprint(assigned));
  EXPECT_EQ(edited->key, PlanStructuralKey(assigned));
  EXPECT_EQ(assigned.Identity().get(), edited);
  EXPECT_EQ(clone.Identity().get(), first);
  EXPECT_EQ(clone.Identity()->fingerprint, PlanFingerprint(clone));
}

TEST(Plan, FingerprintIsPinnedAndHashesTheKey) {
  // The fingerprint is the avalanched byte hash of the structural key,
  // both defined in-tree, so it reads the same under every standard
  // library (the plan holds no string constant, whose key bytes would be
  // an interned pool id).
  Database db = MakeTestDb();
  Plan plan(MakeHashJoin(
      MakeSeqScan("t1", Expr::And(Expr::Cmp(0, CmpOp::kLt, Value::Int64(10)),
                                  Expr::Cmp(1, CmpOp::kGe, Value::Double(2.5)))),
      MakeSeqScan("t2", NoPred()), {{0, 0}}));
  EXPECT_EQ(plan.Identity(), nullptr) << "no identity before Finalize";
  ASSERT_TRUE(plan.Finalize(db).ok());
  const std::string key = PlanStructuralKey(plan);
  EXPECT_EQ(PlanFingerprint(plan), 0x7b01b57b61b19581ULL);
  EXPECT_EQ(PlanFingerprint(plan),
            HashAvalanche64(HashBytes64(key.data(), key.size())));
  EXPECT_EQ(HashBytes64("a", 1), 0xaf63dc4c8601ec8cULL)
      << "FNV-1a 64's published test vector";
  ASSERT_NE(plan.Identity(), nullptr);
  EXPECT_EQ(plan.Identity()->fingerprint, PlanFingerprint(plan));
  EXPECT_EQ(plan.Identity()->key, key);

  // A failed Finalize leaves the plan without an identity.
  plan.mutable_root()->left->table_name = "no_such_table";
  EXPECT_FALSE(plan.Finalize(db).ok());
  EXPECT_EQ(plan.Identity(), nullptr);
}

// ---------- Planner ----------

TEST(Planner, PicksIndexScanForSelectiveRange) {
  Database db = MakeTestDb();
  auto plan = OptimizePlan(
      MakeSeqScan("t1", Expr::Cmp(1, CmpOp::kLe, Value::Double(3.0))), db);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root()->type, OpType::kIndexScan);
  EXPECT_EQ(plan->root()->index_column, 1);
  // A range estimated just under the 0.12 index threshold (0.118).
  plan = OptimizePlan(
      MakeSeqScan("t1", Expr::Cmp(1, CmpOp::kLe, Value::Double(23.0))), db);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root()->type, OpType::kIndexScan);
  EXPECT_EQ(plan->root()->index_column, 1);
}

TEST(Planner, OptimizedPlanIdentityMatchesAFreshFinalize) {
  Database db = MakeTestDb();
  // Both rewrites fire: the selective scan becomes an index scan and the
  // small inner turns the hash join into a nested loop, so an identity
  // taken before the rewrite would describe another plan.
  auto plan = OptimizePlan(
      MakeHashJoin(
          MakeSeqScan("t1", Expr::Cmp(1, CmpOp::kLe, Value::Double(3.0))),
          MakeSeqScan("t2", NoPred()), {{0, 0}}),
      db);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->root()->type, OpType::kNestLoopJoin);
  ASSERT_EQ(plan->root()->left->type, OpType::kIndexScan);
  ASSERT_NE(plan->Identity(), nullptr);
  Plan fresh = plan->Clone();
  ASSERT_TRUE(fresh.Finalize(db).ok());
  ASSERT_NE(fresh.Identity(), plan->Identity());
  EXPECT_EQ(plan->Identity()->key, fresh.Identity()->key);
  EXPECT_EQ(plan->Identity()->fingerprint, fresh.Identity()->fingerprint);
}

TEST(Planner, KeepsSeqScanForWideRange) {
  Database db = MakeTestDb();
  auto plan = OptimizePlan(
      MakeSeqScan("t1", Expr::Cmp(1, CmpOp::kLe, Value::Double(180.0))), db);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root()->type, OpType::kSeqScan);
  // A range estimated just over the 0.12 index threshold (0.1203).
  plan = OptimizePlan(
      MakeSeqScan("t1", Expr::Cmp(1, CmpOp::kLe, Value::Double(23.5))), db);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root()->type, OpType::kSeqScan);
}

TEST(Planner, KeepsSeqScanForUnindexedColumn) {
  Database db = MakeTestDb();
  // Column 0 has no declared index.
  auto plan = OptimizePlan(
      MakeSeqScan("t1", Expr::Cmp(0, CmpOp::kLt, Value::Int64(1))), db);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root()->type, OpType::kSeqScan);
}

TEST(Planner, SmallInnerBecomesNestLoop) {
  Database db = MakeTestDb();
  auto plan = OptimizePlan(
      MakeHashJoin(MakeSeqScan("t1", NoPred()), MakeSeqScan("t2", NoPred()),
                   {{0, 0}}),
      db);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root()->type, OpType::kNestLoopJoin);  // t2 has 40 rows
  // An inner estimated just under the 64-row threshold (63.5 rows of t1).
  plan = OptimizePlan(
      MakeHashJoin(MakeSeqScan("t2", NoPred()),
                   MakeSeqScan("t1", Expr::Cmp(1, CmpOp::kLe, Value::Double(63.0))),
                   {{0, 0}}),
      db);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root()->type, OpType::kNestLoopJoin);
}

TEST(Planner, LargeInnerStaysHashJoin) {
  Database db = MakeTestDb();
  auto plan = OptimizePlan(
      MakeHashJoin(MakeSeqScan("t2", NoPred()), MakeSeqScan("t1", NoPred()),
                   {{0, 0}}),
      db);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root()->type, OpType::kHashJoin);  // t1 has 200 rows
  // An inner estimated just over the 64-row threshold (64.4 rows of t1).
  plan = OptimizePlan(
      MakeHashJoin(MakeSeqScan("t2", NoPred()),
                   MakeSeqScan("t1", Expr::Cmp(1, CmpOp::kLe, Value::Double(64.0))),
                   {{0, 0}}),
      db);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root()->type, OpType::kHashJoin);
}

TEST(Planner, KeylessJoinBecomesNestLoop) {
  Database db = MakeTestDb();
  auto plan = OptimizePlan(
      MakeHashJoin(MakeSeqScan("t1", NoPred()), MakeSeqScan("t1", NoPred()), {}),
      db);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root()->type, OpType::kNestLoopJoin);
}

// ---------- Cardinality ----------

TEST(Cardinality, RangePairingAvoidsIndependenceBlowup) {
  Database db = MakeTestDb();
  CardinalityEstimator cards(&db);
  // b BETWEEN 100 AND 120 covers ~10% of rows; independence on the two
  // endpoint comparisons would claim ~30%.
  const auto pred = Expr::Between(1, Value::Double(100.0), Value::Double(120.0));
  const double sel = cards.PredicateSelectivity(pred.get(), "t1");
  EXPECT_NEAR(sel, 21.0 / 200.0, 0.04);
}

TEST(Cardinality, StringEqualityUsesFrequency) {
  Database db = MakeTestDb();
  CardinalityEstimator cards(&db);
  const auto pred = Expr::StrEq(2, "x");
  EXPECT_NEAR(cards.PredicateSelectivity(pred.get(), "t1"), 67.0 / 200.0, 0.01);
  const auto none = Expr::StrEq(2, "never-seen");
  EXPECT_DOUBLE_EQ(cards.PredicateSelectivity(none.get(), "t1"), 0.0);
}

TEST(Cardinality, EquiJoinUsesDistinctCounts) {
  Database db = MakeTestDb();
  Plan plan(MakeHashJoin(MakeSeqScan("t1", NoPred()), MakeSeqScan("t2", NoPred()),
                         {{0, 0}}));
  ASSERT_TRUE(plan.Finalize(db).ok());
  CardinalityEstimator cards(&db);
  const auto rows = cards.EstimatePlan(plan);
  // |t1 x t2| / max(d(a), d(k)) = 200 * 40 / 50 = 160 — matches the truth.
  EXPECT_NEAR(rows[0], 160.0, 1.0);
}

TEST(Cardinality, AggregateGroupEstimate) {
  Database db = MakeTestDb();
  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kCount, -1, "cnt"});
  Plan plan(MakeAggregate(MakeSeqScan("t1", NoPred()), {0}, aggs));
  ASSERT_TRUE(plan.Finalize(db).ok());
  CardinalityEstimator cards(&db);
  const auto rows = cards.EstimatePlan(plan);
  EXPECT_NEAR(rows[0], 50.0, 1.0);  // 50 distinct a values
}

TEST(Cardinality, PassThroughKeepsRows) {
  Database db = MakeTestDb();
  Plan plan(MakeSort(MakeSeqScan("t1", NoPred()), {0}));
  ASSERT_TRUE(plan.Finalize(db).ok());
  CardinalityEstimator cards(&db);
  const auto rows = cards.EstimatePlan(plan);
  EXPECT_DOUBLE_EQ(rows[0], rows[1]);
}

// ---------- Cost model ----------

TEST(CostModel, SeqScanResources) {
  OperatorContext ctx;
  ctx.type = OpType::kSeqScan;
  ctx.table_rows = 1000;
  ctx.table_pages = 25;
  ctx.qual_ops = 2;
  const ResourceVector r = EstimateResources(ctx, EngineConfig{});
  EXPECT_DOUBLE_EQ(r.ns, 25.0);
  EXPECT_DOUBLE_EQ(r.nt, 1000.0);
  EXPECT_DOUBLE_EQ(r.no, 2000.0);
}

TEST(CostModel, IndexScanUsesRangeRatio) {
  OperatorContext ctx;
  ctx.type = OpType::kIndexScan;
  ctx.table_rows = 10000;
  ctx.table_pages = 100;
  ctx.out_rows = 50;
  ctx.qual_ops = 1;
  ctx.index_range_ratio = 4.0;
  const ResourceVector r = EstimateResources(ctx, EngineConfig{});
  EXPECT_DOUBLE_EQ(r.nt, 200.0);  // 50 * 4 range matches
  EXPECT_GT(r.nr, 0.0);
  EXPECT_LE(r.nr, 100.0);
}

TEST(CostModel, HashJoinSpillsAboveWorkMem) {
  OperatorContext ctx;
  ctx.type = OpType::kHashJoin;
  ctx.left_rows = 10000;
  ctx.right_rows = 10000;
  ctx.left_width = 100;
  ctx.right_width = 100;
  ctx.out_rows = 100;
  EngineConfig small_mem;
  small_mem.work_mem_bytes = 1024;
  EngineConfig big_mem;
  big_mem.work_mem_bytes = 1e9;
  EXPECT_GT(EstimateResources(ctx, small_mem).ns, 0.0);
  EXPECT_DOUBLE_EQ(EstimateResources(ctx, big_mem).ns, 0.0);
}

TEST(CostModel, ExpectedPageFetchesSaturates) {
  EXPECT_DOUBLE_EQ(ExpectedPageFetches(0, 100), 0.0);
  EXPECT_NEAR(ExpectedPageFetches(1, 100), 1.0, 0.01);
  EXPECT_LE(ExpectedPageFetches(1e6, 100), 100.0);
  EXPECT_NEAR(ExpectedPageFetches(1e6, 100), 100.0, 0.1);
  // Monotone in rows.
  EXPECT_LT(ExpectedPageFetches(10, 100), ExpectedPageFetches(50, 100));
}

TEST(CostModel, ResourceVectorDotMatchesEq1) {
  ResourceVector r;
  r.ns = 1;
  r.nr = 2;
  r.nt = 3;
  r.ni = 4;
  r.no = 5;
  // t = ns cs + nr cr + nt ct + ni ci + no co.
  EXPECT_DOUBLE_EQ(r.Dot(1, 10, 100, 1000, 10000), 1 + 20 + 300 + 4000 + 50000);
  for (int u = 0; u < 5; ++u) {
    EXPECT_DOUBLE_EQ(r.Get(u), static_cast<double>(u + 1));
  }
}

}  // namespace
}  // namespace uqp
