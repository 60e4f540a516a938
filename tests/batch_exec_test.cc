// Batch executor tests: answers must match the reference evaluator
// (tests/reference_eval.h) across tombstones, §4.2 runtime-parameterized
// scans, index scans and hash-join result sets larger than one batch, with
// the exact ExecStats each shape implies. Plus direct ColumnBatch unit
// coverage.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/softdb.h"
#include "exec/column_batch.h"
#include "reference_eval.h"

namespace softdb {
namespace {

class BatchExecTest : public ::testing::Test {
 protected:
  // Runs `sql` and checks the answer (rows, order where defined, value
  // types) against the reference evaluator.
  QueryResult RunBoth(const std::string& sql) {
    db_.plan_cache().Clear();
    auto result = db_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    if (!result.ok()) return QueryResult{};
    reference::ExpectMatchesReference(sql, db_.catalog(), result->rows);
    EXPECT_EQ(result->exec_stats.rows_output, result->rows.NumRows()) << sql;
    return *std::move(result);
  }

  SoftDb db_;
};

TEST_F(BatchExecTest, MultiBatchScanWithTombstones) {
  // > 2 batches of rows, then punch tombstone holes so batch boundaries
  // land inside deleted ranges: the selection vector must skip dead slots
  // exactly.
  ASSERT_TRUE(
      db_.Execute("CREATE TABLE big (k BIGINT NOT NULL, v BIGINT)").ok());
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(db_.InsertRow("big", {Value::Int64(i),
                                      i % 11 == 0 ? Value::Null()
                                                  : Value::Int64(i % 97)})
                    .ok());
  }
  ASSERT_TRUE(db_.Execute("ANALYZE big").ok());
  ASSERT_TRUE(db_.Execute("DELETE FROM big WHERE k >= 1000 AND k < 1100").ok());
  ASSERT_TRUE(db_.Execute("DELETE FROM big WHERE k - 2040 = 0").ok());

  auto r = RunBoth("SELECT k, v FROM big WHERE v < 50");
  EXPECT_GT(r.rows.NumRows(), 0u);
  EXPECT_EQ(r.exec_stats.rows_scanned, 2899u);

  RunBoth("SELECT k + v, v FROM big WHERE v IS NULL OR k < 700");
}

TEST_F(BatchExecTest, RuntimeParamSkipAndContradictionMatchRowEngine) {
  ASSERT_TRUE(
      db_.Execute("CREATE TABLE t (v BIGINT NOT NULL, p BIGINT)").ok());
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = (i * 7919) % 2000;
    ASSERT_TRUE(db_.InsertRow("t", {Value::Int64(v), Value::Int64(i)}).ok());
  }
  ASSERT_TRUE(db_.Execute("CREATE INDEX iv ON t (v)").ok());
  ASSERT_TRUE(db_.Execute("ANALYZE t").ok());

  // Tautology: v <= 10000 covers the whole domain — skipped at Open and
  // counted.
  auto taut =
      RunBoth("SELECT COUNT(*) AS n FROM t WHERE v <= 10000 AND p >= 0");
  EXPECT_EQ(taut.rows.rows[0][0].AsInt64(), 2000);
  EXPECT_GE(taut.exec_stats.runtime_param_skips, 1u);

  // Contradiction: provably empty at Open — zero pages.
  auto contra = RunBoth("SELECT * FROM t WHERE v > 10000 AND p >= 0");
  EXPECT_EQ(contra.rows.NumRows(), 0u);
  EXPECT_EQ(contra.exec_stats.pages_read, 0u);
  EXPECT_EQ(contra.exec_stats.rows_scanned, 0u);
}

TEST_F(BatchExecTest, IndexRangeScanMatchesRowEngine) {
  ASSERT_TRUE(
      db_.Execute("CREATE TABLE ix (a BIGINT NOT NULL, b VARCHAR)").ok());
  for (int i = 0; i < 1500; ++i) {
    ASSERT_TRUE(db_.InsertRow("ix", {Value::Int64(i % 300),
                                     Value::String(i % 2 ? "x" : "y")})
                    .ok());
  }
  ASSERT_TRUE(db_.Execute("CREATE INDEX ixa ON ix (a)").ok());
  ASSERT_TRUE(db_.Execute("ANALYZE ix").ok());

  auto r = RunBoth("SELECT a, b FROM ix WHERE a >= 10 AND a <= 12 "
                   "AND b = 'x'");
  EXPECT_GT(r.exec_stats.index_lookups, 0u);
  EXPECT_GT(r.rows.NumRows(), 0u);
}

TEST_F(BatchExecTest, HashJoinResultLargerThanOneBatch) {
  // One probe row matches 3000 build rows: the batch join must carry its
  // match cursor across NextBatch calls (3000 > batch capacity 1024).
  ASSERT_TRUE(
      db_.Execute("CREATE TABLE l (lk BIGINT NOT NULL, ln BIGINT)").ok());
  ASSERT_TRUE(
      db_.Execute("CREATE TABLE r (rk BIGINT NOT NULL, rn BIGINT)").ok());
  ASSERT_TRUE(
      db_.InsertRow("l", {Value::Int64(7), Value::Int64(-1)}).ok());
  ASSERT_TRUE(
      db_.InsertRow("l", {Value::Int64(8), Value::Int64(-2)}).ok());
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(
        db_.InsertRow("r", {Value::Int64(7), Value::Int64(i)}).ok());
  }
  ASSERT_TRUE(db_.Analyze().ok());

  auto all = RunBoth("SELECT lk, ln, rn FROM l JOIN r ON lk = rk");
  EXPECT_EQ(all.rows.NumRows(), 3000u);
  EXPECT_EQ(all.exec_stats.rows_joined, 3000u);

  // Residual predicate applied after the equi-match; rows_joined counts
  // pairs before it.
  auto filtered =
      RunBoth("SELECT lk, rn FROM l JOIN r ON lk = rk WHERE ln + rn < 500");
  EXPECT_EQ(filtered.rows.NumRows(), 501u);
  EXPECT_EQ(filtered.exec_stats.rows_joined, 3000u);
}

TEST_F(BatchExecTest, ExplainOmitsEngineLine) {
  // One executor: EXPLAIN reports the plan, not an engine choice.
  ASSERT_TRUE(db_.Execute("CREATE TABLE e (x BIGINT)").ok());
  auto explain = db_.Explain("SELECT * FROM e WHERE x > 0");
  ASSERT_TRUE(explain.ok());
  EXPECT_EQ(explain->find("execution:"), std::string::npos);
  EXPECT_EQ(explain->find("vectorized"), std::string::npos);
}

TEST(ColumnBatchTest, OwnedColumnsRoundTripValues) {
  Schema schema;
  schema.AddColumn({"i", TypeId::kInt64, true, ""});
  schema.AddColumn({"d", TypeId::kDouble, true, ""});
  schema.AddColumn({"s", TypeId::kString, true, ""});
  ColumnBatch batch;
  batch.Reset(schema);

  const std::string hello = "hello";
  batch.column(0).AppendRawInt64(42, false);
  batch.column(0).AppendRawInt64(0, true);
  batch.column(1).AppendRawDouble(2.5, false);
  batch.column(1).AppendRawDouble(0, true);
  batch.column(2).AppendRawString(&hello, false);
  batch.column(2).AppendRawString(nullptr, true);
  batch.SelectAll(2);

  EXPECT_EQ(batch.column(0).GetValue(0).AsInt64(), 42);
  EXPECT_TRUE(batch.column(0).GetValue(1).is_null());
  EXPECT_EQ(batch.column(0).GetValue(1).type(), TypeId::kInt64);
  EXPECT_EQ(batch.column(1).GetValue(0).AsDouble(), 2.5);
  EXPECT_EQ(batch.column(2).GetValue(0).AsString(), "hello");
  EXPECT_TRUE(batch.column(2).GetValue(1).is_null());

  const std::vector<Value> row = batch.MaterializeRow(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].AsInt64(), 42);
  EXPECT_EQ(row[1].AsDouble(), 2.5);
  EXPECT_EQ(row[2].AsString(), "hello");
}

}  // namespace
}  // namespace softdb
