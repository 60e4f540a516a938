// End-to-end execution tests: SQL in, rows out, through the full
// parse/bind/rewrite/plan/execute pipeline of a small fixture database.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/rng.h"
#include "engine/softdb.h"

namespace softdb {
namespace {

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Run("CREATE TABLE dept (d_id BIGINT NOT NULL PRIMARY KEY, "
        "d_name VARCHAR)");
    Run("CREATE TABLE emp (e_id BIGINT NOT NULL PRIMARY KEY, "
        "e_dept BIGINT NOT NULL, e_salary DOUBLE, e_name VARCHAR, "
        "FOREIGN KEY (e_dept) REFERENCES dept (d_id))");
    Run("INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'empty')");
    Run("INSERT INTO emp VALUES "
        "(10, 1, 100.0, 'ann'), (11, 1, 200.0, 'bob'), "
        "(12, 2, 150.0, 'cat'), (13, 2, NULL, 'dan'), "
        "(14, 1, 50.0, 'eve')");
    ASSERT_TRUE(db_.Analyze().ok());
  }

  QueryResult Run(const std::string& sql) {
    auto result = db_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? *std::move(result) : QueryResult{};
  }

  SoftDb db_;
};

TEST_F(ExecTest, SelectStar) {
  auto r = Run("SELECT * FROM emp");
  EXPECT_EQ(r.rows.NumRows(), 5u);
  EXPECT_EQ(r.rows.schema.NumColumns(), 4u);
}

TEST_F(ExecTest, FilterComparisons) {
  EXPECT_EQ(Run("SELECT * FROM emp WHERE e_salary > 100").rows.NumRows(), 2u);
  EXPECT_EQ(Run("SELECT * FROM emp WHERE e_salary >= 100").rows.NumRows(),
            3u);
  EXPECT_EQ(Run("SELECT * FROM emp WHERE e_salary = 150").rows.NumRows(), 1u);
  EXPECT_EQ(Run("SELECT * FROM emp WHERE e_salary <> 150").rows.NumRows(),
            3u);  // NULL salary row excluded by 3VL.
  EXPECT_EQ(Run("SELECT * FROM emp WHERE e_name = 'ann'").rows.NumRows(), 1u);
}

TEST_F(ExecTest, NullSemantics) {
  EXPECT_EQ(Run("SELECT * FROM emp WHERE e_salary IS NULL").rows.NumRows(),
            1u);
  EXPECT_EQ(
      Run("SELECT * FROM emp WHERE e_salary IS NOT NULL").rows.NumRows(),
      4u);
  // Comparison with NULL is unknown, not true.
  EXPECT_EQ(Run("SELECT * FROM emp WHERE e_salary = e_salary").rows.NumRows(),
            4u);
}

TEST_F(ExecTest, BetweenAndIn) {
  EXPECT_EQ(
      Run("SELECT * FROM emp WHERE e_salary BETWEEN 100 AND 150").rows
          .NumRows(),
      2u);
  EXPECT_EQ(Run("SELECT * FROM emp WHERE e_id IN (10, 12, 99)").rows
                .NumRows(),
            2u);
  EXPECT_EQ(Run("SELECT * FROM emp WHERE e_id NOT IN (10, 12)").rows
                .NumRows(),
            3u);
}

TEST_F(ExecTest, Projection) {
  auto r = Run("SELECT e_name, e_salary * 2 AS double_pay FROM emp "
               "WHERE e_id = 10");
  ASSERT_EQ(r.rows.NumRows(), 1u);
  EXPECT_EQ(r.rows.rows[0][0].AsString(), "ann");
  EXPECT_EQ(r.rows.rows[0][1].AsDouble(), 200.0);
  EXPECT_EQ(r.rows.schema.Column(1).name, "double_pay");
}

TEST_F(ExecTest, JoinOnClause) {
  auto r = Run(
      "SELECT e_name, d_name FROM emp JOIN dept ON e_dept = d_id "
      "WHERE d_name = 'eng'");
  EXPECT_EQ(r.rows.NumRows(), 3u);
}

TEST_F(ExecTest, CommaJoinWithWhere) {
  auto r = Run("SELECT e_name, d_name FROM emp, dept WHERE e_dept = d_id");
  EXPECT_EQ(r.rows.NumRows(), 5u);
}

TEST_F(ExecTest, NonEquiJoinFallsBackToNestedLoop) {
  auto r = Run("SELECT e_name, d_name FROM emp, dept WHERE e_dept < d_id");
  // dept 2: e_dept=1 (3 rows); dept 3: e_dept in {1,2} (5 rows).
  EXPECT_EQ(r.rows.NumRows(), 8u);
}

TEST_F(ExecTest, ThreeWayJoin) {
  Run("CREATE TABLE loc (l_dept BIGINT NOT NULL, l_city VARCHAR)");
  Run("INSERT INTO loc VALUES (1, 'nyc'), (2, 'sfo')");
  auto r = Run(
      "SELECT e_name, d_name, l_city FROM emp "
      "JOIN dept ON e_dept = d_id JOIN loc ON d_id = l_dept");
  EXPECT_EQ(r.rows.NumRows(), 5u);
}

TEST_F(ExecTest, GlobalAggregates) {
  auto r = Run(
      "SELECT COUNT(*) AS n, COUNT(e_salary) AS ns, SUM(e_salary) AS s, "
      "AVG(e_salary) AS a, MIN(e_salary) AS lo, MAX(e_salary) AS hi "
      "FROM emp");
  ASSERT_EQ(r.rows.NumRows(), 1u);
  const auto& row = r.rows.rows[0];
  EXPECT_EQ(row[0].AsInt64(), 5);   // COUNT(*) counts NULL rows.
  EXPECT_EQ(row[1].AsInt64(), 4);   // COUNT(col) does not.
  EXPECT_EQ(row[2].AsDouble(), 500.0);
  EXPECT_EQ(row[3].AsDouble(), 125.0);
  EXPECT_EQ(row[4].AsDouble(), 50.0);
  EXPECT_EQ(row[5].AsDouble(), 200.0);
}

TEST_F(ExecTest, GroupBy) {
  auto r = Run(
      "SELECT e_dept, COUNT(*) AS n, SUM(e_salary) AS total FROM emp "
      "GROUP BY e_dept ORDER BY e_dept");
  ASSERT_EQ(r.rows.NumRows(), 2u);
  EXPECT_EQ(r.rows.rows[0][0].AsInt64(), 1);
  EXPECT_EQ(r.rows.rows[0][1].AsInt64(), 3);
  EXPECT_EQ(r.rows.rows[0][2].AsDouble(), 350.0);
  EXPECT_EQ(r.rows.rows[1][1].AsInt64(), 2);
}

TEST_F(ExecTest, AggregatesOnEmptyInput) {
  auto r = Run("SELECT COUNT(*) AS n, SUM(e_salary) AS s FROM emp "
               "WHERE e_id > 1000");
  ASSERT_EQ(r.rows.NumRows(), 1u);  // Global aggregate: one row.
  EXPECT_EQ(r.rows.rows[0][0].AsInt64(), 0);
  EXPECT_TRUE(r.rows.rows[0][1].is_null());

  auto grouped = Run("SELECT e_dept, COUNT(*) FROM emp WHERE e_id > 1000 "
                     "GROUP BY e_dept");
  EXPECT_EQ(grouped.rows.NumRows(), 0u);  // Grouped: no rows.
}

TEST_F(ExecTest, OrderByAscDesc) {
  auto asc = Run("SELECT e_name FROM emp WHERE e_salary IS NOT NULL "
                 "ORDER BY e_salary");
  ASSERT_EQ(asc.rows.NumRows(), 4u);
  EXPECT_EQ(asc.rows.rows[0][0].AsString(), "eve");
  EXPECT_EQ(asc.rows.rows[3][0].AsString(), "bob");

  auto desc = Run("SELECT e_name FROM emp WHERE e_salary IS NOT NULL "
                  "ORDER BY e_salary DESC");
  EXPECT_EQ(desc.rows.rows[0][0].AsString(), "bob");
}

TEST_F(ExecTest, OrderByMultipleKeys) {
  auto r = Run("SELECT e_dept, e_name FROM emp ORDER BY e_dept, e_name DESC");
  ASSERT_EQ(r.rows.NumRows(), 5u);
  EXPECT_EQ(r.rows.rows[0][1].AsString(), "eve");  // Dept 1 desc by name.
  EXPECT_EQ(r.rows.rows[2][1].AsString(), "ann");
}

TEST_F(ExecTest, Limit) {
  EXPECT_EQ(Run("SELECT * FROM emp LIMIT 2").rows.NumRows(), 2u);
  EXPECT_EQ(Run("SELECT * FROM emp LIMIT 0").rows.NumRows(), 0u);
  EXPECT_EQ(Run("SELECT * FROM emp LIMIT 100").rows.NumRows(), 5u);
}

TEST_F(ExecTest, UnionAll) {
  auto r = Run("SELECT e_name FROM emp WHERE e_dept = 1 "
               "UNION ALL SELECT e_name FROM emp WHERE e_dept = 2");
  EXPECT_EQ(r.rows.NumRows(), 5u);
  // Branches pass through the union unchanged, so their column types must
  // agree.
  auto mixed = db_.Execute("SELECT e_name FROM emp UNION ALL "
                           "SELECT e_salary FROM emp");
  ASSERT_FALSE(mixed.ok());
  EXPECT_NE(mixed.status().ToString().find("different types"),
            std::string::npos);
}

TEST_F(ExecTest, UpdateThenRead) {
  Run("UPDATE emp SET e_salary = 999 WHERE e_name = 'eve'");
  auto r = Run("SELECT e_salary FROM emp WHERE e_name = 'eve'");
  EXPECT_EQ(r.rows.rows[0][0].AsDouble(), 999.0);
}

TEST_F(ExecTest, UpdateWithExpression) {
  Run("UPDATE emp SET e_salary = e_salary + 10 WHERE e_dept = 1");
  auto r = Run("SELECT SUM(e_salary) AS s FROM emp WHERE e_dept = 1");
  EXPECT_EQ(r.rows.rows[0][0].AsDouble(), 380.0);
}

TEST_F(ExecTest, DeleteThenCount) {
  Run("DELETE FROM emp WHERE e_dept = 2");
  auto r = Run("SELECT COUNT(*) AS n FROM emp");
  EXPECT_EQ(r.rows.rows[0][0].AsInt64(), 3);
}

TEST_F(ExecTest, DateArithmeticInQueries) {
  Run("CREATE TABLE evt (e_start DATE, e_end DATE)");
  Run("INSERT INTO evt VALUES (DATE '1999-01-01', DATE '1999-01-05'), "
      "(DATE '1999-02-01', DATE '1999-03-01')");
  EXPECT_EQ(Run("SELECT * FROM evt WHERE e_end - e_start <= 5").rows
                .NumRows(),
            1u);
  EXPECT_EQ(Run("SELECT * FROM evt WHERE e_end <= e_start + 10").rows
                .NumRows(),
            1u);
}

TEST_F(ExecTest, ScanStatsAccounted) {
  auto r = Run("SELECT * FROM emp");
  EXPECT_EQ(r.exec_stats.rows_scanned, 5u);
  EXPECT_GE(r.exec_stats.pages_read, 1u);
  EXPECT_EQ(r.exec_stats.rows_output, 5u);
}

TEST_F(ExecTest, ConstraintViolationsAbortInserts) {
  // Duplicate PK.
  EXPECT_FALSE(db_.Execute("INSERT INTO emp VALUES (10, 1, 1.0, 'dup')")
                   .ok());
  // FK to missing dept.
  EXPECT_FALSE(db_.Execute("INSERT INTO emp VALUES (99, 42, 1.0, 'orphan')")
                   .ok());
  // NULL in NOT NULL column.
  EXPECT_FALSE(db_.Execute("INSERT INTO emp VALUES (NULL, 1, 1.0, 'x')")
                   .ok());
  // Table unchanged.
  EXPECT_EQ(Run("SELECT COUNT(*) AS n FROM emp").rows.rows[0][0].AsInt64(),
            5);
}

TEST_F(ExecTest, CheckConstraintEnforced) {
  Run("CREATE TABLE pos (v BIGINT, CHECK (v > 0))");
  EXPECT_TRUE(db_.Execute("INSERT INTO pos VALUES (5)").ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO pos VALUES (0)").ok());
  EXPECT_TRUE(db_.Execute("INSERT INTO pos VALUES (NULL)").ok());  // Unknown.
}

TEST_F(ExecTest, UniqueAllowsNulls) {
  Run("CREATE TABLE u (a BIGINT, UNIQUE (a))");
  EXPECT_TRUE(db_.Execute("INSERT INTO u VALUES (NULL)").ok());
  EXPECT_TRUE(db_.Execute("INSERT INTO u VALUES (NULL)").ok());
  EXPECT_TRUE(db_.Execute("INSERT INTO u VALUES (1)").ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO u VALUES (1)").ok());
}

TEST_F(ExecTest, BindErrors) {
  EXPECT_FALSE(db_.Execute("SELECT nosuch FROM emp").ok());
  EXPECT_FALSE(db_.Execute("SELECT * FROM nosuch").ok());
  EXPECT_FALSE(db_.Execute("SELECT e_name FROM emp, dept, emp").ok());
}

TEST_F(ExecTest, IndexScanMatchesSeqScan) {
  Run("CREATE INDEX idx_salary ON emp (e_salary)");
  auto r = Run("SELECT e_name FROM emp WHERE e_salary >= 100 "
               "AND e_salary <= 160 ORDER BY e_name");
  ASSERT_EQ(r.rows.NumRows(), 2u);
  EXPECT_EQ(r.rows.rows[0][0].AsString(), "ann");
  EXPECT_EQ(r.rows.rows[1][0].AsString(), "cat");
}

// ORDER BY on an equi join's key: skewed keys with duplicates on both
// sides plus NULL keys, so ties and non-matching NULLs are both exercised.
class JoinOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Run("CREATE TABLE l (k BIGINT, lv BIGINT)");
    Run("CREATE TABLE r (k BIGINT, rv BIGINT)");
    Rng rng(17);
    for (int i = 0; i < 300; ++i) {
      const std::int64_t k = rng.Uniform(0, 40);
      ASSERT_TRUE(db_.InsertRow("l", {i % 23 == 0 ? Value::Null()
                                                  : Value::Int64(k),
                                      Value::Int64(i)})
                      .ok());
    }
    for (int i = 0; i < 200; ++i) {
      const std::int64_t k = rng.Uniform(0, 40);
      ASSERT_TRUE(db_.InsertRow("r", {i % 31 == 0 ? Value::Null()
                                                  : Value::Int64(k),
                                      Value::Int64(i)})
                      .ok());
    }
  }

  QueryResult Run(const std::string& sql) {
    auto result = db_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? *std::move(result) : QueryResult{};
  }

  static std::multiset<std::string> RowBag(const RowSet& rows) {
    std::multiset<std::string> bag;
    for (const auto& row : rows.rows) {
      std::string image;
      for (const Value& v : row) image += v.ToString() + "|";
      bag.insert(std::move(image));
    }
    return bag;
  }

  // Asserts column 0 is ordered (ascending or descending) across rows.
  static void ExpectOrdered(const RowSet& rows, bool ascending) {
    for (std::size_t i = 1; i < rows.NumRows(); ++i) {
      auto cmp = rows.rows[i - 1][0].Compare(rows.rows[i][0]);
      ASSERT_TRUE(cmp.ok());
      if (ascending) {
        EXPECT_LE(*cmp, 0) << "row " << i;
      } else {
        EXPECT_GE(*cmp, 0) << "row " << i;
      }
    }
  }

  SoftDb db_;
};

TEST_F(JoinOrderTest, OrderByJoinKeyAscending) {
  // Hash join plus a real sort: ordered output, and the same bag as the
  // unordered join (NULL keys never match).
  auto sorted =
      Run("SELECT l.k, lv, rv FROM l JOIN r ON l.k = r.k ORDER BY l.k");
  ASSERT_GT(sorted.rows.NumRows(), 0u);
  ExpectOrdered(sorted.rows, /*ascending=*/true);
  EXPECT_EQ(sorted.exec_stats.rows_sorted, sorted.rows.NumRows());
  auto unsorted = Run("SELECT l.k, lv, rv FROM l JOIN r ON l.k = r.k");
  EXPECT_EQ(RowBag(unsorted.rows), RowBag(sorted.rows));
}

TEST_F(JoinOrderTest, OrderByJoinKeyDescending) {
  auto r = Run("SELECT l.k, lv FROM l JOIN r ON l.k = r.k ORDER BY l.k DESC");
  ASSERT_GT(r.rows.NumRows(), 0u);
  ExpectOrdered(r.rows, /*ascending=*/false);
}

}  // namespace
}  // namespace softdb
