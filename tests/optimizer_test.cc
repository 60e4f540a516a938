#include <gtest/gtest.h>

#include <cmath>

#include "common/date.h"
#include "constraints/column_offset_sc.h"
#include "constraints/domain_sc.h"
#include "constraints/fd_sc.h"
#include "constraints/inclusion_sc.h"
#include "constraints/join_hole_sc.h"
#include "constraints/linear_correlation_sc.h"
#include "engine/softdb.h"
#include "optimizer/plan_cache.h"
#include "optimizer/range_analysis.h"
#include "workload/generator.h"
#include "workload/sc_kit.h"

namespace softdb {
namespace {

// ---------------------------------------------------------- Range analysis

TEST(ColumnRangeTest, ApplyNarrows) {
  ColumnRange r;
  r.Apply({0, CompareOp::kGe, Value::Int64(5)});
  r.Apply({0, CompareOp::kLe, Value::Int64(10)});
  EXPECT_EQ(r.lo, 5.0);
  EXPECT_EQ(r.hi, 10.0);
  EXPECT_FALSE(r.empty);
  r.Apply({0, CompareOp::kGt, Value::Int64(10)});
  EXPECT_TRUE(r.empty);
}

TEST(ColumnRangeTest, EqualityPins) {
  ColumnRange r;
  r.Apply({0, CompareOp::kEq, Value::Int64(7)});
  EXPECT_EQ(r.lo, 7.0);
  EXPECT_EQ(r.hi, 7.0);
  r.Apply({0, CompareOp::kEq, Value::Int64(8)});
  EXPECT_TRUE(r.empty);
}

TEST(ColumnRangeTest, NeConflictsWithEq) {
  ColumnRange r;
  r.Apply({0, CompareOp::kEq, Value::Int64(7)});
  r.Apply({0, CompareOp::kNe, Value::Int64(7)});
  EXPECT_TRUE(r.empty);
}

TEST(ColumnRangeTest, NullComparisonIsEmpty) {
  ColumnRange r;
  r.Apply({0, CompareOp::kGe, Value::Null()});
  EXPECT_TRUE(r.empty);
}

TEST(ColumnRangeTest, ImpliedBy) {
  ColumnRange wide;
  wide.Apply({0, CompareOp::kGe, Value::Int64(0)});
  wide.Apply({0, CompareOp::kLe, Value::Int64(100)});
  ColumnRange narrow;
  narrow.Apply({0, CompareOp::kGe, Value::Int64(10)});
  narrow.Apply({0, CompareOp::kLe, Value::Int64(20)});
  EXPECT_TRUE(wide.ImpliedBy(narrow));   // narrow ⊆ wide ⇒ wide implied.
  EXPECT_FALSE(narrow.ImpliedBy(wide));
}

TEST(RangeMapTest, BuildsFromPredicates) {
  std::vector<Predicate> preds;
  preds.push_back(Predicate(MakeCompare(
      CompareOp::kGe,
      std::make_unique<ColumnRefExpr>("a", 0, TypeId::kInt64),
      MakeLiteral(Value::Int64(5)))));
  preds.push_back(Predicate(MakeBetween(
      std::make_unique<ColumnRefExpr>("b", 1, TypeId::kInt64),
      MakeLiteral(Value::Int64(0)), MakeLiteral(Value::Int64(9)))));
  RangeMap map = BuildRangeMap(preds, false);
  EXPECT_EQ(map.ranges.size(), 2u);
  EXPECT_EQ(map.ranges[0].lo, 5.0);
  EXPECT_EQ(map.ranges[1].hi, 9.0);
  EXPECT_FALSE(map.unsatisfiable);
}

TEST(RangeMapTest, LiteralFalseIsUnsat) {
  std::vector<Predicate> preds;
  preds.push_back(Predicate(MakeLiteral(Value::Bool(false))));
  EXPECT_TRUE(IsUnsatisfiable(preds));
}

TEST(RangeMapTest, EstimationOnlySkippedByDefault) {
  std::vector<Predicate> preds;
  Predicate twin(MakeCompare(
                     CompareOp::kLt,
                     std::make_unique<ColumnRefExpr>("a", 0, TypeId::kInt64),
                     MakeLiteral(Value::Int64(0))),
                 true, 0.9, "sc:x");
  preds.push_back(std::move(twin));
  preds.push_back(Predicate(MakeCompare(
      CompareOp::kGt,
      std::make_unique<ColumnRefExpr>("a", 0, TypeId::kInt64),
      MakeLiteral(Value::Int64(10)))));
  EXPECT_FALSE(IsUnsatisfiable(preds));  // Twin ignored.
  RangeMap with = BuildRangeMap(preds, true);
  EXPECT_TRUE(with.unsatisfiable);  // Twin included: contradiction.
}

// ------------------------------------------------------- Engine-level rig

class OptimizerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    WorkloadOptions options;
    options.customers = 200;
    options.orders = 2000;
    options.purchases = 4000;
    options.parts = 500;
    options.projects = 1000;
    options.sales_per_month = 100;
    ASSERT_TRUE(GenerateWorkload(&db_, options).ok());
  }

  QueryResult Run(const std::string& sql) {
    auto result = db_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? *std::move(result) : QueryResult{};
  }

  bool RuleApplied(const QueryResult& r, const std::string& needle) {
    for (const std::string& rule : r.applied_rules) {
      if (rule.find(needle) != std::string::npos) return true;
    }
    return false;
  }

  SoftDb db_;
};

// --------------------------------------------------- Predicate introduction

TEST_F(OptimizerFixture, AbsoluteOffsetScIntroducesRealPredicate) {
  // Make the SC absolute by widening it over the data's worst case.
  auto sc = std::make_unique<ColumnOffsetSc>(
      "abs_ship", "purchase", WorkloadColumns::kPurchaseOrderDate,
      WorkloadColumns::kPurchaseShipDate, 0, 60);
  ASSERT_TRUE(db_.scs().Add(std::move(sc), db_.catalog()).ok());
  ASSERT_TRUE(db_.scs().Find("abs_ship")->IsAbsolute());

  const std::string query =
      "SELECT * FROM purchase WHERE ship_date = DATE '1999-12-15'";
  auto with = Run(query);
  EXPECT_TRUE(RuleApplied(with, "predicate-introduction"));
  // The introduced predicate unlocked the order_date index: far fewer
  // pages than a full scan.
  db_.options().enable_predicate_introduction = false;
  db_.plan_cache().Clear();
  auto without = Run(query);
  EXPECT_EQ(with.rows.NumRows(), without.rows.NumRows());  // Same answers.
  EXPECT_LT(with.exec_stats.pages_read, without.exec_stats.pages_read / 2);
}

TEST_F(OptimizerFixture, StatisticalScDoesNotRewrite) {
  ASSERT_TRUE(RegisterShipWindowSc(&db_).ok());  // conf < 1.
  auto r = Run("SELECT * FROM purchase WHERE ship_date = DATE '1999-12-15'");
  EXPECT_FALSE(RuleApplied(r, "predicate-introduction"));
  EXPECT_TRUE(RuleApplied(r, "twinning"));
}

TEST_F(OptimizerFixture, LinearCorrelationIntroduction) {
  ASSERT_TRUE(RegisterPartCorrelationSc(&db_, 3.5).ok());
  ASSERT_TRUE(db_.scs().Find("sc_part_weight")->IsAbsolute());
  // Query on price (no index); weight has the index.
  const std::string query =
      "SELECT * FROM part WHERE p_retailprice BETWEEN 500 AND 510";
  auto with = Run(query);
  EXPECT_TRUE(RuleApplied(with, "predicate-introduction"));
  db_.options().enable_predicate_introduction = false;
  db_.plan_cache().Clear();
  auto without = Run(query);
  EXPECT_EQ(with.rows.NumRows(), without.rows.NumRows());
}

// ----------------------------------------------------------- Twinning (E4)

TEST_F(OptimizerFixture, TwinningImprovesCorrelatedRangeEstimates) {
  ASSERT_TRUE(RegisterProjectWindowSc(&db_).ok());
  // The §5 query: projects active on a given day.
  const std::string query =
      "SELECT * FROM project WHERE start_date <= DATE '1999-10-01' "
      "AND end_date >= DATE '1999-10-01'";
  auto with = Run(query);
  const double actual = static_cast<double>(with.rows.NumRows());
  const double est_with = with.estimated_rows;

  db_.options().use_twins_in_estimation = false;
  db_.plan_cache().Clear();
  auto baseline = Run(query);
  const double est_without = baseline.estimated_rows;

  // Baseline independence overestimates wildly; twinning lands close.
  const double err_with = std::abs(std::log(est_with / actual));
  const double err_without = std::abs(std::log(est_without / actual));
  EXPECT_LT(err_with, err_without);
  EXPECT_GT(est_without / actual, 3.0);  // Independence is way off.
  EXPECT_LT(est_with / actual, 3.0);     // Twinned is in the right ballpark.
}

TEST_F(OptimizerFixture, TwinningNeverWorseThanBaseline) {
  ASSERT_TRUE(RegisterShipWindowSc(&db_).ok());
  // Equality query where the twin image is less selective than the
  // original predicate: the estimator must keep the baseline.
  const std::string query =
      "SELECT * FROM purchase WHERE ship_date = DATE '1999-12-15'";
  auto with = Run(query);
  db_.options().use_twins_in_estimation = false;
  db_.plan_cache().Clear();
  auto without = Run(query);
  EXPECT_LE(with.estimated_rows, without.estimated_rows * 1.001);
}

// --------------------------------------------------- Join elimination (E3)

TEST_F(OptimizerFixture, FkJoinEliminated) {
  const std::string query =
      "SELECT o_orderkey, o_totalprice FROM orders "
      "JOIN customer ON o_custkey = c_custkey WHERE o_totalprice > 15000";
  auto r = Run(query);
  EXPECT_TRUE(RuleApplied(r, "join-elimination"));

  db_.options().enable_join_elimination = false;
  db_.plan_cache().Clear();
  auto baseline = Run(query);
  EXPECT_EQ(r.rows.NumRows(), baseline.rows.NumRows());
  EXPECT_LT(r.exec_stats.pages_read, baseline.exec_stats.pages_read);
  EXPECT_EQ(r.exec_stats.rows_joined, 0u);
  EXPECT_GT(baseline.exec_stats.rows_joined, 0u);
}

TEST_F(OptimizerFixture, JoinKeptWhenParentColumnsUsed) {
  auto r = Run(
      "SELECT o_orderkey, c_acctbal FROM orders "
      "JOIN customer ON o_custkey = c_custkey WHERE o_totalprice > 15000");
  EXPECT_FALSE(RuleApplied(r, "join-elimination"));
}

TEST_F(OptimizerFixture, JoinKeptWhenParentFiltered) {
  auto r = Run(
      "SELECT o_orderkey FROM orders JOIN customer ON o_custkey = c_custkey "
      "WHERE c_acctbal > 5000");
  EXPECT_FALSE(RuleApplied(r, "join-elimination"));
}

TEST_F(OptimizerFixture, InclusionScEnablesEliminationWithoutFk) {
  // Fresh engine without declared FKs.
  SoftDb db2;
  WorkloadOptions options;
  options.customers = 100;
  options.orders = 500;
  options.purchases = 100;
  options.parts = 50;
  options.projects = 50;
  options.sales_per_month = 10;
  options.with_constraints = false;
  ASSERT_TRUE(GenerateWorkload(&db2, options).ok());
  // Parent key uniqueness still required — declare just the PK.
  ASSERT_TRUE(db2.ics().Add(
      std::make_unique<UniqueConstraint>(
          "pk_customer", "customer",
          std::vector<ColumnIdx>{WorkloadColumns::kCustomerKey}, true,
          ConstraintMode::kEnforced),
      db2.catalog()).ok());
  // The orders.o_custkey column is nullable=false in the generator even
  // without constraints.
  const std::string query =
      "SELECT o_orderkey FROM orders JOIN customer ON o_custkey = c_custkey";

  auto before = db2.Execute(query);
  ASSERT_TRUE(before.ok());
  bool eliminated_before = false;
  for (const auto& rule : before->applied_rules) {
    eliminated_before |= rule.find("join-elimination") != std::string::npos;
  }
  EXPECT_FALSE(eliminated_before);  // No FK, no inclusion SC yet.

  ASSERT_TRUE(RegisterOrdersInclusionSc(&db2).ok());
  ASSERT_TRUE(db2.scs().Find("sc_orders_customer_inclusion")->IsAbsolute());
  db2.plan_cache().Clear();
  auto after = db2.Execute(query);
  ASSERT_TRUE(after.ok());
  bool eliminated_after = false;
  for (const auto& rule : after->applied_rules) {
    eliminated_after |= rule.find("join-elimination") != std::string::npos;
  }
  EXPECT_TRUE(eliminated_after);
  EXPECT_EQ(after->rows.NumRows(), before->rows.NumRows());
}

// --------------------------------------------------------- FD pruning (E6)

TEST_F(OptimizerFixture, FdPrunesGroupByKey) {
  ASSERT_TRUE(RegisterCustomerRegionFd(&db_).ok());
  const std::string query =
      "SELECT c_nationkey, c_regionkey, COUNT(*) AS n FROM customer "
      "GROUP BY c_nationkey, c_regionkey ORDER BY c_nationkey";
  auto with = Run(query);
  EXPECT_TRUE(RuleApplied(with, "fd-groupby-prune"));

  db_.options().enable_fd_pruning = false;
  db_.plan_cache().Clear();
  auto without = Run(query);
  ASSERT_EQ(with.rows.NumRows(), without.rows.NumRows());
  for (std::size_t i = 0; i < with.rows.NumRows(); ++i) {
    EXPECT_TRUE(with.rows.rows[i][0].GroupEquals(without.rows.rows[i][0]));
    EXPECT_TRUE(with.rows.rows[i][1].GroupEquals(without.rows.rows[i][1]));
    EXPECT_TRUE(with.rows.rows[i][2].GroupEquals(without.rows.rows[i][2]));
  }
}

TEST_F(OptimizerFixture, FdPrunesOrderByKeys) {
  ASSERT_TRUE(RegisterCustomerRegionFd(&db_).ok());
  const std::string query =
      "SELECT c_custkey, c_nationkey, c_regionkey FROM customer "
      "ORDER BY c_nationkey, c_regionkey, c_custkey";
  auto with = Run(query);
  EXPECT_TRUE(RuleApplied(with, "fd-orderby-prune"));

  db_.options().enable_fd_pruning = false;
  db_.plan_cache().Clear();
  auto without = Run(query);
  ASSERT_EQ(with.rows.NumRows(), without.rows.NumRows());
  // Order must be identical: the pruned key was redundant.
  for (std::size_t i = 0; i < with.rows.NumRows(); ++i) {
    EXPECT_TRUE(with.rows.rows[i][0].GroupEquals(without.rows.rows[i][0]));
  }
  EXPECT_LT(with.exec_stats.rows_sorted, without.exec_stats.rows_sorted + 1);
}

TEST_F(OptimizerFixture, StatisticalFdDoesNotPrune) {
  // Dirty one customer row so the FD is approximate.
  ASSERT_TRUE(db_.Execute("UPDATE customer SET c_regionkey = 99 "
                          "WHERE c_custkey = 0")
                  .ok());
  ASSERT_TRUE(RegisterCustomerRegionFd(&db_).ok());
  ASSERT_LT(db_.scs().Find("sc_customer_region_fd")->confidence(), 1.0);
  auto r = Run(
      "SELECT c_nationkey, c_regionkey, COUNT(*) AS n FROM customer "
      "GROUP BY c_nationkey, c_regionkey");
  EXPECT_FALSE(RuleApplied(r, "fd-groupby-prune"));
}

// --------------------------------------------------------- Join holes (E2)

TEST_F(OptimizerFixture, HoleCoversQueryPrunesJoin) {
  ASSERT_TRUE(RegisterOrdersHoleSc(&db_).ok());
  ASSERT_TRUE(db_.scs().Find("sc_orders_hole")->IsAbsolute());
  const std::string query =
      "SELECT o_orderkey FROM orders JOIN customer ON o_custkey = c_custkey "
      "WHERE o_totalprice BETWEEN 8500 AND 9500 "
      "AND c_acctbal BETWEEN 500 AND 1500";
  auto r = Run(query);
  EXPECT_TRUE(RuleApplied(r, "join-hole-prune"));
  EXPECT_EQ(r.rows.NumRows(), 0u);
  EXPECT_LE(r.exec_stats.pages_read, 6u);  // Nothing scanned on one side.
}

TEST_F(OptimizerFixture, HoleTrimsRange) {
  ASSERT_TRUE(RegisterOrdersHoleSc(&db_).ok());
  // A-range extends past the hole on one side: the in-hole part [8000,
  // 10000] is trimmed off for B inside [0,2000].
  const std::string query =
      "SELECT o_orderkey FROM orders JOIN customer ON o_custkey = c_custkey "
      "WHERE o_totalprice BETWEEN 9000 AND 12000 "
      "AND c_acctbal BETWEEN 500 AND 1500";
  auto with = Run(query);
  EXPECT_TRUE(RuleApplied(with, "join-hole-trim"));
  db_.options().enable_hole_trimming = false;
  db_.plan_cache().Clear();
  auto without = Run(query);
  EXPECT_EQ(with.rows.NumRows(), without.rows.NumRows());  // Same answers.
  EXPECT_LE(with.exec_stats.pages_read, without.exec_stats.pages_read);
}

// ------------------------------------------------- Union-all knockoff (E10)

TEST_F(OptimizerFixture, BranchesKnockedOffByInformationalChecks) {
  std::string query = "SELECT sale_id, amount FROM sales_m1 WHERE "
                      "sale_date BETWEEN DATE '1999-01-15' AND DATE "
                      "'1999-03-15'";
  for (int m = 2; m <= 12; ++m) {
    query += " UNION ALL SELECT sale_id, amount FROM sales_m" +
             std::to_string(m) +
             " WHERE sale_date BETWEEN DATE '1999-01-15' AND DATE "
             "'1999-03-15'";
  }
  auto with = Run(query);
  EXPECT_TRUE(RuleApplied(with, "unionall-knockoff"));

  db_.options().enable_unionall_pruning = false;
  db_.plan_cache().Clear();
  auto without = Run(query);
  EXPECT_EQ(with.rows.NumRows(), without.rows.NumRows());
  // Only 3 of 12 months can contain qualifying rows.
  EXPECT_LT(with.exec_stats.pages_read,
            without.exec_stats.pages_read / 2);
}

// ------------------------------------------------------------ Domain rules

TEST_F(OptimizerFixture, DomainTautologyDropped) {
  ASSERT_TRUE(RegisterOrderPriceDomainSc(&db_).ok());
  auto r = Run("SELECT COUNT(*) AS n FROM orders WHERE o_totalprice <= "
               "1000000");
  EXPECT_TRUE(RuleApplied(r, "domain-drop"));
  EXPECT_EQ(r.rows.rows[0][0].AsInt64(), 2000);
}

TEST_F(OptimizerFixture, DomainContradictionEmptiesScan) {
  ASSERT_TRUE(RegisterOrderPriceDomainSc(&db_).ok());
  auto r = Run("SELECT * FROM orders WHERE o_totalprice > 1000000");
  EXPECT_TRUE(RuleApplied(r, "domain-contradiction"));
  EXPECT_EQ(r.rows.NumRows(), 0u);
  EXPECT_LE(r.exec_stats.pages_read, 1u);  // EmptyOp: no scan at all.
}

// ---------------------------------------------------------- Plan cache

TEST_F(OptimizerFixture, PlanCacheHitsAndInvalidation) {
  auto sc = std::make_unique<ColumnOffsetSc>(
      "abs_ship", "purchase", WorkloadColumns::kPurchaseOrderDate,
      WorkloadColumns::kPurchaseShipDate, 0, 60);
  sc->set_policy(ScMaintenancePolicy::kDropOnViolation);
  ASSERT_TRUE(db_.scs().Add(std::move(sc), db_.catalog()).ok());

  const std::string query =
      "SELECT * FROM purchase WHERE ship_date = DATE '1999-12-15'";
  auto first = Run(query);
  EXPECT_FALSE(first.from_plan_cache);
  EXPECT_EQ(first.used_scs.size(), 1u);

  auto second = Run(query);
  EXPECT_TRUE(second.from_plan_cache);
  EXPECT_FALSE(second.used_backup_plan);

  // Violate the ASC: a shipment 100 days late.
  const std::int64_t d = *Date::Parse("1999-06-01");
  ASSERT_TRUE(db_.InsertRow("purchase",
                            {Value::Int64(999999), Value::Int64(1),
                             Value::Int64(1), Value::Date(d),
                             Value::Date(d + 100), Value::Date(d + 101),
                             Value::Int64(1), Value::Double(10.0),
                             Value::Double(0.0)})
                  .ok());
  EXPECT_EQ(db_.scs().Find("abs_ship")->state(), ScState::kViolated);

  auto third = Run(query);
  EXPECT_TRUE(third.from_plan_cache);
  EXPECT_TRUE(third.used_backup_plan);  // §4.1 backup-plan flip.
  // Backup plan still returns correct (now larger) answers.
  EXPECT_EQ(third.rows.NumRows(), first.rows.NumRows());
  EXPECT_GE(db_.plan_cache().invalidations(), 1u);
}

TEST(PlanCacheTest, RearmAfterRepair) {
  PlanCache cache;
  Schema s;
  auto plan = std::make_unique<ScanNode>("t", s);
  auto backup = std::make_unique<ScanNode>("t", s);
  cache.Put("q", std::move(plan), std::move(backup), {"sc_a"});
  EXPECT_EQ(cache.OnScViolated("sc_a"), 1u);
  EXPECT_TRUE(cache.Get("q")->using_backup);
  EXPECT_EQ(cache.Rearm({{"sc_a", 1}}), 1u);
  EXPECT_FALSE(cache.Get("q")->using_backup);
  // Unrelated SC violations touch nothing.
  EXPECT_EQ(cache.OnScViolated("sc_b"), 0u);
}

// ----------------------------------------------------- Estimator behaviour

TEST_F(OptimizerFixture, HistogramEstimatesCloseOnSingleColumn) {
  auto r = Run("SELECT * FROM orders WHERE o_totalprice <= 5000");
  const double actual = static_cast<double>(r.rows.NumRows());
  EXPECT_GT(actual, 0);
  EXPECT_LT(std::abs(r.estimated_rows - actual) / actual, 0.25);
}

TEST_F(OptimizerFixture, JoinEstimateUsesNdv) {
  db_.options().enable_join_elimination = false;
  auto r = Run(
      "SELECT o_orderkey, c_acctbal FROM orders JOIN customer "
      "ON o_custkey = c_custkey");
  // |orders ⋈ customer| = |orders| = 2000 (every order has one customer).
  EXPECT_NEAR(r.estimated_rows, 2000.0, 600.0);
  EXPECT_EQ(r.rows.NumRows(), 2000u);
}

// --------------------------------------------------------------- EXPLAIN

TEST_F(OptimizerFixture, ExplainShowsRulesAndPlan) {
  ASSERT_TRUE(RegisterShipWindowSc(&db_).ok());
  auto text = db_.Explain(
      "SELECT * FROM purchase WHERE ship_date = DATE '1999-12-15'");
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("Scan purchase"), std::string::npos);
  EXPECT_NE(text->find("twinning"), std::string::npos);
  EXPECT_NE(text->find("estimated rows"), std::string::npos);
}

}  // namespace
}  // namespace softdb
