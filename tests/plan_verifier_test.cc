// PlanVerifier tests: deliberately broken plan trees must be rejected with
// a diagnostic naming the violated invariant, the phase and the node path;
// sound plans (hand-built and engine-produced, including exception-AST
// rewrites) must verify clean.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/plan_verifier.h"
#include "constraints/column_offset_sc.h"
#include "engine/softdb.h"
#include "exec/operators.h"
#include "exec/parallel_operators.h"
#include "plan/expr.h"
#include "plan/logical_plan.h"

namespace softdb {
namespace {

Schema IntStringSchema() {
  Schema s;
  s.AddColumn({"a", TypeId::kInt64, true, "t"});
  s.AddColumn({"b", TypeId::kString, true, "t"});
  return s;
}

ExprPtr IntCol(ColumnIdx i, const std::string& name = "a") {
  return std::make_unique<ColumnRefExpr>(name, i, TypeId::kInt64);
}

ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r) {
  return std::make_unique<ComparisonExpr>(op, std::move(l), std::move(r));
}

bool HasViolation(const std::vector<PlanViolation>& vs, Invariant inv) {
  for (const PlanViolation& v : vs) {
    if (v.invariant == inv) return true;
  }
  return false;
}

const PlanViolation* FindViolation(const std::vector<PlanViolation>& vs,
                                   Invariant inv) {
  for (const PlanViolation& v : vs) {
    if (v.invariant == inv) return &v;
  }
  return nullptr;
}

TEST(PlanVerifierLogicalTest, SoundFilterPlanVerifiesClean) {
  auto scan = std::make_unique<ScanNode>("t", IntStringSchema());
  std::vector<Predicate> preds;
  preds.emplace_back(
      Cmp(CompareOp::kGt, IntCol(0),
          std::make_unique<LiteralExpr>(Value::Int64(5))));
  auto filter =
      std::make_unique<FilterNode>(std::move(scan), std::move(preds));

  PlanVerifier verifier;
  EXPECT_TRUE(verifier.CheckLogical(*filter, "rewrite").empty());
  EXPECT_TRUE(verifier.VerifyLogical(*filter, "rewrite").ok());
}

TEST(PlanVerifierLogicalTest, TypeMismatchedComparisonRejected) {
  // a (BIGINT) > 'oops' (VARCHAR): incomparable operand types.
  auto scan = std::make_unique<ScanNode>("t", IntStringSchema());
  std::vector<Predicate> preds;
  preds.emplace_back(
      Cmp(CompareOp::kGt, IntCol(0),
          std::make_unique<LiteralExpr>(Value::String("oops"))));
  auto filter =
      std::make_unique<FilterNode>(std::move(scan), std::move(preds));

  PlanVerifier verifier;
  auto violations = verifier.CheckLogical(*filter, "rewrite");
  const PlanViolation* v = FindViolation(violations, Invariant::kExprTypes);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->phase, "rewrite");
  EXPECT_NE(v->message.find("incomparable"), std::string::npos);
  EXPECT_NE(v->ToString().find("[rewrite] expr-types"), std::string::npos);
}

TEST(PlanVerifierLogicalTest, MistypedColumnRefRejected) {
  // Column 0 is BIGINT in the input schema but the ref claims VARCHAR.
  auto scan = std::make_unique<ScanNode>("t", IntStringSchema());
  std::vector<Predicate> preds;
  preds.emplace_back(Cmp(
      CompareOp::kEq,
      std::make_unique<ColumnRefExpr>("a", 0, TypeId::kString),
      std::make_unique<LiteralExpr>(Value::String("x"))));
  auto filter =
      std::make_unique<FilterNode>(std::move(scan), std::move(preds));

  PlanVerifier verifier;
  auto violations = verifier.CheckLogical(*filter, "bind");
  EXPECT_TRUE(HasViolation(violations, Invariant::kExprTypes));
}

TEST(PlanVerifierLogicalTest, TwinAllowedOnScanRejectedOnFilter) {
  // The same estimation-only twin is legal inside a scan's costing
  // annotations and illegal anywhere executable (§5.1 confinement).
  auto make_twin = [] {
    Predicate p(Cmp(CompareOp::kLt, IntCol(0),
                    std::make_unique<LiteralExpr>(Value::Int64(42))));
    p.estimation_only = true;
    p.confidence = 0.9;
    p.origin = "sc:corr";
    return p;
  };

  PlanVerifier verifier;
  {
    auto scan = std::make_unique<ScanNode>("t", IntStringSchema());
    scan->predicates().push_back(make_twin());
    EXPECT_TRUE(verifier.CheckLogical(*scan, "rewrite").empty());
  }
  {
    auto scan = std::make_unique<ScanNode>("t", IntStringSchema());
    std::vector<Predicate> preds;
    preds.push_back(make_twin());
    auto filter =
        std::make_unique<FilterNode>(std::move(scan), std::move(preds));
    auto violations = verifier.CheckLogical(*filter, "rewrite");
    const PlanViolation* v =
        FindViolation(violations, Invariant::kTwinConfinement);
    ASSERT_NE(v, nullptr);
    EXPECT_NE(v->ToString().find("twin-confinement"), std::string::npos);
    EXPECT_NE(v->node_path.find("Filter"), std::string::npos);
  }
}

TEST(PlanVerifierLogicalTest, UserOriginTwinRejectedEvenOnScan) {
  auto scan = std::make_unique<ScanNode>("t", IntStringSchema());
  Predicate p(Cmp(CompareOp::kLt, IntCol(0),
                  std::make_unique<LiteralExpr>(Value::Int64(42))));
  p.estimation_only = true;
  p.confidence = 0.9;  // origin stays "user": twins must be SC-derived.
  scan->predicates().push_back(std::move(p));

  PlanVerifier verifier;
  EXPECT_TRUE(HasViolation(verifier.CheckLogical(*scan, "rewrite"),
                           Invariant::kTwinConfinement));
}

TEST(PlanVerifierLogicalTest, OrphanExceptionAstOriginRejected) {
  // A scan predicate claiming provenance "ast:missing" while no such
  // exception AST is registered is a dangling rewrite.
  auto scan = std::make_unique<ScanNode>("t", IntStringSchema());
  Predicate p(Cmp(CompareOp::kGe, IntCol(0),
                  std::make_unique<LiteralExpr>(Value::Int64(1))));
  p.origin = "ast:missing";
  scan->predicates().push_back(std::move(p));

  const std::map<std::string, std::string> no_asts;
  PlanVerifierContext ctx;
  ctx.exception_asts = &no_asts;
  PlanVerifier verifier(ctx);
  auto violations = verifier.CheckLogical(*scan, "rewrite");
  const PlanViolation* v =
      FindViolation(violations, Invariant::kExceptionAstRegistry);
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->message.find("ast:missing"), std::string::npos);
  EXPECT_NE(v->ToString().find("exception-ast-registry"), std::string::npos);
}

TEST(PlanVerifierLogicalTest, NodePathNamesTheOffendingNode) {
  // Violation two levels deep: Filter -> Scan(with a bad nested twin).
  auto scan = std::make_unique<ScanNode>("t", IntStringSchema());
  std::vector<Predicate> inner;
  inner.emplace_back(
      Cmp(CompareOp::kGt, IntCol(0),
          std::make_unique<LiteralExpr>(Value::String("bad"))));
  auto filter =
      std::make_unique<FilterNode>(std::move(scan), std::move(inner));
  std::vector<Predicate> outer;
  outer.emplace_back(
      Cmp(CompareOp::kLe, IntCol(0),
          std::make_unique<LiteralExpr>(Value::Int64(9))));
  auto top =
      std::make_unique<FilterNode>(std::move(filter), std::move(outer));

  PlanVerifier verifier;
  auto violations = verifier.CheckLogical(*top, "join-elimination");
  const PlanViolation* v = FindViolation(violations, Invariant::kExprTypes);
  ASSERT_NE(v, nullptr);
  // The offender is the *inner* filter, reached through the outer one.
  EXPECT_NE(v->node_path.find("Filter/0:Filter"), std::string::npos);
  EXPECT_EQ(v->phase, "join-elimination");
}

TEST(PlanVerifierBatchTest, SelectionVectorViolationsFlagged) {
  Schema schema = IntStringSchema();
  ColumnBatch batch;
  batch.Reset(schema);
  PlanVerifier verifier;

  // Identity selection: fine.
  batch.SelectAll(4);
  EXPECT_TRUE(verifier.CheckBatch(batch, "batch-exec").empty());

  // Unsorted (and therefore potentially duplicate-admitting) selection.
  batch.mutable_sel()[0] = 2;
  batch.mutable_sel()[1] = 1;
  batch.set_sel_size(2);
  auto violations = verifier.CheckBatch(batch, "batch-exec");
  const PlanViolation* v =
      FindViolation(violations, Invariant::kSelectionVector);
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->message.find("ascending"), std::string::npos);
  EXPECT_NE(v->ToString().find("selection-vector"), std::string::npos);

  // Duplicate entries are "not strictly ascending" too.
  batch.mutable_sel()[0] = 1;
  batch.mutable_sel()[1] = 1;
  EXPECT_TRUE(HasViolation(verifier.CheckBatch(batch, "batch-exec"),
                           Invariant::kSelectionVector));

  // Out-of-bounds entry.
  batch.SelectAll(4);
  batch.mutable_sel()[3] = 99;
  EXPECT_TRUE(HasViolation(verifier.CheckBatch(batch, "batch-exec"),
                           Invariant::kSelectionVector));

  // Selection longer than the batch.
  batch.SelectAll(4);
  batch.set_sel_size(6);
  EXPECT_TRUE(HasViolation(verifier.CheckBatch(batch, "batch-exec"),
                           Invariant::kSelectionVector));
}

class PlanVerifierPhysicalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        db_.Execute("CREATE TABLE t (a BIGINT NOT NULL, b VARCHAR)").ok());
    auto table = db_.catalog().GetTable("t");
    ASSERT_TRUE(table.ok());
    table_ = *table;
  }

  Predicate SimpleIntPred(std::int64_t bound) {
    return Predicate(Cmp(CompareOp::kGt, IntCol(0),
                         std::make_unique<LiteralExpr>(Value::Int64(bound))));
  }

  SoftDb db_;
  const Table* table_ = nullptr;
};

TEST_F(PlanVerifierPhysicalTest, SoundScanVerifiesClean) {
  std::vector<Predicate> preds;
  preds.push_back(SimpleIntPred(3));
  SeqScanOp scan(table_, table_->schema(), std::move(preds));
  PlanVerifier verifier;
  EXPECT_TRUE(verifier.CheckPhysical(scan, "physical-planning").empty());
  EXPECT_TRUE(verifier.VerifyPhysical(scan, "physical-planning").ok());
}

TEST_F(PlanVerifierPhysicalTest, ExecutableTwinPredicateRejected) {
  // Estimation-only predicates must be stripped before lowering; one
  // surviving in an executor op's predicate list is a confinement bug.
  Predicate twin = SimpleIntPred(3);
  twin.estimation_only = true;
  twin.confidence = 0.8;
  twin.origin = "sc:corr";
  std::vector<Predicate> preds;
  preds.push_back(std::move(twin));
  SeqScanOp scan(table_, table_->schema(), std::move(preds));

  PlanVerifier verifier;
  auto violations = verifier.CheckPhysical(scan, "physical-planning");
  const PlanViolation* v =
      FindViolation(violations, Invariant::kTwinConfinement);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->phase, "physical-planning");
  EXPECT_NE(v->message.find("executable predicate list"), std::string::npos);
  EXPECT_NE(v->node_path.find("SeqScan"), std::string::npos);
}

TEST_F(PlanVerifierPhysicalTest, OutOfBoundsRuntimeParamRejected) {
  std::vector<Predicate> preds;
  preds.push_back(SimpleIntPred(3));
  SeqScanOp scan(table_, table_->schema(), std::move(preds));
  // Predicate index 5 does not exist: dangling §4.2 runtime parameter.
  scan.AddRuntimeParameter(5, nullptr, SimplePredicate{});

  PlanVerifier verifier;
  auto violations = verifier.CheckPhysical(scan, "physical-planning");
  const PlanViolation* v =
      FindViolation(violations, Invariant::kRuntimeParams);
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->message.find("out of bounds"), std::string::npos);
  EXPECT_NE(v->ToString().find("runtime-params"), std::string::npos);
}

TEST_F(PlanVerifierPhysicalTest, RuntimeParamColumnMismatchRejected) {
  std::vector<Predicate> preds;
  preds.push_back(SimpleIntPred(3));  // Predicate is on column 0.
  SeqScanOp scan(table_, table_->schema(), std::move(preds));
  SimplePredicate simple;
  simple.column = 1;  // Param claims column 1: disagreement.
  simple.op = CompareOp::kGt;
  simple.constant = Value::Int64(3);
  scan.AddRuntimeParameter(0, nullptr, simple);

  PlanVerifier verifier;
  EXPECT_TRUE(
      HasViolation(verifier.CheckPhysical(scan, "physical-planning"),
                   Invariant::kRuntimeParams));
}

TEST_F(PlanVerifierPhysicalTest, ParallelPipelineUnderLimitRejected) {
  // LIMIT stops pulling early while a parallel operator drains its whole
  // input at Open, so LIMIT subtrees must stay serial.
  PipelineSpec spec;
  spec.table = table_;
  spec.scan_schema = table_->schema();
  LimitOp limit(std::make_unique<ParallelPipelineOp>(std::move(spec), 64), 5);

  PlanVerifier verifier;
  auto violations = verifier.CheckPhysical(limit, "physical-planning");
  const PlanViolation* v =
      FindViolation(violations, Invariant::kParallelSafety);
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->ToString().find("parallel-safety"), std::string::npos);
  EXPECT_NE(v->node_path.find("Limit"), std::string::npos);
}

TEST_F(PlanVerifierPhysicalTest, BatchSubtreeWithoutLimitAccepted) {
  PipelineSpec spec;
  spec.table = table_;
  spec.scan_schema = table_->schema();
  ParallelPipelineOp pipeline(std::move(spec), 64);
  FilterOp filter(std::make_unique<SeqScanOp>(table_, table_->schema(),
                                              std::vector<Predicate>{}),
                  {});
  LimitOp limit(std::make_unique<SortOp>(
                    std::make_unique<SeqScanOp>(table_, table_->schema(),
                                                std::vector<Predicate>{}),
                    std::vector<SortKey>{}, /*presorted=*/false),
                5);
  PlanVerifier verifier;
  EXPECT_TRUE(verifier.CheckPhysical(pipeline, "physical-planning").empty());
  EXPECT_TRUE(verifier.CheckPhysical(filter, "physical-planning").empty());
  EXPECT_TRUE(verifier.CheckPhysical(limit, "physical-planning").empty());
}

// End-to-end: with verification on (the default), every query in a
// representative workload — including an exception-AST UNION ALL rewrite —
// passes all four verification points (bind, rewrite, join-elimination,
// physical-planning) and still returns correct answers.
TEST(PlanVerifierEngineTest, FullPipelineVerifiesRealPlans) {
  SoftDb db;
  db.options().verify_plans = true;
  ASSERT_TRUE(
      db.Execute("CREATE TABLE t (x BIGINT NOT NULL, y BIGINT NOT NULL)")
          .ok());
  for (int i = 0; i < 100; ++i) {
    const std::int64_t y = (i % 20 == 0) ? i + 50 : i + 3;
    ASSERT_TRUE(db.InsertRow("t", {Value::Int64(i), Value::Int64(y)}).ok());
  }
  ASSERT_TRUE(db.Execute("CREATE INDEX ix ON t (x)").ok());
  ASSERT_TRUE(db.Analyze("t").ok());
  auto sc = std::make_unique<ColumnOffsetSc>("win", "t", 0, 1, 0, 5);
  ASSERT_TRUE(db.scs().Add(std::move(sc), db.catalog()).ok());
  ASSERT_TRUE(db.CreateExceptionAst("win").ok());

  // Exception-AST rewrite: UNION ALL over the narrowed scan and the AST
  // branch, all of which must verify.
  auto r = db.Execute("SELECT * FROM t WHERE y BETWEEN 50 AND 60");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->rows.NumRows(), 0u);

  // Joins, aggregates, sorts and limits all pass the verifier too.
  auto joined = db.Execute(
      "SELECT a.x, b.y FROM t a JOIN t b ON a.x = b.x WHERE a.y > 10 "
      "ORDER BY a.x LIMIT 7");
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(joined->rows.NumRows(), 7u);

  auto agg = db.Execute("SELECT COUNT(*) FROM t WHERE x < 50");
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  ASSERT_EQ(agg->rows.NumRows(), 1u);
  EXPECT_EQ(agg->rows.rows[0][0].AsInt64(), 50);
}

}  // namespace
}  // namespace softdb
