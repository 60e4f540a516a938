// Rewrite-certificate tests (DESIGN.md §13). Every SC-driven rewrite the
// optimizer performs must emit a certificate the independent checker
// validates (translation validation); seeded mutations of any certificate
// field — narrowed premise, stale epoch, dropped premise, forged skip set —
// must be rejected; and accepted interval entailments must be witnessed by
// brute-force evaluation over an integer grid (one-sided soundness, like
// the implication-engine property test).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/certificate.h"
#include "analysis/implication.h"
#include "common/date.h"
#include "constraints/column_offset_sc.h"
#include "constraints/domain_sc.h"
#include "constraints/zone_map_sc.h"
#include "engine/softdb.h"
#include "optimizer/planner.h"
#include "optimizer/rewriter.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "workload/generator.h"
#include "workload/sc_kit.h"

namespace softdb {
namespace {

// ------------------------------------------------------------- Harvest rig

class CertificateFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    WorkloadOptions options;
    options.customers = 100;
    options.orders = 1000;
    options.purchases = 2000;
    options.parts = 200;
    options.projects = 200;
    options.sales_per_month = 20;
    ASSERT_TRUE(GenerateWorkload(&db_, options).ok());
  }

  /// Parses, binds and rewrites `sql`, returning the certificates the
  /// rewriter emitted. When `physical` is set the rewritten plan is also
  /// lowered, so zone-map-skip certificates land too.
  std::vector<RewriteCertificate> Harvest(const std::string& sql,
                                          bool physical = false) {
    return HarvestFrom(&db_, sql, physical);
  }

  static std::vector<RewriteCertificate> HarvestFrom(SoftDb* db,
                                                     const std::string& sql,
                                                     bool physical) {
    auto stmt = ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << sql;
    if (!stmt.ok()) return {};
    Binder binder(&db->catalog());
    auto bound = binder.BindSelect(*stmt->select);
    EXPECT_TRUE(bound.ok()) << sql << ": " << bound.status().ToString();
    if (!bound.ok()) return {};
    OptimizerContext ctx = db->MakeContext();
    Rewriter rewriter(&ctx);
    auto plan = rewriter.Rewrite(std::move(*bound));
    EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    if (!plan.ok()) return {};
    if (physical) {
      CardinalityEstimator estimator = db->MakeEstimator();
      PhysicalPlanner planner(&ctx, &estimator);
      auto op = planner.Plan(**plan);
      EXPECT_TRUE(op.ok()) << sql << ": " << op.status().ToString();
    }
    std::vector<RewriteCertificate> out;
    out.reserve(ctx.certificates.size());
    for (RewriteCertificate& cert : ctx.certificates) {
      out.push_back(std::move(cert));
    }
    return out;
  }

  CertificateChecker Checker() {
    return CertificateChecker(&db_.catalog(), &db_.ics(), &db_.scs());
  }

  /// Asserts every harvested certificate proves itself.
  void ExpectAllOk(const std::vector<RewriteCertificate>& certs) {
    const CertificateChecker checker = Checker();
    for (const RewriteCertificate& cert : certs) {
      const CertificateCheckResult res = checker.Check(cert);
      EXPECT_TRUE(res.ok()) << CertificateKindName(cert.kind) << " ["
                            << cert.rule << "]: " << res.message;
    }
  }

  const RewriteCertificate* FindKind(
      const std::vector<RewriteCertificate>& certs, CertificateKind kind) {
    for (const RewriteCertificate& cert : certs) {
      if (cert.kind == kind) return &cert;
    }
    return nullptr;
  }

  void AddAbsoluteShipSc() {
    auto sc = std::make_unique<ColumnOffsetSc>(
        "abs_ship", "purchase", WorkloadColumns::kPurchaseOrderDate,
        WorkloadColumns::kPurchaseShipDate, 0, 60);
    ASSERT_TRUE(db_.scs().Add(std::move(sc), db_.catalog()).ok());
    ASSERT_TRUE(db_.scs().Find("abs_ship")->IsAbsolute());
  }

  SoftDb db_;
};

// ------------------------------------------ Every transformation certifies

TEST_F(CertificateFixture, DomainDropEmitsValidCertificate) {
  ASSERT_TRUE(RegisterOrderPriceDomainSc(&db_).ok());
  auto certs = Harvest(
      "SELECT COUNT(*) AS n FROM orders WHERE o_totalprice <= 1000000");
  const RewriteCertificate* cert =
      FindKind(certs, CertificateKind::kImplicationPrune);
  ASSERT_NE(cert, nullptr);
  EXPECT_NE(cert->rule.find("domain-drop"), std::string::npos);
  EXPECT_EQ(cert->table, "orders");
  ASSERT_NE(cert->conclusion_expr, nullptr);
  EXPECT_FALSE(cert->premises.empty());
  EXPECT_FALSE(cert->ScEpochStrings().empty());
  ExpectAllOk(certs);
}

TEST_F(CertificateFixture, DomainContradictionEmitsValidCertificate) {
  ASSERT_TRUE(RegisterOrderPriceDomainSc(&db_).ok());
  auto certs = Harvest("SELECT * FROM orders WHERE o_totalprice > 1000000");
  const RewriteCertificate* cert =
      FindKind(certs, CertificateKind::kImplicationContradiction);
  ASSERT_NE(cert, nullptr);
  EXPECT_FALSE(cert->premises.empty());
  EXPECT_FALSE(cert->premise_exprs.empty());  // The contradicted conjunct.
  ExpectAllOk(certs);
}

TEST_F(CertificateFixture, OffsetIntroductionEmitsValidCertificate) {
  AddAbsoluteShipSc();
  auto certs = Harvest(
      "SELECT * FROM purchase WHERE ship_date = DATE '1999-12-15'");
  const RewriteCertificate* cert =
      FindKind(certs, CertificateKind::kPredicateIntroduction);
  ASSERT_NE(cert, nullptr);
  EXPECT_FALSE(cert->estimation_only);
  ASSERT_NE(cert->conclusion_expr, nullptr);
  ASSERT_FALSE(cert->premises.empty());
  EXPECT_EQ(cert->premises[0].kind, CertificatePremise::Kind::kDiffFact);
  EXPECT_FALSE(cert->premise_exprs.empty());  // The source predicate.
  ExpectAllOk(certs);
}

TEST_F(CertificateFixture, LinearIntroductionEmitsValidCertificate) {
  ASSERT_TRUE(RegisterPartCorrelationSc(&db_, 3.5).ok());
  ASSERT_TRUE(db_.scs().Find("sc_part_weight")->IsAbsolute());
  auto certs = Harvest(
      "SELECT * FROM part WHERE p_retailprice BETWEEN 500 AND 510");
  const RewriteCertificate* cert =
      FindKind(certs, CertificateKind::kPredicateIntroduction);
  ASSERT_NE(cert, nullptr);
  ASSERT_FALSE(cert->premises.empty());
  EXPECT_EQ(cert->premises[0].kind, CertificatePremise::Kind::kBandFact);
  ExpectAllOk(certs);
}

TEST_F(CertificateFixture, TwinSubstitutionEmitsValidCertificate) {
  ASSERT_TRUE(RegisterShipWindowSc(&db_).ok());  // Statistical: conf < 1.
  auto certs = Harvest(
      "SELECT * FROM purchase WHERE ship_date = DATE '1999-12-15'");
  const RewriteCertificate* cert =
      FindKind(certs, CertificateKind::kTwinSubstitution);
  ASSERT_NE(cert, nullptr);
  EXPECT_TRUE(cert->estimation_only);
  ExpectAllOk(certs);
}

TEST_F(CertificateFixture, ImplicationPruneEmitsValidCertificate) {
  AddAbsoluteShipSc();
  // With introduction off, pruning the redundant order_date conjunct must
  // consume the SC's diff fact directly: ship = order + [0, 60], so
  // ship >= d entails order >= d - 60.
  db_.options().enable_predicate_introduction = false;
  db_.options().enable_twinning = false;
  auto certs = Harvest(
      "SELECT * FROM purchase WHERE ship_date >= DATE '1999-12-01' "
      "AND order_date >= DATE '1999-10-02'");
  const RewriteCertificate* found = nullptr;
  for (const RewriteCertificate& cert : certs) {
    if (cert.kind == CertificateKind::kImplicationPrune &&
        cert.rule.find("implication-prune") != std::string::npos) {
      found = &cert;
    }
  }
  ASSERT_NE(found, nullptr);
  EXPECT_FALSE(found->premises.empty());
  EXPECT_FALSE(found->premise_exprs.empty());
  ExpectAllOk(certs);
}

TEST_F(CertificateFixture, TwoSidedCheckPremisesCertify) {
  // `lo <= x AND x <= hi` gives the check source two half-open facts on
  // one column. A premise recording either half, or their intersection,
  // must prove against the intersection of everything the source states.
  ASSERT_TRUE(db_.Execute("CREATE TABLE banded (x BIGINT NOT NULL, "
                          "CHECK (x >= 10 AND x <= 20))")
                  .ok());
  for (int v = 10; v <= 20; ++v) {
    ASSERT_TRUE(
        db_.Execute("INSERT INTO banded VALUES (" + std::to_string(v) + ")")
            .ok());
  }
  auto certs = Harvest("SELECT * FROM banded WHERE x <= 30 AND x >= 5");
  const RewriteCertificate* cert =
      FindKind(certs, CertificateKind::kImplicationPrune);
  ASSERT_NE(cert, nullptr);
  std::set<std::string> sources;
  std::size_t interval_premises = 0;
  for (const CertificatePremise& p : cert->premises) {
    if (p.kind == CertificatePremise::Kind::kIntervalFact) {
      ++interval_premises;
      sources.insert(p.source);
    }
  }
  EXPECT_GE(interval_premises, 2u);
  ASSERT_EQ(sources.size(), 1u);  // Both halves come from the one CHECK.
  EXPECT_EQ(sources.begin()->rfind("check:", 0), 0u);
  ExpectAllOk(certs);

  // A recorded half stronger than the intersection is still rejected.
  RewriteCertificate forged = cert->Clone();
  for (CertificatePremise& p : forged.premises) {
    if (p.kind == CertificatePremise::Kind::kIntervalFact) {
      p.interval = Interval::Range(12, 18);
      break;
    }
  }
  EXPECT_EQ(Checker().Check(forged).verdict, CertificateVerdict::kInvalid);
}

TEST_F(CertificateFixture, FkJoinEliminationEmitsValidCertificate) {
  auto certs = Harvest(
      "SELECT o_orderkey, o_totalprice FROM orders "
      "JOIN customer ON o_custkey = c_custkey WHERE o_totalprice > 15000");
  const RewriteCertificate* cert =
      FindKind(certs, CertificateKind::kJoinElimination);
  ASSERT_NE(cert, nullptr);
  EXPECT_EQ(cert->table, "orders");
  EXPECT_EQ(cert->parent_table, "customer");
  EXPECT_EQ(cert->inclusion_source.rfind("fk:", 0), 0u);
  ExpectAllOk(certs);
}

TEST_F(CertificateFixture, InclusionScJoinEliminationEmitsValidCertificate) {
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
  ASSERT_TRUE(db2.ics()
                  .Add(std::make_unique<UniqueConstraint>(
                           "pk_customer", "customer",
                           std::vector<ColumnIdx>{
                               WorkloadColumns::kCustomerKey},
                           true, ConstraintMode::kEnforced),
                       db2.catalog())
                  .ok());
  ASSERT_TRUE(RegisterOrdersInclusionSc(&db2).ok());
  auto certs = HarvestFrom(
      &db2,
      "SELECT o_orderkey FROM orders JOIN customer ON o_custkey = c_custkey",
      /*physical=*/false);
  const RewriteCertificate* cert = nullptr;
  for (const RewriteCertificate& c : certs) {
    if (c.kind == CertificateKind::kJoinElimination) cert = &c;
  }
  ASSERT_NE(cert, nullptr);
  EXPECT_EQ(cert->inclusion_source.rfind("sc:", 0), 0u);
  const CertificateChecker checker(&db2.catalog(), &db2.ics(), &db2.scs());
  const CertificateCheckResult res = checker.Check(*cert);
  EXPECT_TRUE(res.ok()) << res.message;

  // Epoch bump on the inclusion SC: the same certificate goes stale.
  RewriteCertificate stale = cert->Clone();
  db2.scs().Find("sc_orders_customer_inclusion")->BumpEpoch();
  EXPECT_EQ(checker.Check(stale).verdict, CertificateVerdict::kStale);
}

TEST_F(CertificateFixture, EpochFastPathTracksPremiseScEpochs) {
  // The cache-hit fast path: a fully-validated certificate stays current
  // while every premise SC epoch is unchanged, and drops out of the fast
  // path (forcing a full re-check) the moment one moves.
  AddAbsoluteShipSc();
  auto certs = Harvest(
      "SELECT * FROM purchase WHERE ship_date >= DATE '1999-12-01'");
  const RewriteCertificate* cert =
      FindKind(certs, CertificateKind::kPredicateIntroduction);
  ASSERT_NE(cert, nullptr);
  const CertificateChecker checker = Checker();
  EXPECT_TRUE(checker.EpochsCurrent(*cert));
  db_.scs().Find("abs_ship")->BumpEpoch();
  EXPECT_FALSE(checker.EpochsCurrent(*cert));
}

// -------------------------------------------------------- Zone map skips

constexpr std::size_t kCertZoneRows = 4 * kZoneMapBlockRows;

class ZoneCertificateFixture : public CertificateFixture {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        db_.Execute("CREATE TABLE m (v BIGINT NOT NULL, w DOUBLE)").ok());
    for (std::size_t i = 0; i < kCertZoneRows; ++i) {
      std::vector<Value> row;
      row.push_back(Value::Int64(static_cast<std::int64_t>(i)));
      row.push_back(Value::Double(static_cast<double>(i) * 0.5));
      ASSERT_TRUE(db_.InsertRow("m", row).ok());
    }
    ASSERT_TRUE(db_.Execute("ANALYZE m").ok());
    ASSERT_TRUE(db_.MineZoneMaps("m").ok());
  }
};

TEST_F(ZoneCertificateFixture, ZoneMapSkipEmitsValidCertificate) {
  auto certs = Harvest("SELECT * FROM m WHERE v >= 3500", /*physical=*/true);
  const RewriteCertificate* cert =
      FindKind(certs, CertificateKind::kZoneMapSkip);
  ASSERT_NE(cert, nullptr);
  EXPECT_EQ(cert->table, "m");
  EXPECT_EQ(cert->zm_column, 0u);
  // v >= 3500 excludes blocks 0..2 (each block b covers [1024b, 1024b+1023]).
  EXPECT_EQ(cert->skipped_blocks.size(), 3u);
  EXPECT_EQ(cert->premises.size(), cert->skipped_blocks.size());
  ExpectAllOk(certs);
}

TEST_F(ZoneCertificateFixture, ForgedSkipSetRejected) {
  auto certs = Harvest("SELECT * FROM m WHERE v >= 3500", /*physical=*/true);
  const RewriteCertificate* cert =
      FindKind(certs, CertificateKind::kZoneMapSkip);
  ASSERT_NE(cert, nullptr);
  const CertificateChecker checker = Checker();

  // A skipped block with no backing premise is a forgery.
  RewriteCertificate unbacked = cert->Clone();
  unbacked.skipped_blocks.push_back(3);
  EXPECT_EQ(checker.Check(unbacked).verdict, CertificateVerdict::kInvalid);

  // Block 3 actually matches v >= 3500: skipping it would drop rows, even
  // with a premise whose recorded envelope honestly matches the block.
  RewriteCertificate wrong_block = cert->Clone();
  wrong_block.skipped_blocks[0] = 3;
  wrong_block.premises[0].block_index = 3;
  wrong_block.premises[0].block_min = 3 * kZoneMapBlockRows;
  wrong_block.premises[0].block_max = 4 * kZoneMapBlockRows - 1;
  EXPECT_EQ(checker.Check(wrong_block).verdict, CertificateVerdict::kInvalid);

  // A recorded envelope outside the live one claims the block held values
  // it never did (live envelopes only widen without an epoch bump, so an
  // honest recording is always inside today's).
  RewriteCertificate widened = cert->Clone();
  widened.premises[0].block_min = widened.premises[0].block_min - 1.0;
  EXPECT_EQ(checker.Check(widened).verdict, CertificateVerdict::kInvalid);

  // An epoch bump on the zone map makes the skip set stale, not invalid.
  RewriteCertificate stale = cert->Clone();
  db_.scs().Find("zm_m_v")->BumpEpoch();
  EXPECT_EQ(checker.Check(stale).verdict, CertificateVerdict::kStale);
}

// ---------------------------------------------- Seeded-mutation soundness

TEST_F(CertificateFixture, MutatedCertificatesAreRejected) {
  AddAbsoluteShipSc();
  auto certs = Harvest(
      "SELECT * FROM purchase WHERE ship_date = DATE '1999-12-15'");
  const RewriteCertificate* intro =
      FindKind(certs, CertificateKind::kPredicateIntroduction);
  ASSERT_NE(intro, nullptr);
  const CertificateChecker checker = Checker();
  ASSERT_TRUE(checker.Check(*intro).ok());

  // Wrong bound: the recorded diff interval is narrower than what the SC
  // provides today, i.e. the derivation assumed a fact nobody grants.
  RewriteCertificate narrowed = intro->Clone();
  ASSERT_FALSE(narrowed.premises.empty());
  narrowed.premises[0].interval = Interval::Range(0, 10);
  EXPECT_EQ(checker.Check(narrowed).verdict, CertificateVerdict::kInvalid);

  // Stale epoch: the premise names an epoch the SC no longer has.
  RewriteCertificate stale = intro->Clone();
  ASSERT_FALSE(stale.premises[0].sc_epochs.empty());
  stale.premises[0].sc_epochs[0].second += 1;
  EXPECT_EQ(checker.Check(stale).verdict, CertificateVerdict::kStale);

  // Dropped fact premise: the conclusion no longer follows.
  RewriteCertificate no_facts = intro->Clone();
  no_facts.premises.clear();
  EXPECT_EQ(checker.Check(no_facts).verdict, CertificateVerdict::kInvalid);

  // Dropped predicate premise: the diff fact alone proves nothing about
  // the introduced bound.
  RewriteCertificate no_preds = intro->Clone();
  no_preds.premise_exprs.clear();
  EXPECT_EQ(checker.Check(no_preds).verdict, CertificateVerdict::kInvalid);

  // A premise naming an unknown source is unverifiable.
  RewriteCertificate unknown = intro->Clone();
  unknown.premises[0].source = "sc:no_such_sc";
  unknown.premises[0].sc_epochs = {{"no_such_sc", 0}};
  EXPECT_NE(checker.Check(unknown).verdict, CertificateVerdict::kOk);
}

TEST_F(CertificateFixture, StrengthenedConclusionRejected) {
  ASSERT_TRUE(RegisterOrderPriceDomainSc(&db_).ok());
  auto certs = Harvest(
      "SELECT COUNT(*) AS n FROM orders WHERE o_totalprice <= 1000000");
  const RewriteCertificate* drop =
      FindKind(certs, CertificateKind::kImplicationPrune);
  ASSERT_NE(drop, nullptr);
  const CertificateChecker checker = Checker();
  ASSERT_TRUE(checker.Check(*drop).ok());

  // Claim the domain entailed a much stronger bound than it does.
  auto parsed = ParseExpression("o_totalprice <= 1");
  ASSERT_TRUE(parsed.ok());
  auto table = db_.catalog().GetTable("orders");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*parsed)->Bind((*table)->schema()).ok());
  RewriteCertificate stronger = drop->Clone();
  stronger.conclusion_expr = std::move(*parsed);
  EXPECT_EQ(checker.Check(stronger).verdict, CertificateVerdict::kInvalid);

  // A twin flag on a filtering rewrite must also be rejected: it would
  // excuse the conclusion from ever being proven.
  RewriteCertificate mislabeled = drop->Clone();
  mislabeled.estimation_only = true;
  EXPECT_EQ(checker.Check(mislabeled).verdict, CertificateVerdict::kInvalid);
}

TEST_F(CertificateFixture, TwinFlagDropRejected) {
  ASSERT_TRUE(RegisterShipWindowSc(&db_).ok());
  auto certs = Harvest(
      "SELECT * FROM purchase WHERE ship_date = DATE '1999-12-15'");
  const RewriteCertificate* twin =
      FindKind(certs, CertificateKind::kTwinSubstitution);
  ASSERT_NE(twin, nullptr);
  const CertificateChecker checker = Checker();
  ASSERT_TRUE(checker.Check(*twin).ok());

  // Stripping estimation_only turns the twin into an unproven filter.
  RewriteCertificate filter = twin->Clone();
  filter.estimation_only = false;
  EXPECT_EQ(checker.Check(filter).verdict, CertificateVerdict::kInvalid);
}

TEST_F(CertificateFixture, JoinEliminationMutationsRejected) {
  auto certs = Harvest(
      "SELECT o_orderkey FROM orders "
      "JOIN customer ON o_custkey = c_custkey");
  const RewriteCertificate* join =
      FindKind(certs, CertificateKind::kJoinElimination);
  ASSERT_NE(join, nullptr);
  const CertificateChecker checker = Checker();
  ASSERT_TRUE(checker.Check(*join).ok());

  // Forged inclusion source.
  RewriteCertificate forged = join->Clone();
  forged.inclusion_source = "fk:no_such_fk";
  for (CertificatePremise& p : forged.premises) {
    if (p.kind == CertificatePremise::Kind::kInclusion) {
      p.source = "fk:no_such_fk";
    }
  }
  EXPECT_NE(checker.Check(forged).verdict, CertificateVerdict::kOk);

  // Dropped uniqueness premise: inclusion alone does not license removal.
  RewriteCertificate no_unique = join->Clone();
  std::vector<CertificatePremise> kept;
  for (CertificatePremise& p : no_unique.premises) {
    if (p.kind != CertificatePremise::Kind::kUniqueKey) {
      kept.push_back(std::move(p));
    }
  }
  no_unique.premises = std::move(kept);
  EXPECT_EQ(checker.Check(no_unique).verdict, CertificateVerdict::kInvalid);

  // Key columns that are not actually unique over the parent.
  RewriteCertificate wrong_cols = join->Clone();
  for (CertificatePremise& p : wrong_cols.premises) {
    if (p.kind == CertificatePremise::Kind::kUniqueKey) {
      p.parent_columns = {WorkloadColumns::kCustomerBalance};
    }
  }
  EXPECT_NE(checker.Check(wrong_cols).verdict, CertificateVerdict::kOk);
}

// ------------------------------------- Brute-force entailment witnessing

/// Accepted interval entailments must be witnessed by evaluation: for
/// every (x, y) on an integer grid satisfying all fact premises and all
/// predicate premises, the conclusion must evaluate TRUE. One-sided, like
/// the implication engine's property test: rejections carry no obligation.
TEST(CertificateProperty, AcceptedEntailmentsWitnessedByEvaluation) {
  SoftDb db;
  ASSERT_TRUE(
      db.Execute("CREATE TABLE g (x BIGINT NOT NULL, y BIGINT NOT NULL)")
          .ok());
  for (std::int64_t x = 0; x <= 20; ++x) {
    ASSERT_TRUE(db.InsertRow("g", {Value::Int64(x),
                                   Value::Int64(x + (x % 11))})
                    .ok());
  }
  ASSERT_TRUE(db.scs()
                  .Add(std::make_unique<DomainSc>("dom_x", "g", 0,
                                                  Value::Int64(0),
                                                  Value::Int64(20)),
                       db.catalog())
                  .ok());
  ASSERT_TRUE(db.scs()
                  .Add(std::make_unique<ColumnOffsetSc>("off_xy", "g", 0, 1,
                                                        0, 10),
                       db.catalog())
                  .ok());
  ASSERT_TRUE(db.scs().Find("dom_x")->IsAbsolute());
  ASSERT_TRUE(db.scs().Find("off_xy")->IsAbsolute());

  auto table = db.catalog().GetTable("g");
  ASSERT_TRUE(table.ok());
  const Schema& schema = (*table)->schema();

  ImplicationFactsOptions fact_opts;
  const ImplicationFacts facts = BuildImplicationFacts(
      "g", db.catalog(), &db.ics(), &db.scs(), nullptr, fact_opts);
  ASSERT_FALSE(facts.Empty());
  std::set<std::string> all_sources;
  for (const auto& f : facts.intervals) all_sources.insert(f.source);
  for (const auto& f : facts.diffs) all_sources.insert(f.source);

  auto bind = [&](const std::string& text) {
    auto expr = ParseExpression(text);
    EXPECT_TRUE(expr.ok()) << text;
    if (!expr.ok()) return ExprPtr();
    EXPECT_TRUE((*expr)->Bind(schema).ok()) << text;
    return std::move(*expr);
  };

  // Grid membership in the abstract premises (NULL-free by schema).
  auto satisfies_facts = [](std::int64_t x, std::int64_t y) {
    return x >= 0 && x <= 20 && (y - x) >= 0 && (y - x) <= 10;
  };

  const CertificateChecker checker(&db.catalog(), &db.ics(), &db.scs());
  const char* ops[] = {"<=", "<", ">=", ">", "="};
  int accepted = 0;
  for (const char* premise_op : ops) {
    for (std::int64_t premise_c = -5; premise_c <= 25; premise_c += 5) {
      for (const char* concl_op : ops) {
        for (std::int64_t concl_c = -20; concl_c <= 40; concl_c += 3) {
          for (const char* concl_col : {"x", "y"}) {
            RewriteCertificate cert;
            cert.kind = CertificateKind::kImplicationPrune;
            cert.rule = "property-sweep";
            cert.table = "g";
            AppendFactPremises(facts, all_sources, &db.scs(),
                               &cert.premises);
            const std::string premise_text =
                std::string("x ") + premise_op + " " +
                std::to_string(premise_c);
            const std::string concl_text =
                std::string(concl_col) + " " + concl_op + " " +
                std::to_string(concl_c);
            cert.premise_exprs.push_back(bind(premise_text));
            cert.conclusion_expr = bind(concl_text);
            ASSERT_NE(cert.premise_exprs[0], nullptr);
            ASSERT_NE(cert.conclusion_expr, nullptr);
            if (!checker.Check(cert).ok()) continue;
            ++accepted;
            for (std::int64_t x = -15; x <= 35; ++x) {
              for (std::int64_t y = -15; y <= 45; ++y) {
                if (!satisfies_facts(x, y)) continue;
                std::vector<Value> row = {Value::Int64(x), Value::Int64(y)};
                auto premise_v = cert.premise_exprs[0]->Eval(row);
                ASSERT_TRUE(premise_v.ok());
                if (premise_v->is_null() || !premise_v->AsBool()) continue;
                auto concl_v = cert.conclusion_expr->Eval(row);
                ASSERT_TRUE(concl_v.ok());
                ASSERT_TRUE(!concl_v->is_null() && concl_v->AsBool())
                    << premise_text << " entails(?) " << concl_text
                    << " but x=" << x << " y=" << y << " refutes it";
              }
            }
          }
        }
      }
    }
  }
  // The sweep must not be vacuous: plenty of entailments really hold
  // (e.g. x >= 0 facts + x <= 5 premise entail y <= 15).
  EXPECT_GT(accepted, 50);
}

// ------------------------------------------------- Engine-level counters

TEST_F(CertificateFixture, EngineCountsCertificatesAndNeverFails) {
  AddAbsoluteShipSc();
  ASSERT_TRUE(RegisterOrderPriceDomainSc(&db_).ok());
  const char* queries[] = {
      "SELECT * FROM purchase WHERE ship_date = DATE '1999-12-15'",
      "SELECT COUNT(*) AS n FROM orders WHERE o_totalprice <= 1000000",
      "SELECT o_orderkey FROM orders JOIN customer "
      "ON o_custkey = c_custkey",
  };
  for (const char* sql : queries) {
    auto fresh = db_.Execute(sql);
    ASSERT_TRUE(fresh.ok()) << sql;
    EXPECT_GT(fresh->exec_stats.certificates_checked, 0u) << sql;
    EXPECT_EQ(fresh->exec_stats.certificates_failed, 0u) << sql;
    // Cache hits re-check the stored certificates: same count.
    auto hit = db_.Execute(sql);
    ASSERT_TRUE(hit.ok()) << sql;
    EXPECT_TRUE(hit->from_plan_cache);
    EXPECT_EQ(hit->exec_stats.certificates_checked,
              fresh->exec_stats.certificates_checked)
        << sql;
    EXPECT_EQ(hit->exec_stats.certificates_failed, 0u) << sql;
  }
}

TEST_F(CertificateFixture, CertifyPlansOffSkipsCheckingInRelease) {
  AddAbsoluteShipSc();
  db_.options().certify_plans = false;
  auto r = db_.Execute(
      "SELECT * FROM purchase WHERE ship_date = DATE '1999-12-15'");
  ASSERT_TRUE(r.ok());
#ifdef NDEBUG
  EXPECT_EQ(r->exec_stats.certificates_checked, 0u);
#else
  // Debug builds certify unconditionally.
  EXPECT_GT(r->exec_stats.certificates_checked, 0u);
#endif
  EXPECT_EQ(r->exec_stats.certificates_failed, 0u);
}

}  // namespace
}  // namespace softdb
