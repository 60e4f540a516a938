// Differential property test: random queries executed through the full
// parse → bind → rewrite → plan → execute pipeline must return exactly the
// rows the reference evaluator (tests/reference_eval.h: a row-at-a-time
// interpreter over the bound, unrewritten plan) returns — under every
// combination of optimizer rules, with soft constraints registered (twins
// must never change answers; absolute-SC rewrites must be
// semantics-preserving) — and the parallel engine must reproduce the
// serial result and counters exactly.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "analysis/impact.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "constraints/column_offset_sc.h"
#include "constraints/domain_sc.h"
#include "constraints/fd_sc.h"
#include "constraints/inclusion_sc.h"
#include "constraints/linear_correlation_sc.h"
#include "constraints/predicate_sc.h"
#include "engine/softdb.h"
#include "reference_eval.h"
#include "sql/parser.h"

namespace softdb {
namespace {

class FuzzDifferential : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    rng_ = Rng(GetParam());
    // `a` is NOT NULL (so b-predicates may legally introduce predicates on
    // a); `b` is nullable (so introduction onto b must be suppressed — the
    // soundness restriction this fuzzer once caught being violated).
    ASSERT_TRUE(db_.Execute("CREATE TABLE t (a BIGINT NOT NULL, b BIGINT, "
                            "c DOUBLE, d DATE, e VARCHAR)")
                    .ok());
    // 2500 rows = 3 zone-map blocks. `d` is clustered on the row id so the
    // per-block envelopes are tight and the fixed date constant below
    // actually prunes blocks on some queries; `a`..`c` stay uniform, so
    // their zone maps are consulted but rarely prune — both paths must be
    // bit-identical across engines either way.
    for (int i = 0; i < 2500; ++i) {
      const std::int64_t a = rng_.Uniform(0, 100);
      // b correlated with a: b - a in [0, 10] mostly, sometimes NULL.
      std::vector<Value> row;
      row.push_back(Value::Int64(a));
      row.push_back(rng_.NextBool(0.05)
                        ? Value::Null()
                        : Value::Int64(a + rng_.Uniform(0, 10)));
      row.push_back(Value::Double(rng_.NextDouble() * 1000.0));
      row.push_back(Value::Date(10000 + i / 10));
      row.push_back(Value::String(rng_.NextBool(0.5) ? "red" : "blue"));
      ASSERT_TRUE(db_.InsertRow("t", row).ok());
    }
    ASSERT_TRUE(db_.Execute("CREATE INDEX ia ON t (a)").ok());
    ASSERT_TRUE(db_.Execute("ANALYZE t").ok());
    ASSERT_TRUE(db_.MineZoneMaps("t").ok());

    // Every fuzzed plan runs through PlanVerifier at all four phases
    // (bind, rewrite, join-elimination, physical-planning) before it
    // executes; a structurally unsound plan fails the query outright
    // instead of silently producing a differential mismatch.
    db_.options().verify_plans = true;

    // One statistical offset SC (feeds twinning) and one wide absolute one
    // (feeds predicate introduction), plus a domain SC.
    auto ssc = std::make_unique<ColumnOffsetSc>("ssc", "t", 0, 1, 0, 8);
    ssc->set_policy(ScMaintenancePolicy::kTolerate);
    ASSERT_TRUE(db_.scs().Add(std::move(ssc), db_.catalog()).ok());
    auto asc = std::make_unique<ColumnOffsetSc>("asc", "t", 0, 1, 0, 10);
    ASSERT_TRUE(db_.scs().Add(std::move(asc), db_.catalog()).ok());
    ASSERT_TRUE(db_.scs().Find("asc")->IsAbsolute());
    ASSERT_TRUE(db_.scs().Add(
        std::make_unique<DomainSc>("dom", "t", 0, Value::Int64(0),
                                   Value::Int64(100)),
        db_.catalog()).ok());
  }

  std::string RandomComparison() {
    static const char* kCols[] = {"a", "b", "c", "d"};
    static const char* kOps[] = {"=", "<>", "<", "<=", ">", ">="};
    const char* col = kCols[rng_.Uniform(0, 3)];
    const char* op = kOps[rng_.Uniform(0, 5)];
    std::string constant;
    if (col[0] == 'c') {
      constant = StrFormat("%.1f", rng_.NextDouble() * 1000.0);
    } else if (col[0] == 'd') {
      constant = StrFormat("DATE '1997-05-19'");  // 10000 days ~ mid-range.
    } else {
      constant = std::to_string(rng_.Uniform(-10, 110));
    }
    return std::string(col) + " " + op + " " + constant;
  }

  std::string RandomTerm() {
    switch (rng_.Uniform(0, 5)) {
      case 0:
        return StrFormat("a BETWEEN %lld AND %lld",
                         static_cast<long long>(rng_.Uniform(0, 50)),
                         static_cast<long long>(rng_.Uniform(50, 110)));
      case 1:
        return rng_.NextBool(0.5) ? "b IS NULL" : "b IS NOT NULL";
      case 2:
        return StrFormat("e = '%s'", rng_.NextBool(0.5) ? "red" : "blue");
      case 3:
        return StrFormat("b - a <= %lld",
                         static_cast<long long>(rng_.Uniform(0, 12)));
      default:
        return RandomComparison();
    }
  }

  std::string RandomPredicate() {
    std::string out = RandomTerm();
    const int extra = static_cast<int>(rng_.Uniform(0, 2));
    for (int i = 0; i < extra; ++i) {
      out += rng_.NextBool(0.7) ? " AND " : " OR ";
      out += RandomTerm();
    }
    return out;
  }

  // Ground truth: evaluate the bound predicate over every live row.
  std::size_t ReferenceCount(const std::string& predicate) {
    auto expr = ParseExpression(predicate);
    EXPECT_TRUE(expr.ok()) << predicate;
    Table* t = *db_.catalog().GetTable("t");
    EXPECT_TRUE((*expr)->Bind(t->schema()).ok()) << predicate;
    std::size_t count = 0;
    for (RowId r = 0; r < t->NumSlots(); ++r) {
      if (!t->IsLive(r)) continue;
      auto v = (*expr)->Eval(t->GetRow(r));
      EXPECT_TRUE(v.ok());
      if (!v->is_null() && v->AsBool()) ++count;
    }
    return count;
  }

  // Asserts `got` is bit-identical to `want`: same cardinality, and every
  // value matches in type, nullness and exact textual rendering.
  static void AssertRowsIdentical(const RowSet& want, const RowSet& got,
                                  const std::string& sql,
                                  const std::string& label) {
    ASSERT_EQ(want.NumRows(), got.NumRows()) << sql << " [" << label << "]";
    for (std::size_t i = 0; i < want.NumRows(); ++i) {
      ASSERT_EQ(want.rows[i].size(), got.rows[i].size())
          << sql << " [" << label << "] row " << i;
      for (std::size_t c = 0; c < want.rows[i].size(); ++c) {
        const Value& wv = want.rows[i][c];
        const Value& gv = got.rows[i][c];
        ASSERT_EQ(wv.type(), gv.type())
            << sql << " [" << label << "] row " << i << " col " << c;
        ASSERT_EQ(wv.is_null(), gv.is_null())
            << sql << " [" << label << "] row " << i << " col " << c;
        ASSERT_EQ(wv.ToString(), gv.ToString())
            << sql << " [" << label << "] row " << i << " col " << c;
      }
    }
  }

  // Sum of RecordScUse attributions across the zone maps: planning is
  // independent of execution, so every thread count must bill the maps
  // identically.
  std::uint64_t ZoneMapUses() {
    std::uint64_t total = 0;
    for (const SoftConstraint* sc : db_.scs().All()) {
      if (sc->kind() == ScKind::kBlockZoneMap) {
        total += db_.scs().UseCount(sc->name());
      }
    }
    return total;
  }

  // Re-runs `sql` on the morsel-driven parallel engine at 2 and 8 worker
  // threads (with a small morsel size so every scan splits into many
  // morsels) and asserts the output is bit-identical to the serial result:
  // same rows in the same order, the same ExecStats counters (`morsels`
  // excluded — it is an execution-strategy detail), and the same
  // RecordScUse attributions.
  void ExpectParallelAgrees(const std::string& sql, const QueryResult& serial,
                            std::uint64_t serial_zone_map_uses) {
    db_.options().parallel_morsel_rows = 128;
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      db_.options().num_threads = threads;
      db_.plan_cache().Clear();
      const std::uint64_t zm_before = ZoneMapUses();
      auto par = db_.Execute(sql);
      ASSERT_TRUE(par.ok()) << sql << " @" << threads << " threads -> "
                            << par.status().ToString();
      const std::string label = std::to_string(threads) + " threads";
      EXPECT_EQ(ZoneMapUses() - zm_before, serial_zone_map_uses)
          << sql << " " << label;
      AssertRowsIdentical(serial.rows, par->rows, sql, label);
      const ExecStats& ss = serial.exec_stats;
      const ExecStats& ps = par->exec_stats;
      EXPECT_EQ(ss.rows_scanned, ps.rows_scanned) << sql << " " << label;
      EXPECT_EQ(ss.rows_emitted, ps.rows_emitted) << sql << " " << label;
      EXPECT_EQ(ss.pages_read, ps.pages_read) << sql << " " << label;
      EXPECT_EQ(ss.rows_output, ps.rows_output) << sql << " " << label;
      EXPECT_EQ(ss.rows_sorted, ps.rows_sorted) << sql << " " << label;
      EXPECT_EQ(ss.index_lookups, ps.index_lookups) << sql << " " << label;
      EXPECT_EQ(ss.rows_joined, ps.rows_joined) << sql << " " << label;
      EXPECT_EQ(ss.runtime_param_skips, ps.runtime_param_skips)
          << sql << " " << label;
      EXPECT_EQ(ss.blocks_skipped, ps.blocks_skipped) << sql << " " << label;
      EXPECT_EQ(ss.blocks_total, ps.blocks_total) << sql << " " << label;
      // Certificates are emitted and checked at plan time, so the count is
      // independent of execution — and every plan's certificates must
      // prove.
      EXPECT_EQ(ss.certificates_checked, ps.certificates_checked)
          << sql << " " << label;
      EXPECT_EQ(ps.certificates_failed, 0u) << sql << " " << label;
      EXPECT_EQ(serial.used_scs, par->used_scs) << sql << " " << label;
    }
    db_.options().num_threads = 1;
    db_.options().parallel_morsel_rows = 4096;
  }

  // Runs `sql` serially under the currently configured optimizer rules,
  // checks the answer against the reference evaluator (and, when given,
  // its row count against `expected`), requires every certificate to
  // prove, then checks the parallel engine against the serial run.
  void ExpectMatchesReference(const std::string& sql, int config,
                              std::optional<std::size_t> expected = {}) {
    db_.plan_cache().Clear();
    const std::uint64_t zm_before = ZoneMapUses();
    auto serial = db_.Execute(sql);
    ASSERT_TRUE(serial.ok()) << sql << " -> " << serial.status().ToString();
    const std::uint64_t zm_uses = ZoneMapUses() - zm_before;
    if (expected.has_value()) {
      EXPECT_EQ(serial->rows.NumRows(), *expected)
          << sql << " (config " << config << ")";
    }
    reference::ExpectMatchesReference(sql, db_.catalog(), serial->rows);
    EXPECT_EQ(serial->exec_stats.rows_output, serial->rows.NumRows()) << sql;
    EXPECT_EQ(serial->exec_stats.certificates_failed, 0u) << sql;
    ExpectParallelAgrees(sql, *serial, zm_uses);
  }

  Rng rng_{0};
  SoftDb db_;
};

TEST_P(FuzzDifferential, PipelineMatchesDirectEvaluation) {
  for (int q = 0; q < 40; ++q) {
    const std::string predicate = RandomPredicate();
    const std::string sql = "SELECT * FROM t WHERE " + predicate;
    const std::size_t expected = ReferenceCount(predicate);

    // Sweep rule configurations; answers must be invariant, match the
    // reference, and the parallel engine must reproduce the serial run
    // exactly — both the rows returned and every ExecStats counter.
    for (int config = 0; config < 4; ++config) {
      db_.options().enable_predicate_introduction = (config & 1) != 0;
      db_.options().enable_twinning = (config & 2) != 0;
      db_.options().use_twins_in_estimation = (config & 2) != 0;
      ExpectMatchesReference(sql, config, expected);
    }
  }
}

// Joins (equi and non-equi), projections with expressions, GROUP BY,
// UNION ALL, ORDER BY and LIMIT (over a scan and over a join) must match
// the reference, and the parallel engine must reproduce the serial run
// (LIMIT keeps its subtree serial).
TEST_P(FuzzDifferential, JoinsAndProjectionsMatchAcrossEngines) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE s (k BIGINT NOT NULL, w DOUBLE, "
                          "tag VARCHAR)")
                  .ok());
  for (int i = 0; i < 200; ++i) {
    std::vector<Value> row;
    row.push_back(Value::Int64(rng_.Uniform(0, 100)));
    row.push_back(rng_.NextBool(0.1) ? Value::Null()
                                     : Value::Double(rng_.NextDouble() * 50));
    row.push_back(Value::String(rng_.NextBool(0.5) ? "hot" : "cold"));
    ASSERT_TRUE(db_.InsertRow("s", row).ok());
  }
  ASSERT_TRUE(db_.Execute("ANALYZE s").ok());

  const std::string queries[] = {
      "SELECT a, b, k, w FROM t JOIN s ON a = k WHERE " + RandomPredicate(),
      "SELECT b - a, c + w FROM t JOIN s ON a = k WHERE " + RandomPredicate(),
      "SELECT a + 1, b * 2, e FROM t WHERE " + RandomPredicate(),
      "SELECT a, w FROM t JOIN s ON b = k",
      "SELECT a, b FROM t WHERE " + RandomPredicate() + " ORDER BY a",
      "SELECT a FROM t WHERE " + RandomPredicate() + " LIMIT 7",
      "SELECT e, COUNT(*), SUM(a), MIN(c), MAX(d), AVG(b) FROM t WHERE " +
          RandomPredicate() + " GROUP BY e",
      "SELECT COUNT(b), SUM(c) FROM t WHERE " + RandomPredicate(),
      "SELECT a, b FROM t WHERE " + RandomPredicate() +
          " UNION ALL SELECT a, b FROM t WHERE " + RandomPredicate(),
      "SELECT a, k, w FROM t JOIN s ON a < k - 90 WHERE a < 30 AND " +
          RandomPredicate(),
      "SELECT a, k FROM t JOIN s ON a = k WHERE " + RandomPredicate() +
          " LIMIT 11",
  };
  for (const std::string& sql : queries) {
    for (int config = 0; config < 2; ++config) {
      db_.options().enable_predicate_introduction = config != 0;
      ExpectMatchesReference(sql, config);
    }
  }
}

// Soundness fuzz for the static DML impact analyzer: across random
// INSERT/UPDATE/DELETE statements, every SC whose actual violation count
// increases must be inside the predicted impact set, and the predicted set
// must be strictly smaller than the full catalog most of the time (the
// whole point of impact scoping). 8 seeds x 125 statements = 1000 total.
TEST_P(FuzzDifferential, DmlImpactSetIsSoundAndUsuallyNarrow) {
  SoftDb db;
  ASSERT_TRUE(db.Execute("CREATE TABLE u1 (a BIGINT NOT NULL, b BIGINT, "
                         "c DOUBLE, CHECK (a >= -1000))")
                  .ok());
  ASSERT_TRUE(
      db.Execute("CREATE TABLE u2 (x BIGINT NOT NULL, y BIGINT)").ok());
  for (int i = 0; i < 60; ++i) {
    // Unique `a` keeps the FD clean at registration; b - a in [0, 10];
    // c tracks 2a inside the +-500 band.
    std::vector<Value> row;
    row.push_back(Value::Int64(i));
    row.push_back(rng_.NextBool(0.1)
                      ? Value::Null()
                      : Value::Int64(i + rng_.Uniform(0, 10)));
    row.push_back(Value::Double(2.0 * i + rng_.Uniform(-100, 100)));
    ASSERT_TRUE(db.InsertRow("u1", row).ok());
    ASSERT_TRUE(db.InsertRow("u2", {Value::Int64(rng_.Uniform(0, 59)),
                                    Value::Int64(rng_.Uniform(0, 50))})
                    .ok());
  }

  auto add = [&](ScPtr sc) {
    sc->set_policy(ScMaintenancePolicy::kTolerate);
    ASSERT_TRUE(db.scs().Add(std::move(sc), db.catalog()).ok());
  };
  add(std::make_unique<DomainSc>("dom_a", "u1", 0, Value::Int64(0),
                                 Value::Int64(100)));
  add(std::make_unique<ColumnOffsetSc>("off_ab", "u1", 0, 1, 0, 10));
  add(std::make_unique<LinearCorrelationSc>("lin_ca", "u1", 2, 0, 2.0, 0.0,
                                            500.0));
  auto pred = ParseExpression("b < 500");
  ASSERT_TRUE(pred.ok());
  ASSERT_TRUE(
      (*pred)->Bind((*db.catalog().GetTable("u1"))->schema()).ok());
  add(std::make_unique<PredicateSc>("pred_b", "u1", std::move(*pred)));
  add(std::make_unique<FunctionalDependencySc>(
      "fd_ab", "u1", std::vector<ColumnIdx>{0}, std::vector<ColumnIdx>{1}));
  add(std::make_unique<InclusionSc>("incl", "u2", std::vector<ColumnIdx>{0},
                                    "u1", std::vector<ColumnIdx>{0}));
  add(std::make_unique<DomainSc>("dom_y", "u2", 1, Value::Int64(0),
                                 Value::Int64(50)));

  auto num = [&](std::int64_t lo, std::int64_t hi) {
    return std::to_string(rng_.Uniform(lo, hi));
  };
  auto where_u1 = [&]() -> std::string {
    static const char* kOps[] = {"=", "<>", "<", "<=", ">", ">="};
    switch (rng_.Uniform(0, 3)) {
      case 0:
        return "";
      case 1:
        return StrFormat(" WHERE a %s %s", kOps[rng_.Uniform(0, 5)],
                         num(-20, 120).c_str());
      case 2:
        return StrFormat(" WHERE b %s %s", kOps[rng_.Uniform(0, 5)],
                         num(-20, 120).c_str());
      default:
        return " WHERE a BETWEEN " + num(0, 50) + " AND " + num(50, 120);
    }
  };
  auto random_dml = [&]() -> std::string {
    switch (rng_.Uniform(0, 5)) {
      case 0: {
        const std::string b =
            rng_.NextBool(0.15) ? "NULL" : num(-20, 130);
        return "INSERT INTO u1 VALUES (" + num(-20, 120) + ", " + b +
               ", " + num(-900, 900) + ")";
      }
      case 1:
        return "INSERT INTO u2 VALUES (" + num(-5, 70) + ", " +
               num(-10, 60) + ")";
      case 2: {
        static const char* kCols[] = {"a", "b", "c"};
        const int first = static_cast<int>(rng_.Uniform(0, 2));
        const int count = rng_.NextBool(0.3) ? 2 : 1;
        std::string sets;
        for (int k = 0; k < count; ++k) {
          const char* col =
              kCols[(first + k * (1 + rng_.Uniform(0, 1))) % 3];
          if (!sets.empty()) sets += ", ";
          if (col[0] == 'b' && rng_.NextBool(0.1)) {
            sets += StrFormat("%s = NULL", col);
          } else if (rng_.NextBool(0.4)) {
            sets += StrFormat("%s = %s %s %s", col, col,
                              rng_.NextBool(0.5) ? "+" : "-",
                              num(0, 30).c_str());
          } else {
            sets += StrFormat("%s = %s", col, num(-20, 130).c_str());
          }
        }
        return "UPDATE u1 SET " + sets + where_u1();
      }
      case 3:
        return "UPDATE u2 SET y = " + num(-10, 60) +
               (rng_.NextBool(0.5) ? " WHERE x > " + num(0, 60) : "");
      case 4:
        return "DELETE FROM u1" + where_u1();
      default:
        return "DELETE FROM u2" +
               (rng_.NextBool(0.7) ? " WHERE x < " + num(0, 60)
                                   : std::string());
    }
  };

  ImpactAnalyzer analyzer(&db.catalog(), &db.ics(), &db.scs());
  const int kStatements = 125;
  int narrowed = 0;
  for (int iter = 0; iter < kStatements; ++iter) {
    const std::string sql = random_dml();
    auto stmt = ParseStatement(sql);
    ASSERT_TRUE(stmt.ok()) << sql << ": " << stmt.status().ToString();

    std::map<std::string, std::uint64_t> pre;
    for (SoftConstraint* sc : db.scs().All()) {
      auto audit = sc->AuditViolations(db.catalog());
      ASSERT_TRUE(audit.ok()) << sc->name();
      pre[sc->name()] = audit->violations;
    }

    auto impact = analyzer.Analyze(*stmt);
    ASSERT_TRUE(impact.ok()) << sql << ": " << impact.status().ToString();
    if (impact->Narrowed()) ++narrowed;

    // Execution may legitimately fail (enforced CHECK, NOT NULL); any
    // partial writes are a subset of the modeled statement, so the
    // soundness assertion below still applies.
    (void)db.Execute(sql);

    for (SoftConstraint* sc : db.scs().All()) {
      auto audit = sc->AuditViolations(db.catalog());
      ASSERT_TRUE(audit.ok()) << sc->name();
      if (audit->violations > pre[sc->name()]) {
        EXPECT_TRUE(impact->Contains(sc->name()))
            << sql << " raised violations of " << sc->name()
            << " outside the predicted impact set "
            << "(impact: " << Join(impact->impacted, ", ") << ")";
      }
    }
  }
  // The analyzer must actually narrow maintenance on at least half the
  // statements, or scoping buys nothing.
  EXPECT_GE(narrowed * 2, kStatements) << narrowed << "/" << kStatements;
}

// Recover-replay differential mode: a WAL-backed engine runs a random
// single-row DML workload and is crashed at a random wal.append, then
// recovered from its log and driven to the end of the workload (retrying
// the statement the crash interrupted). The final state — rows, SC use
// attributions, certificate verdicts — must be bit-identical to a live
// engine that ran the same workload without ever crashing.
TEST_P(FuzzDifferential, CrashRecoveryMatchesLiveExecution) {
  namespace fs = std::filesystem;
  char tmpl[] = "/tmp/softdb_fuzzwal_XXXXXX";
  const char* made = ::mkdtemp(tmpl);
  ASSERT_NE(made, nullptr);
  const std::string dir = made;
  Failpoints& fp = Failpoints::Instance();
  fp.DisableAll();

  SoftDb control;
  EngineOptions wal_options;
  wal_options.wal_dir = dir;
  wal_options.wal_sync_every_n = 1;
  auto crashy = std::make_unique<SoftDb>(wal_options);

  auto setup = [&](SoftDb* db) {
    ASSERT_TRUE(
        db->Execute("CREATE TABLE r (id BIGINT NOT NULL, v BIGINT, "
                    "tag VARCHAR)")
            .ok());
    auto dom = std::make_unique<DomainSc>("dom_rv", "r", 1, Value::Int64(0),
                                          Value::Int64(1000));
    dom->set_policy(ScMaintenancePolicy::kTolerate);
    ASSERT_TRUE(db->scs().Add(std::move(dom), db->catalog()).ok());
  };
  setup(&control);
  setup(crashy.get());

  // Random single-row statements only: a mid-statement crash inside
  // multi-row DML legitimately diverges from the uncrashed control, so the
  // workload pins every UPDATE/DELETE to one id.
  std::int64_t next_id = 0;
  auto random_stmt = [&]() -> std::string {
    switch (rng_.Uniform(0, 4)) {
      case 0:
      case 1: {
        const std::string v =
            rng_.NextBool(0.1) ? "NULL" : std::to_string(rng_.Uniform(0, 999));
        const std::string tag = rng_.NextBool(0.5) ? "hot" : "cold";
        return "INSERT INTO r VALUES (" + std::to_string(next_id++) + ", " +
               v + ", '" + tag + "')";
      }
      case 2:
        return "UPDATE r SET v = " + std::to_string(rng_.Uniform(0, 999)) +
               " WHERE id = " +
               std::to_string(rng_.Uniform(0, std::max<std::int64_t>(
                                                  next_id - 1, 0)));
      default:
        return "DELETE FROM r WHERE id = " +
               std::to_string(rng_.Uniform(0, std::max<std::int64_t>(
                                                  next_id - 1, 0)));
    }
  };
  const int kStatements = 48;
  std::vector<std::string> workload;
  workload.reserve(kStatements);
  for (int i = 0; i < kStatements; ++i) workload.push_back(random_stmt());

  // Arm the crash: the Nth WAL append from here dies with IOError. Each
  // single-row statement is exactly one append, so this lands the crash at
  // a seed-dependent statement inside the workload.
  Failpoints::Policy nth;
  nth.trigger = Failpoints::Trigger::kEveryNth;
  nth.n = rng_.Uniform(2, kStatements / 2);
  fp.Enable("wal.append", nth);

  bool crashed = false;
  for (const std::string& sql : workload) {
    ASSERT_TRUE(control.Execute(sql).ok()) << sql;
    Result<QueryResult> got = crashy->Execute(sql);
    if (!got.ok()) {
      ASSERT_FALSE(crashed) << "second crash after failpoints were disarmed";
      EXPECT_EQ(got.status().code(), StatusCode::kIOError) << sql;
      crashed = true;
      fp.DisableAll();
      crashy.reset();  // Discard the crashed engine; the log is the truth.
      Result<std::unique_ptr<SoftDb>> rec = SoftDb::Recover(dir);
      ASSERT_TRUE(rec.ok()) << rec.status().ToString();
      crashy = std::move(*rec);
      // The interrupted statement was never acked, so recovery must land
      // strictly before it: retry gives exactly-once.
      ASSERT_TRUE(crashy->Execute(sql).ok()) << sql;
    }
  }
  ASSERT_TRUE(crashed);

  ASSERT_TRUE(control.Execute("ANALYZE r").ok());
  ASSERT_TRUE(crashy->Execute("ANALYZE r").ok());

  auto render_sorted = [](SoftDb* db, const std::string& sql) {
    Result<QueryResult> r = db->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    std::vector<std::string> out;
    if (!r.ok()) return out;
    for (const std::vector<Value>& row : r->rows.rows) {
      std::string s;
      for (const Value& v : row) {
        s += v.ToString();
        s += "|";
      }
      out.push_back(std::move(s));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(render_sorted(&control, "SELECT * FROM r"),
            render_sorted(crashy.get(), "SELECT * FROM r"));

  // Planning-visible state must also have survived: the same queries make
  // the same SC use attributions and certificate verdicts on both engines.
  const std::string probes[] = {
      "SELECT * FROM r WHERE v >= 0 AND v <= 1000",
      "SELECT id, v FROM r WHERE v < 500",
      "SELECT * FROM r WHERE id = 3",
  };
  for (const std::string& sql : probes) {
    Result<QueryResult> live = control.Execute(sql);
    Result<QueryResult> rec = crashy->Execute(sql);
    ASSERT_TRUE(live.ok()) << sql;
    ASSERT_TRUE(rec.ok()) << sql;
    EXPECT_EQ(render_sorted(&control, sql), render_sorted(crashy.get(), sql))
        << sql;
    EXPECT_EQ(live->used_scs, rec->used_scs) << sql;
    EXPECT_EQ(live->exec_stats.certificates_checked,
              rec->exec_stats.certificates_checked)
        << sql;
    EXPECT_EQ(rec->exec_stats.certificates_failed, 0u) << sql;
  }

  crashy.reset();
  std::error_code ec;
  fs::remove_all(dir, ec);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace softdb
