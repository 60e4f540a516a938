// Robustness battery: the fault-injection framework itself, cooperative
// cancellation/deadlines, typed fault surfacing from armed failpoints,
// epoch-guarded degraded retries when an SC is overturned mid-query, repair
// retry/backoff/quarantine semantics, the background repair worker, and a
// differential round proving a disarmed framework is bit-identical to the
// seed engine.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/query_context.h"
#include "constraints/column_offset_sc.h"
#include "engine/softdb.h"

namespace softdb {
namespace {

Failpoints& FP() { return Failpoints::Instance(); }

Failpoints::Policy Always() {
  Failpoints::Policy p;
  p.trigger = Failpoints::Trigger::kAlways;
  return p;
}

Failpoints::Policy EveryNth(std::uint64_t n) {
  Failpoints::Policy p;
  p.trigger = Failpoints::Trigger::kEveryNth;
  p.n = n;
  return p;
}

Failpoints::Policy Prob(double probability, std::uint64_t seed) {
  Failpoints::Policy p;
  p.trigger = Failpoints::Trigger::kProbability;
  p.probability = probability;
  p.seed = seed;
  return p;
}

// Every fixture disarms the framework on both sides so no profile leaks
// between cases (or out of a failed one).
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { FP().DisableAll(); }
  void TearDown() override { FP().DisableAll(); }
};

// ------------------------------------------------------- framework basics

TEST_F(FailpointTest, DisarmedSiteNeverFiresAndCostsNothing) {
  EXPECT_FALSE(FP().AnyArmed());
  EXPECT_FALSE(SOFTDB_FAILPOINT_FIRED("nosuch.site"));
  EXPECT_EQ(FP().Evaluations("nosuch.site"), 0u);
  EXPECT_EQ(FP().Fires("nosuch.site"), 0u);
}

TEST_F(FailpointTest, AlwaysPolicyFiresEveryEvaluation) {
  FP().Enable("t.site", Always());
  EXPECT_TRUE(FP().AnyArmed());
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(FP().ShouldFail("t.site"));
  EXPECT_EQ(FP().Evaluations("t.site"), 3u);
  EXPECT_EQ(FP().Fires("t.site"), 3u);

  // Disable keeps counters but stops fires.
  FP().Disable("t.site");
  EXPECT_FALSE(FP().ShouldFail("t.site"));
  EXPECT_EQ(FP().Evaluations("t.site"), 4u);
  EXPECT_EQ(FP().Fires("t.site"), 3u);
}

TEST_F(FailpointTest, EveryNthFiresOnMultiplesOnly) {
  FP().Enable("t.site", EveryNth(3));
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) fired.push_back(FP().ShouldFail("t.site"));
  const std::vector<bool> expected = {false, false, true, false, false,
                                      true,  false, false, true};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(FP().Fires("t.site"), 3u);
}

TEST_F(FailpointTest, ProbabilityEdgesAndSeedDeterminism) {
  FP().Enable("t.one", Prob(1.0, 7));
  FP().Enable("t.zero", Prob(0.0, 7));
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(FP().ShouldFail("t.one"));
    EXPECT_FALSE(FP().ShouldFail("t.zero"));
  }

  // Two sites with the same seed produce the same fire sequence.
  FP().Enable("t.a", Prob(0.5, 42));
  FP().Enable("t.b", Prob(0.5, 42));
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(FP().ShouldFail("t.a"), FP().ShouldFail("t.b")) << "at " << i;
  }
  EXPECT_EQ(FP().Fires("t.a"), FP().Fires("t.b"));
  EXPECT_GT(FP().Fires("t.a"), 0u);
  EXPECT_LT(FP().Fires("t.a"), 200u);
}

TEST_F(FailpointTest, EnableResetsCounters) {
  FP().Enable("t.site", Always());
  FP().ShouldFail("t.site");
  FP().Enable("t.site", Always());
  EXPECT_EQ(FP().Evaluations("t.site"), 0u);
  EXPECT_EQ(FP().Fires("t.site"), 0u);
}

TEST_F(FailpointTest, ParseProfileArmsEachEntry) {
  ASSERT_TRUE(
      FP().ParseProfile("a.x=always; b.y=every(2);c.z=prob(0.25,7)").ok());
  EXPECT_TRUE(FP().ShouldFail("a.x"));
  EXPECT_FALSE(FP().ShouldFail("b.y"));
  EXPECT_TRUE(FP().ShouldFail("b.y"));
  EXPECT_EQ(FP().Evaluations("c.z"), 0u);  // Armed, not yet evaluated.
}

TEST_F(FailpointTest, ParseProfileRejectsMalformedEntries) {
  EXPECT_FALSE(FP().ParseProfile("noequals").ok());
  EXPECT_FALSE(FP().ParseProfile("=always").ok());
  EXPECT_FALSE(FP().ParseProfile("a=bogus").ok());
  EXPECT_FALSE(FP().ParseProfile("a=every(0)").ok());
  EXPECT_FALSE(FP().ParseProfile("a=every(x)").ok());
  EXPECT_FALSE(FP().ParseProfile("a=prob(1.5)").ok());
  EXPECT_FALSE(FP().ParseProfile("a=prob(0.5,zz)").ok());
  // Entries before the bad one stay armed.
  EXPECT_FALSE(FP().ParseProfile("good=always;bad=every(0)").ok());
  EXPECT_TRUE(FP().ShouldFail("good"));
}

TEST_F(FailpointTest, ActionRunsOnFireAndMayDisarmItsOwnSite) {
  FP().Enable("t.site", Always());
  int hits = 0;
  FP().SetAction("t.site", [&hits] {
    ++hits;
    FP().Disable("t.site");  // Fire-once: actions may re-enter the framework.
  });
  EXPECT_TRUE(FP().ShouldFail("t.site"));
  EXPECT_FALSE(FP().ShouldFail("t.site"));
  EXPECT_EQ(hits, 1);
}

// ------------------------------------------------ cancellation & deadlines

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override { FP().DisableAll(); }
  void TearDown() override { FP().DisableAll(); }

  // t(x, y) with y = x + 2, `rows` rows.
  void MakeTable(SoftDb& db, int rows) {
    ASSERT_TRUE(
        db.Execute("CREATE TABLE t (x BIGINT NOT NULL, y BIGINT NOT NULL)")
            .ok());
    for (int i = 0; i < rows; ++i) {
      ASSERT_TRUE(
          db.InsertRow("t", {Value::Int64(i), Value::Int64(i + 2)}).ok());
    }
  }

  // Registers the offset SC y = x + [0, 5] used by degraded-retry cases.
  void AddOffsetSc(SoftDb& db, ScMaintenancePolicy policy) {
    auto sc = std::make_unique<ColumnOffsetSc>("win", "t", 0, 1, 0, 5);
    sc->set_policy(policy);
    ASSERT_TRUE(db.scs().Add(std::move(sc), db.catalog()).ok());
  }

  QueryResult Run(SoftDb& db, const std::string& sql) {
    auto result = db.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? *std::move(result) : QueryResult{};
  }
};

TEST_F(RobustnessTest, PreCancelledQueryReturnsCancelled) {
  SoftDb db;
  MakeTable(db, 10);
  QueryContext query;
  query.cancel = std::make_shared<CancellationToken>();
  query.cancel->Cancel();
  auto r = db.Execute("SELECT * FROM t", &query);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST_F(RobustnessTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  SoftDb db;
  MakeTable(db, 10);
  QueryContext query;
  query.SetDeadlineAfter(std::chrono::milliseconds(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  auto r = db.Execute("SELECT * FROM t", &query);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  // The default fail-fast path rejects before dispatch and reports how
  // late the statement arrived (PR 10 admission rule, engine-side copy).
  EXPECT_TRUE(StatusDetail(r.status(), "deadline_lag_ms").has_value());
}

TEST_F(RobustnessTest, ExpiredDeadlineFailFastCanBeDisabled) {
  // With reject_expired_deadlines off, the statement is dispatched and the
  // in-flight deadline check catches it instead — no lag detail, and the
  // query really ran (distinguishes admission fail-fast from enforcement).
  EngineOptions options;
  options.reject_expired_deadlines = false;
  SoftDb db(options);
  MakeTable(db, 10);
  QueryContext query;
  query.SetDeadlineAfter(std::chrono::milliseconds(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  auto r = db.Execute("SELECT * FROM t", &query);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(StatusDetail(r.status(), "deadline_lag_ms").has_value());
}

TEST_F(RobustnessTest, NullQueryContextAndGenerousDeadlineSucceed) {
  SoftDb db;
  MakeTable(db, 10);
  EXPECT_TRUE(db.Execute("SELECT * FROM t", nullptr).ok());
  QueryContext query;
  query.cancel = std::make_shared<CancellationToken>();
  query.SetDeadlineAfter(std::chrono::minutes(5));
  auto r = db.Execute("SELECT * FROM t", &query);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.NumRows(), 10u);
}

TEST_F(RobustnessTest, MidQueryCancellationSurfacesBetweenRows) {
  SoftDb db;
  MakeTable(db, 500);
  QueryContext query;
  auto token = std::make_shared<CancellationToken>();
  query.cancel = token;
  // Cancel from inside the drain loop, a few rows in.
  FP().Enable("exec.drain", EveryNth(5));
  FP().SetAction("exec.drain", [token] { token->Cancel(); });
  auto r = db.Execute("SELECT * FROM t", &query);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST_F(RobustnessTest, MidQueryDeadlineSurfacesDuringBatchDrain) {
  SoftDb db;
  MakeTable(db, 4000);  // Several batches of output.
  db.options().default_deadline_ms = 5;
  // Burn past the 5ms budget partway through the first batch's rows; the
  // drain's clock check at the next batch boundary notices.
  FP().Enable("exec.drain", EveryNth(100));
  FP().SetAction("exec.drain", [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    FP().Disable("exec.drain");
  });
  auto r = db.Execute("SELECT * FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

// ----------------------------------------------------- typed fault surfacing

TEST_F(RobustnessTest, HashJoinBuildFaultSurfacesResourceExhausted) {
  SoftDb db;
  MakeTable(db, 50);
  ASSERT_TRUE(db.Execute("CREATE TABLE u (x BIGINT NOT NULL)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO u VALUES (1), (2), (3)").ok());
  FP().Enable("exec.hash_join_build", Always());
  auto r = db.Execute("SELECT * FROM t, u WHERE t.x = u.x");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  FP().DisableAll();
  EXPECT_TRUE(db.Execute("SELECT * FROM t, u WHERE t.x = u.x").ok());
}

TEST_F(RobustnessTest, BatchScanFaultSurfacesInternal) {
  SoftDb db;
  MakeTable(db, 50);
  FP().Enable("exec.batch_scan", Always());
  auto r = db.Execute("SELECT * FROM t WHERE y > 10");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST_F(RobustnessTest, ParallelSchedulerFaultSurfacesResourceExhausted) {
  SoftDb db;
  db.options().num_threads = 4;
  db.options().parallel_morsel_rows = 64;
  MakeTable(db, 2000);
  FP().Enable("scheduler.task", Always());
  auto r = db.Execute("SELECT * FROM t WHERE y > 10");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  // Disarmed, the same pool runs the query clean.
  FP().DisableAll();
  auto clean = db.Execute("SELECT * FROM t WHERE y > 10");
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean->rows.NumRows(), 1991u);
}

TEST_F(RobustnessTest, PlanCacheInsertFaultDegradesToUncachedSuccess) {
  SoftDb db;
  MakeTable(db, 20);
  FP().Enable("plan_cache.insert", Always());
  auto first = Run(db, "SELECT * FROM t WHERE y > 10");
  EXPECT_FALSE(first.from_plan_cache);
  auto second = Run(db, "SELECT * FROM t WHERE y > 10");
  EXPECT_FALSE(second.from_plan_cache);  // Nothing was cached.
  FP().DisableAll();
  Run(db, "SELECT * FROM t WHERE y > 10");
  auto cached = Run(db, "SELECT * FROM t WHERE y > 10");
  EXPECT_TRUE(cached.from_plan_cache);
}

// -------------------------------------------------------- degraded retries

TEST_F(RobustnessTest, MidQueryAscOverturnRetriesOnceOnBackup) {
  // Baseline: identical data, no SC.
  SoftDb plain;
  MakeTable(plain, 50);
  const std::string query = "SELECT * FROM t WHERE y = 30";
  const std::string expected = Run(plain, query).rows.ToString();

  SoftDb db;
  MakeTable(db, 50);
  AddOffsetSc(db, ScMaintenancePolicy::kTolerate);
  // Overturn the consumed ASC between two output rows of the first (fresh
  // path) execution: the completion-time epoch check must notice and re-run
  // the SC-free backup exactly once, transparently.
  FP().Enable("exec.drain", Always());
  FP().SetAction("exec.drain", [&db] {
    db.scs().Find("win")->set_state(ScState::kViolated);
    FP().Disable("exec.drain");
  });
  auto r = db.Execute(query);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GE(r->used_scs.size(), 1u);  // The rewrite really consumed the SC.
  EXPECT_EQ(r->exec_stats.degraded_retries, 1u);
  EXPECT_TRUE(r->used_backup_plan);
  EXPECT_EQ(r->rows.ToString(), expected);

  // Subsequent hits see the violated SC at hit time and go straight to the
  // backup with no further retries.
  auto later = Run(db, query);
  EXPECT_TRUE(later.used_backup_plan);
  EXPECT_EQ(later.exec_stats.degraded_retries, 0u);
  EXPECT_EQ(later.rows.ToString(), expected);
}

TEST_F(RobustnessTest, MidQueryOverturnOnCachedPlanAlsoRetriesOnce) {
  SoftDb db;
  MakeTable(db, 50);
  AddOffsetSc(db, ScMaintenancePolicy::kTolerate);
  const std::string query = "SELECT * FROM t WHERE y = 30";
  const std::string expected = Run(db, query).rows.ToString();

  FP().Enable("exec.drain", Always());
  FP().SetAction("exec.drain", [&db] {
    db.scs().Find("win")->set_state(ScState::kViolated);
    FP().Disable("exec.drain");
  });
  auto r = db.Execute(query);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->from_plan_cache);
  EXPECT_EQ(r->exec_stats.degraded_retries, 1u);
  EXPECT_TRUE(r->used_backup_plan);
  EXPECT_EQ(r->rows.ToString(), expected);
}

TEST_F(RobustnessTest, FreshAndCachedRunsReportTheSamePackage) {
  const std::string query = "SELECT * FROM t WHERE y = 30";
  const auto overturn_mid_run = [](SoftDb& db) {
    FP().Enable("exec.drain", Always());
    FP().SetAction("exec.drain", [&db] {
      db.scs().Find("win")->set_state(ScState::kViolated);
      FP().Disable("exec.drain");
    });
  };

  // Clean: a hit re-proves the same certificates and reports the same
  // applied rules as the run that built the package.
  SoftDb clean;
  MakeTable(clean, 50);
  AddOffsetSc(clean, ScMaintenancePolicy::kTolerate);
  const QueryResult built = Run(clean, query);
  const QueryResult hit = Run(clean, query);
  ASSERT_TRUE(hit.from_plan_cache);
  EXPECT_FALSE(built.applied_rules.empty());
  EXPECT_EQ(hit.applied_rules, built.applied_rules);
  EXPECT_GT(built.exec_stats.certificates_checked, 0u);
  EXPECT_EQ(hit.exec_stats.certificates_checked,
            built.exec_stats.certificates_checked);

  // Degraded: the same holds when the consumed ASC is overturned mid-run,
  // whether the package was just built or came from the cache.
  SoftDb fresh_db;
  MakeTable(fresh_db, 50);
  AddOffsetSc(fresh_db, ScMaintenancePolicy::kTolerate);
  overturn_mid_run(fresh_db);
  const QueryResult fresh_retry = Run(fresh_db, query);

  SoftDb cached_db;
  MakeTable(cached_db, 50);
  AddOffsetSc(cached_db, ScMaintenancePolicy::kTolerate);
  Run(cached_db, query);
  overturn_mid_run(cached_db);
  const QueryResult cached_retry = Run(cached_db, query);

  ASSERT_FALSE(fresh_retry.from_plan_cache);
  ASSERT_TRUE(cached_retry.from_plan_cache);
  for (const QueryResult* r : {&fresh_retry, &cached_retry}) {
    EXPECT_EQ(r->exec_stats.degraded_retries, 1u);
    EXPECT_TRUE(r->used_backup_plan);
    EXPECT_EQ(r->rows.ToString(), built.rows.ToString());
    EXPECT_EQ(r->applied_rules, built.applied_rules);
    EXPECT_EQ(r->exec_stats.certificates_checked,
              built.exec_stats.certificates_checked);
  }
}

TEST_F(RobustnessTest, EstimationOnlyTwinNeverRetries) {
  SoftDb db;
  MakeTable(db, 50);
  AddOffsetSc(db, ScMaintenancePolicy::kTolerate);
  // Demote to SSC: confidence < 1 keeps the SC out of rewrite (twinning /
  // estimation only), so a mid-query epoch bump must NOT trigger a retry —
  // estimates don't affect correctness.
  db.scs().Find("win")->set_confidence(0.8);
  FP().Enable("exec.drain", Always());
  FP().SetAction("exec.drain", [&db] {
    db.scs().Find("win")->BumpEpoch();
    FP().Disable("exec.drain");
  });
  auto r = db.Execute("SELECT * FROM t WHERE y = 30");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->exec_stats.degraded_retries, 0u);
  EXPECT_FALSE(r->used_backup_plan);
}

// ------------------------------------------- repair retries and quarantine

TEST_F(RobustnessTest, RepairFailureRequeuesWithBackoffThenQuarantines) {
  SoftDb db;
  MakeTable(db, 50);
  AddOffsetSc(db, ScMaintenancePolicy::kAsyncRepair);
  RepairPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff = std::chrono::milliseconds(200);
  policy.max_backoff = std::chrono::milliseconds(400);
  db.scs().SetRepairPolicy(policy);
  FP().Enable("sc.repair_full", Always());

  // Violating insert queues the (doomed) repair.
  ASSERT_TRUE(db.InsertRow("t", {Value::Int64(100), Value::Int64(500)}).ok());
  ASSERT_EQ(db.scs().Find("win")->state(), ScState::kRepairQueued);
  ASSERT_EQ(db.scs().repair_queue_size(), 1u);

  // Attempt 1 fails and re-queues with backoff; a backoff-respecting step
  // right after finds nothing due.
  ASSERT_TRUE(db.RunMaintenance().ok());
  EXPECT_EQ(db.scs().Find("win")->state(), ScState::kRepairQueued);
  EXPECT_EQ(db.scs().stats().repair_failures.load(), 1u);
  ASSERT_TRUE(db.scs().NextRepairDue().has_value());
  EXPECT_EQ(db.scs().RepairStep(db.catalog(), /*respect_backoff=*/true),
            RepairStepResult::kIdle);

  // Attempts 2 and 3 (RunMaintenance ignores backoff); the third exhausts
  // the budget and quarantines.
  ASSERT_TRUE(db.RunMaintenance().ok());
  EXPECT_EQ(db.scs().Find("win")->state(), ScState::kRepairQueued);
  ASSERT_TRUE(db.RunMaintenance().ok());
  EXPECT_EQ(db.scs().Find("win")->state(), ScState::kQuarantined);
  EXPECT_EQ(db.scs().repair_queue_size(), 0u);
  EXPECT_EQ(db.scs().stats().repair_failures.load(), 3u);
  EXPECT_EQ(db.scs().stats().quarantined.load(), 1u);

  // The audit trail records the whole arc in order.
  const auto audit = db.scs().repair_audit();
  ASSERT_EQ(audit.size(), 3u);
  EXPECT_EQ(audit[0].action, "requeued");
  EXPECT_EQ(audit[0].attempts, 1u);
  EXPECT_FALSE(audit[0].last_error.empty());
  EXPECT_EQ(audit[1].action, "requeued");
  EXPECT_EQ(audit[1].attempts, 2u);
  EXPECT_EQ(audit[2].action, "quarantined");
  EXPECT_EQ(audit[2].attempts, 3u);
  EXPECT_EQ(audit[2].sc_name, "win");

  // Quarantine is sticky: periodic verification does not resurrect, and
  // the optimizer no longer consumes the SC.
  ASSERT_TRUE(db.scs().VerifyAll(db.catalog()).ok());
  EXPECT_EQ(db.scs().Find("win")->state(), ScState::kQuarantined);
  FP().DisableAll();
  auto r = Run(db, "SELECT * FROM t WHERE y = 31");
  EXPECT_TRUE(r.used_scs.empty());
}

TEST_F(RobustnessTest, ResurrectedScReusesTicketWithoutDoubleCount) {
  SoftDb db;
  MakeTable(db, 50);
  AddOffsetSc(db, ScMaintenancePolicy::kAsyncRepair);

  // First violation queues one ticket.
  ASSERT_TRUE(db.InsertRow("t", {Value::Int64(100), Value::Int64(500)}).ok());
  EXPECT_EQ(db.scs().stats().async_enqueued.load(), 1u);
  EXPECT_EQ(db.scs().repair_queue_size(), 1u);

  // Delete the violator and re-verify: the SC resurrects while its ticket
  // is still queued.
  ASSERT_TRUE(db.Execute("DELETE FROM t WHERE x = 100").ok());
  ASSERT_TRUE(db.scs().VerifyAll(db.catalog()).ok());
  ASSERT_EQ(db.scs().Find("win")->state(), ScState::kActive);
  EXPECT_EQ(db.scs().repair_queue_size(), 1u);

  // A second violation must not enqueue a duplicate ticket (the seed's
  // double-enqueue bug counted and queued this twice).
  ASSERT_TRUE(db.InsertRow("t", {Value::Int64(200), Value::Int64(900)}).ok());
  EXPECT_EQ(db.scs().Find("win")->state(), ScState::kRepairQueued);
  EXPECT_EQ(db.scs().stats().async_enqueued.load(), 1u);
  EXPECT_EQ(db.scs().repair_queue_size(), 1u);

  // One drain repairs it once.
  ASSERT_TRUE(db.RunMaintenance().ok());
  EXPECT_EQ(db.scs().Find("win")->state(), ScState::kActive);
  EXPECT_EQ(db.scs().repair_queue_size(), 0u);
  EXPECT_EQ(db.scs().stats().async_repairs.load(), 1u);
}

TEST_F(RobustnessTest, StaleTicketForDroppedScIsDiscarded) {
  SoftDb db;
  MakeTable(db, 50);
  AddOffsetSc(db, ScMaintenancePolicy::kAsyncRepair);
  ASSERT_TRUE(db.InsertRow("t", {Value::Int64(100), Value::Int64(500)}).ok());
  ASSERT_EQ(db.scs().repair_queue_size(), 1u);
  ASSERT_TRUE(db.scs().Drop("win").ok());
  ASSERT_TRUE(db.RunMaintenance().ok());
  EXPECT_EQ(db.scs().repair_queue_size(), 0u);
  EXPECT_EQ(db.scs().stats().async_repairs.load(), 0u);
}

// ------------------------------------------------- background repair worker

TEST_F(RobustnessTest, WorkerRepairsViolatedScAndRearmsCachedPlans) {
  EngineOptions options;
  options.enable_repair_worker = true;
  SoftDb db(options);
  ASSERT_NE(db.repair_worker(), nullptr);
  ASSERT_TRUE(db.repair_worker()->running());

  MakeTable(db, 50);
  AddOffsetSc(db, ScMaintenancePolicy::kAsyncRepair);
  const std::string query = "SELECT * FROM t WHERE y = 30";
  auto first = Run(db, query);
  ASSERT_EQ(first.used_scs.size(), 1u);

  // The violating insert queues a repair; the worker heals it in the
  // background within its poll cadence.
  ASSERT_TRUE(db.InsertRow("t", {Value::Int64(100), Value::Int64(500)}).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (db.scs().Find("win")->state() != ScState::kActive &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(db.scs().Find("win")->state(), ScState::kActive);
  EXPECT_GE(db.repair_worker()->steps(), 1u);

  // The worker's re-arm callback restored the cached package's primary.
  auto healed = Run(db, query);
  EXPECT_TRUE(healed.from_plan_cache);
  EXPECT_FALSE(healed.used_backup_plan);
  db.StopRepairWorker();
  EXPECT_FALSE(db.repair_worker()->running());
}

TEST_F(RobustnessTest, WorkerQuarantinesPoisonScWithinBudget) {
  SoftDb db;
  MakeTable(db, 50);
  AddOffsetSc(db, ScMaintenancePolicy::kAsyncRepair);
  RepairPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff = std::chrono::milliseconds(1);
  policy.max_backoff = std::chrono::milliseconds(2);
  db.scs().SetRepairPolicy(policy);
  FP().Enable("sc.repair_full", Always());

  ASSERT_TRUE(db.InsertRow("t", {Value::Int64(100), Value::Int64(500)}).ok());
  RepairWorker::Options worker_options;
  worker_options.poll_interval = std::chrono::milliseconds(1);
  db.StartRepairWorker(worker_options);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (db.scs().Find("win")->state() != ScState::kQuarantined &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  db.StopRepairWorker();
  EXPECT_EQ(db.scs().Find("win")->state(), ScState::kQuarantined);
  EXPECT_EQ(db.scs().stats().quarantined.load(), 1u);
  EXPECT_EQ(db.scs().stats().repair_failures.load(), 3u);
  EXPECT_EQ(db.scs().repair_queue_size(), 0u);
  const auto audit = db.scs().repair_audit();
  ASSERT_FALSE(audit.empty());
  EXPECT_EQ(audit.back().action, "quarantined");
}

// ------------------------------------------------------ differential round

TEST_F(RobustnessTest, DisarmedFrameworkIsBitIdenticalToSeedBehavior) {
  // Two engines, same data and SCs; one session armed and then disarmed
  // failpoints, the other never touched them. Every query must render
  // bit-identical rows with identical plan provenance.
  const std::vector<std::string> queries = {
      "SELECT * FROM t WHERE y = 30",
      "SELECT * FROM t WHERE y BETWEEN 10 AND 20",
      "SELECT x FROM t WHERE y > 40 ORDER BY x",
      "SELECT COUNT(*) FROM t",
      "SELECT * FROM t WHERE x = 7",
  };
  SoftDb touched;
  MakeTable(touched, 60);
  AddOffsetSc(touched, ScMaintenancePolicy::kAsyncRepair);
  FP().Enable("exec.batch_scan", Always());
  FP().DisableAll();  // Armed and disarmed: must leave zero residue.

  SoftDb pristine;
  MakeTable(pristine, 60);
  AddOffsetSc(pristine, ScMaintenancePolicy::kAsyncRepair);

  for (const std::string& sql : queries) {
    auto a = Run(touched, sql);
    auto b = Run(pristine, sql);
    EXPECT_EQ(a.rows.ToString(), b.rows.ToString()) << sql;
    EXPECT_EQ(a.used_scs, b.used_scs) << sql;
    EXPECT_EQ(a.used_backup_plan, b.used_backup_plan) << sql;
    EXPECT_EQ(a.exec_stats.degraded_retries, 0u) << sql;
    EXPECT_EQ(b.exec_stats.degraded_retries, 0u) << sql;
  }
}

}  // namespace
}  // namespace softdb
