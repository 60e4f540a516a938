#include "replay.h"

#include <algorithm>

#include "analysis/certificate.h"
#include "analysis/impact.h"
#include "analysis/invariants.h"
#include "analysis/plan_verifier.h"
#include "optimizer/planner.h"
#include "optimizer/rewriter.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "stats.h"
#include "storage/recovery.h"

namespace softbench {

using softdb::CachedPlan;
using softdb::ExecStats;
using softdb::OptimizerContext;
using softdb::PlanPtr;
using softdb::QueryResult;
using softdb::Result;
using softdb::Status;
using softdb::Value;

Result<QueryResult> Replay::Execute(const std::string& sql,
                                    std::uint64_t stmt_id) {
  ScopedSpan root(tracer_, SpanName::kStatement, stmt_id);
  softdb::Statement stmt;
  {
    ScopedSpan span(tracer_, SpanName::kParse);
    SOFTDB_ASSIGN_OR_RETURN(stmt, softdb::ParseStatement(sql));
  }
  switch (stmt.kind) {
    case softdb::Statement::Kind::kSelect:
      return Select(sql, *stmt.select);
    case softdb::Statement::Kind::kInsert:
      SOFTDB_RETURN_IF_ERROR(Insert(*stmt.insert));
      return QueryResult{};
    default:
      return Status::InvalidArgument("replay covers SELECT and INSERT only");
  }
}

void Replay::Certify(const std::vector<softdb::RewriteCertificate>& certs,
                     ExecStats* stats, bool epoch_fast_path) {
  if (certs.empty() || !softdb::ShouldCertifyPlans(db_->options().certify_plans)) {
    return;
  }
  const softdb::CertificateChecker checker(&db_->catalog(), &db_->ics(),
                                           &db_->scs());
  for (const softdb::RewriteCertificate& cert : certs) {
    ++stats->certificates_checked;
    if (epoch_fast_path && checker.EpochsCurrent(cert)) continue;
    if (checker.Check(cert).verdict == softdb::CertificateVerdict::kInvalid) {
      ++stats->certificates_failed;
    }
  }
}

Replay::EpochSnapshot Replay::Snapshot(
    const std::vector<std::string>& names) const {
  EpochSnapshot snapshot;
  for (const std::string& name : names) {
    const auto seen = [&](const auto& entry) { return entry.first == name; };
    if (std::any_of(snapshot.begin(), snapshot.end(), seen)) continue;
    if (const softdb::SoftConstraint* sc = db_->scs().Find(name)) {
      snapshot.emplace_back(name, sc->epoch());
    }
  }
  return snapshot;
}

bool Replay::EpochsChanged(const EpochSnapshot& snapshot) const {
  for (const auto& [name, epoch] : snapshot) {
    const softdb::SoftConstraint* sc = db_->scs().Find(name);
    if (sc == nullptr || sc->epoch() != epoch) return true;
  }
  return false;
}

Result<QueryResult> Replay::RunPlan(const softdb::PlanNode& plan,
                                    QueryResult result) {
  OptimizerContext ctx = db_->MakeContext();
  softdb::CardinalityEstimator estimator = db_->MakeEstimator();
  softdb::PhysicalPlanner planner(&ctx, &estimator);
  {
    ScopedSpan span(tracer_, SpanName::kEstimate);
    result.estimated_rows = estimator.EstimateRows(plan);
    result.estimated_cost = planner.EstimateCost(plan);
    result.plan_text = plan.ToString();
  }
  softdb::OperatorPtr root;
  {
    ScopedSpan span(tracer_, SpanName::kPhysicalPlan);
    SOFTDB_ASSIGN_OR_RETURN(root, planner.Plan(plan));
  }
  ExecStats cert_stats;
  EpochSnapshot zm_epochs;
  {
    ScopedSpan span(tracer_, SpanName::kCertify);
    Certify(ctx.certificates, &cert_stats, /*epoch_fast_path=*/false);
    zm_epochs = Snapshot(ctx.rewrite_consumed_scs);
  }
  softdb::ExecContext exec_ctx;
  exec_ctx.scheduler = db_->scheduler();
  exec_ctx.use_kernels = db_->options().use_kernels;
  {
    ScopedSpan span(tracer_, SpanName::kExec);
    SOFTDB_ASSIGN_OR_RETURN(result.rows,
                            softdb::ExecuteToCompletion(root.get(), &exec_ctx));
  }
  result.exec_stats = exec_ctx.stats;
  if (!zm_epochs.empty() && EpochsChanged(zm_epochs)) {
    // A zone map consumed at planning time widened mid-query: re-plan
    // without zone maps once, as the engine does.
    OptimizerContext retry_ctx = db_->MakeContext();
    retry_ctx.enable_zone_maps = false;
    softdb::PhysicalPlanner retry_planner(&retry_ctx, &estimator);
    {
      ScopedSpan span(tracer_, SpanName::kPhysicalPlan);
      SOFTDB_ASSIGN_OR_RETURN(root, retry_planner.Plan(plan));
    }
    cert_stats = ExecStats{};
    {
      ScopedSpan span(tracer_, SpanName::kCertify);
      Certify(retry_ctx.certificates, &cert_stats, false);
    }
    softdb::ExecContext retry_exec;
    retry_exec.scheduler = db_->scheduler();
    retry_exec.use_kernels = db_->options().use_kernels;
    {
      ScopedSpan span(tracer_, SpanName::kExec);
      SOFTDB_ASSIGN_OR_RETURN(
          result.rows, softdb::ExecuteToCompletion(root.get(), &retry_exec));
    }
    result.exec_stats = retry_exec.stats;
    result.exec_stats.degraded_retries = 1;
  }
  result.exec_stats.certificates_checked += cert_stats.certificates_checked;
  result.exec_stats.certificates_failed += cert_stats.certificates_failed;
  return result;
}

Result<QueryResult> Replay::Select(const std::string& sql,
                                   const softdb::SelectStmt& stmt) {
  ++counters_.selects;
  const auto finish = [&](QueryResult r) -> Result<QueryResult> {
    counters_.exec.Accumulate(r.exec_stats);
    counters_.q_errors.push_back(
        QError(r.estimated_rows, static_cast<double>(r.rows.NumRows())));
    return r;
  };

  std::shared_ptr<CachedPlan> cached;
  if (db_->options().use_plan_cache) {
    ScopedSpan span(tracer_, SpanName::kCacheLookup);
    cached = db_->plan_cache().Get(sql);
    ++counters_.cache_lookups;
  }
  if (cached != nullptr) {
    ++counters_.cache_hits;
    ++cached->executions;
    QueryResult result;
    result.from_plan_cache = true;
    result.used_scs = cached->used_scs;
    ExecStats hit_cert_stats;
    EpochSnapshot pre_run;
    bool use_backup = false;
    {
      ScopedSpan span(tracer_, SpanName::kCertify);
      const EpochSnapshot baseline = db_->plan_cache().ScEpochs(*cached);
      use_backup = cached->using_backup.load(std::memory_order_acquire) ||
                   EpochsChanged(baseline);
      Certify(cached->certificates, &hit_cert_stats, true);
      Certify(cached->backup_certificates, &hit_cert_stats, true);
      for (const auto& [name, epoch] : baseline) {
        if (const softdb::SoftConstraint* sc = db_->scs().Find(name)) {
          pre_run.emplace_back(name, sc->epoch());
        }
      }
    }
    result.used_backup_plan = use_backup;
    const softdb::PlanNode& plan = use_backup ? *cached->backup
                                              : *cached->primary;
    SOFTDB_ASSIGN_OR_RETURN(QueryResult run, RunPlan(plan, std::move(result)));
    if (use_backup || !EpochsChanged(pre_run)) {
      run.exec_stats.certificates_checked += hit_cert_stats.certificates_checked;
      run.exec_stats.certificates_failed += hit_cert_stats.certificates_failed;
      return finish(std::move(run));
    }
    QueryResult retry;
    retry.from_plan_cache = true;
    retry.used_scs = cached->used_scs;
    retry.used_backup_plan = true;
    {
      ScopedSpan span(tracer_, SpanName::kCertify);
      Certify(cached->backup_certificates, &hit_cert_stats, false);
    }
    SOFTDB_ASSIGN_OR_RETURN(retry, RunPlan(*cached->backup, std::move(retry)));
    retry.exec_stats.degraded_retries = 1;
    retry.exec_stats.certificates_checked += hit_cert_stats.certificates_checked;
    retry.exec_stats.certificates_failed += hit_cert_stats.certificates_failed;
    return finish(std::move(retry));
  }

  PlanPtr bound;
  {
    ScopedSpan span(tracer_, SpanName::kBind);
    softdb::Binder binder(&db_->catalog());
    SOFTDB_ASSIGN_OR_RETURN(bound, binder.BindSelect(stmt));
  }
  OptimizerContext backup_ctx = db_->MakeContext();
  backup_ctx.scs = nullptr;
  backup_ctx.enable_exception_asts = false;
  OptimizerContext ctx = db_->MakeContext();
  if (softdb::ShouldVerifyPlans(db_->options().verify_plans)) {
    ScopedSpan span(tracer_, SpanName::kVerify);
    softdb::PlanVerifier verifier(
        {&db_->catalog(), &db_->mvs(), &ctx.exception_asts});
    SOFTDB_RETURN_IF_ERROR(verifier.VerifyLogical(*bound, "bind"));
  }
  PlanPtr backup;
  {
    ScopedSpan span(tracer_, SpanName::kRewriteBackup);
    softdb::Rewriter backup_rewriter(&backup_ctx);
    SOFTDB_ASSIGN_OR_RETURN(backup, backup_rewriter.Rewrite(bound->Clone()));
  }
  PlanPtr primary;
  {
    ScopedSpan span(tracer_, SpanName::kRewrite);
    softdb::Rewriter rewriter(&ctx);
    SOFTDB_ASSIGN_OR_RETURN(primary, rewriter.Rewrite(std::move(bound)));
  }
  ExecStats rewrite_cert_stats;
  {
    ScopedSpan span(tracer_, SpanName::kCertify);
    Certify(ctx.certificates, &rewrite_cert_stats, false);
    Certify(backup_ctx.certificates, &rewrite_cert_stats, false);
  }
  QueryResult result;
  result.applied_rules = ctx.applied_rules;
  std::vector<std::string> used = ctx.used_scs;
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  result.used_scs = used;
  const EpochSnapshot sc_epochs = Snapshot(ctx.rewrite_consumed_scs);
  if (db_->options().use_plan_cache) {
    ScopedSpan span(tracer_, SpanName::kCachePut);
    const auto clone_certs =
        [](const std::vector<softdb::RewriteCertificate>& certs) {
          std::vector<softdb::RewriteCertificate> copies;
          copies.reserve(certs.size());
          for (const softdb::RewriteCertificate& c : certs) {
            copies.push_back(c.Clone());
          }
          return copies;
        };
    db_->plan_cache().Put(sql, primary->Clone(), backup->Clone(), used,
                          sc_epochs, clone_certs(ctx.certificates),
                          clone_certs(backup_ctx.certificates));
  }
  SOFTDB_ASSIGN_OR_RETURN(QueryResult run, RunPlan(*primary, std::move(result)));
  if (!EpochsChanged(sc_epochs)) {
    run.exec_stats.certificates_checked +=
        rewrite_cert_stats.certificates_checked;
    run.exec_stats.certificates_failed += rewrite_cert_stats.certificates_failed;
    return finish(std::move(run));
  }
  {
    ScopedSpan span(tracer_, SpanName::kCertify);
    Certify(backup_ctx.certificates, &rewrite_cert_stats, false);
  }
  QueryResult retry;
  retry.applied_rules = run.applied_rules;
  retry.used_scs = run.used_scs;
  retry.used_backup_plan = true;
  SOFTDB_ASSIGN_OR_RETURN(retry, RunPlan(*backup, std::move(retry)));
  retry.exec_stats.degraded_retries = 1;
  retry.exec_stats.certificates_checked +=
      rewrite_cert_stats.certificates_checked;
  retry.exec_stats.certificates_failed += rewrite_cert_stats.certificates_failed;
  return finish(std::move(retry));
}

Status Replay::Insert(const softdb::InsertStmt& stmt) {
  std::set<std::string> scope_storage;
  const std::set<std::string>* scope = nullptr;
  if (db_->options().enable_impact_analysis) {
    ScopedSpan span(tracer_, SpanName::kImpact);
    softdb::ImpactAnalyzer analyzer(&db_->catalog(), &db_->ics(), &db_->scs());
    Result<softdb::DmlImpact> impact = analyzer.AnalyzeInsert(stmt);
    if (impact.ok()) {
      scope_storage = impact->ImpactSet();
      scope = &scope_storage;
    }
  }
  for (const std::vector<softdb::ExprPtr>& row_exprs : stmt.rows) {
    std::vector<Value> row;
    {
      ScopedSpan span(tracer_, SpanName::kValues);
      row.reserve(row_exprs.size());
      for (const softdb::ExprPtr& e : row_exprs) {
        SOFTDB_ASSIGN_OR_RETURN(Value v, e->Eval({}));
        row.push_back(std::move(v));
      }
    }
    SOFTDB_RETURN_IF_ERROR(InsertRow(stmt.table, row, scope));
  }
  return Status::OK();
}

Status Replay::InsertRow(const std::string& table_name,
                         const std::vector<Value>& values,
                         const std::set<std::string>* scope) {
  ++counters_.inserts;
  softdb::Table* table = nullptr;
  std::vector<Value> row = values;
  {
    ScopedSpan span(tracer_, SpanName::kValues);
    SOFTDB_ASSIGN_OR_RETURN(table, db_->catalog().GetTable(table_name));
    const softdb::Schema& schema = table->schema();
    if (row.size() != schema.NumColumns()) {
      return Status::InvalidArgument("insert into " + table_name +
                                     ": wrong number of values");
    }
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i].is_null() || row[i].type() == schema.Column(i).type) continue;
      if (row[i].type() != softdb::TypeId::kString &&
          schema.Column(i).type != softdb::TypeId::kString) {
        SOFTDB_ASSIGN_OR_RETURN(row[i], row[i].CastTo(schema.Column(i).type));
      }
    }
  }
  {
    ScopedSpan span(tracer_, SpanName::kIcCheck);
    SOFTDB_RETURN_IF_ERROR(
        db_->ics().CheckInsert(db_->catalog(), table->name(), row));
  }
  softdb::RowId rid = 0;
  {
    ScopedSpan span(tracer_, SpanName::kAppend);
    SOFTDB_ASSIGN_OR_RETURN(rid, table->Append(row));
    db_->catalog().NotifyInsert(table, rid);
  }
  {
    ScopedSpan span(tracer_, SpanName::kIcCheck);
    db_->ics().AfterInsert(table->name(), row);
  }
  {
    ScopedSpan span(tracer_, SpanName::kScMaintenance);
    SOFTDB_RETURN_IF_ERROR(
        db_->scs().OnInsert(db_->catalog(), table->name(), row, scope));
    SOFTDB_RETURN_IF_ERROR(
        db_->scs().OnRowAppended(db_->catalog(), table->name(), rid, row));
  }
  {
    ScopedSpan span(tracer_, SpanName::kExceptionAst);
    SOFTDB_RETURN_IF_ERROR(db_->mvs().OnBaseInsert(table->name(), row));
  }
  if (db_->wal() != nullptr) {
    ScopedSpan span(tracer_, SpanName::kWalAppend);
    SOFTDB_RETURN_IF_ERROR(db_->wal()->LogInsert(table->name(), row));
  }
  return Status::OK();
}

}  // namespace softbench
