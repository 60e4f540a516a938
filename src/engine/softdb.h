#ifndef SOFTDB_ENGINE_SOFTDB_H_
#define SOFTDB_ENGINE_SOFTDB_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/query_context.h"
#include "constraints/ic_registry.h"
#include "constraints/repair_worker.h"
#include "constraints/sc_registry.h"
#include "exec/operator.h"
#include "mv/materialized_view.h"
#include "optimizer/cardinality.h"
#include "optimizer/optimizer_context.h"
#include "optimizer/plan_cache.h"
#include "sql/statement.h"
#include "stats/analyzer.h"
#include "storage/catalog.h"

namespace softdb {

struct DmlImpact;
class DurabilityManager;
struct WalStats;

/// Engine-level configuration: optimizer rule switches (defaults match the
/// full soft-constraint pipeline) and execution knobs.
struct EngineOptions {
  bool use_plan_cache = true;
  bool enable_predicate_introduction = true;
  bool enable_twinning = true;
  bool enable_join_elimination = true;
  bool enable_fd_pruning = true;
  bool enable_hole_trimming = true;
  bool enable_domain_rules = true;
  bool enable_unionall_pruning = true;
  bool enable_exception_asts = true;
  /// Rewrite-time symbolic implication: prune predicates the SC/CHECK fact
  /// base proves redundant, and fold provably-empty scans.
  bool enable_implication = true;
  /// Static DML impact analysis: scope synchronous SC maintenance to the
  /// statically-impacted subset of the catalog.
  bool enable_impact_analysis = true;
  bool use_twins_in_estimation = true;
  /// Consult armed kBlockZoneMap SCs at physical-planning time: scans get
  /// per-block skip sets for blocks whose min/max/null-count envelope
  /// provably contradicts the predicates. A mid-query widening degrades the
  /// query once to its SC-free backup plan, lowered without zone maps (see
  /// RunGuarded).
  bool enable_zone_maps = true;
  /// Evaluate batch comparison filters through the branch-free SIMD
  /// kernels (exec/kernels.h) where types permit; OFF forces the scalar
  /// expression path everywhere. Results are bit-identical either way.
  bool use_kernels = true;
  bool enable_runtime_parameterization = true;
  /// Run PlanVerifier after every bind/rewrite/planning phase. Debug
  /// builds verify regardless of this flag (see ShouldVerifyPlans).
  bool verify_plans = true;
  /// Re-validate every SC-driven rewrite's certificate with the
  /// independent CertificateChecker after planning (DESIGN.md §13). Debug
  /// builds certify regardless (see ShouldCertifyPlans) and fail the query
  /// on an invalid certificate; release builds count verdicts in
  /// ExecStats::certificates_{checked,failed}.
  bool certify_plans = true;
  /// Morsel-driven parallel execution (DESIGN.md §8): with more than one
  /// thread, parallel-safe subtrees run on a work-stealing
  /// worker pool, with results merged in morsel order so output and
  /// ExecStats stay bit-identical to serial execution. 1 = serial.
  /// Must not change while queries are in flight.
  std::size_t num_threads = 1;
  /// Slot-range size of one parallel scan morsel. Tests shrink this to
  /// exercise many-morsel schedules on small tables.
  std::size_t parallel_morsel_rows = 4096;
  /// Per-query wall-clock budget applied to Execute(sql) calls that do not
  /// bring their own QueryContext. 0 = no deadline. Exceeding it surfaces
  /// Status::DeadlineExceeded, checked cooperatively at batch/morsel
  /// granularity (row operators check on a stride).
  std::uint64_t default_deadline_ms = 0;
  /// Fail a statement that arrives with an already-expired deadline with
  /// kDeadlineExceeded (detail: deadline_lag_ms) before parsing or
  /// touching the WAL, instead of relying on the first cooperative check.
  /// The server's Dispatcher enforces the same rule at admission; this is
  /// the engine's defensive copy for direct Execute callers.
  bool reject_expired_deadlines = true;
  /// Start the background self-healing repair worker at construction: a
  /// dedicated thread that drains the SC async-repair queue with
  /// exponential backoff, quarantines poison SCs after the attempt budget,
  /// and re-arms cached plans when a repair lands.
  bool enable_repair_worker = false;
  /// Durability (DESIGN.md §14). Empty = in-memory only (the default).
  /// Non-empty: open a binary write-ahead log in this directory at
  /// construction. The directory must not already hold a log or checkpoint
  /// — recover an existing one with SoftDb::Recover instead.
  std::string wal_dir;
  /// Group commit: fsync the log once every N appended records (1 = every
  /// record). Larger N trades durability of the unsynced tail for
  /// throughput; recovery's torn-tail handling covers the gap.
  std::size_t wal_sync_every_n = 1;
};

/// Aggregate counters for the static DML impact analyzer (E7 companion to
/// ScMaintenanceStats: maintenance proportional to impact, not catalog
/// size).
/// Counters are atomic: concurrent sessions' DML statements aggregate
/// into one instance (plain ints raced; see DESIGN.md §8).
struct ImpactAnalysisStats {
  std::atomic<std::uint64_t> statements{0};     // DML statements analyzed.
  std::atomic<std::uint64_t> narrowed{0};       // Impact set < full catalog.
  std::atomic<std::uint64_t> candidate_scs{0};  // Sum of catalog sizes seen.
  std::atomic<std::uint64_t> impacted_scs{0};   // Sum of impact-set sizes.
};

/// Result of one executed statement.
struct QueryResult {
  RowSet rows;
  ExecStats exec_stats;
  std::vector<std::string> applied_rules;
  std::vector<std::string> used_scs;
  double estimated_rows = 0.0;   // Optimizer's estimate for the root.
  double estimated_cost = 0.0;   // Plan cost in simulated pages.
  std::string plan_text;
  bool from_plan_cache = false;
  bool used_backup_plan = false;
  // Served statements only: 1-based order in which the server's workers
  // dequeued it (0 when executed directly on SoftDb).
  std::uint64_t dequeue_seq = 0;
};

/// The top-level engine: catalog + statistics + integrity and soft
/// constraint registries + AST facility + optimizer + executor, wired the
/// way the paper's DB2 prototype wires them (SCs feed rewrite and
/// estimation; violations invalidate cached packages which flip to their
/// ASC-free backup plans).
class SoftDb {
 public:
  explicit SoftDb(EngineOptions options = {});
  ~SoftDb();  // Out-of-line: TaskScheduler is only forward-declared here.

  // Component access (tests, benches and examples drive these directly).
  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  StatsCatalog& stats() { return stats_; }
  IcRegistry& ics() { return ics_; }
  ScRegistry& scs() { return scs_; }
  MvRegistry& mvs() { return mvs_; }
  PlanCache& plan_cache() { return plan_cache_; }
  EngineOptions& options() { return options_; }

  /// Parses and executes one SQL statement. When
  /// EngineOptions::default_deadline_ms is set, a deadline of that budget
  /// is armed for this statement.
  Result<QueryResult> Execute(const std::string& sql);

  /// Executes one SQL statement under the caller's cancellation token and
  /// deadline. `query` may be null (no interrupt checks); when non-null it
  /// overrides default_deadline_ms and must outlive the call. Interruption
  /// surfaces as Status::Cancelled / Status::DeadlineExceeded.
  Result<QueryResult> Execute(const std::string& sql,
                              const QueryContext* query);

  /// EXPLAIN: optimizes without executing; returns the annotated plan.
  Result<std::string> Explain(const std::string& sql);

  /// Inserts one row through the full pipeline: IC checks, append, index
  /// maintenance, SC maintenance (§3.2/§4.3), AST maintenance. When
  /// `sc_scope` is non-null, synchronous SC maintenance is restricted to
  /// the named SCs (a sound impact set from the static analyzer).
  Status InsertRow(const std::string& table, const std::vector<Value>& values,
                   const std::set<std::string>* sc_scope = nullptr);

  const ImpactAnalysisStats& impact_stats() const { return impact_stats_; }

  /// Registers an exception AST for a soft constraint (§4.4): creates a
  /// materialized view over the rows *violating* `sc_name` (which must be a
  /// PredicateSc or ColumnOffsetSc) and wires it into the optimizer.
  Result<MaterializedView*> CreateExceptionAst(const std::string& sc_name);

  /// Runs ANALYZE over one table or all tables.
  Status Analyze(const std::string& table = "");

  /// Mines one kBlockZoneMap SC per numeric column of `table` (named
  /// "zm_<table>_<col>") and registers them armed. Existing zone maps on
  /// the table are left alone; call again after bulk loads to re-tighten
  /// via RunMaintenance/RepairFull instead.
  Status MineZoneMaps(const std::string& table);

  /// Drains the SC async repair queue and re-arms cached plans whose SCs
  /// are active again.
  Status RunMaintenance();

  /// Starts the background repair worker (idempotent). The worker drains
  /// the repair queue with per-ticket exponential backoff, quarantines SCs
  /// that exhaust RepairPolicy::max_attempts, and re-arms cached plans
  /// after each successful repair.
  void StartRepairWorker(
      RepairWorker::Options worker_options = RepairWorker::Options());
  /// Stops and joins the repair worker; no-op when not running. Called by
  /// the destructor.
  void StopRepairWorker();
  /// The running worker, or null. Tests poll steps() on it.
  RepairWorker* repair_worker() { return repair_worker_.get(); }

  /// Builds the OptimizerContext for the current options (benches use this
  /// to drive the planner directly).
  OptimizerContext MakeContext();
  /// Estimator matching the current options.
  CardinalityEstimator MakeEstimator() const;

  /// The engine's worker pool, created lazily to match
  /// options().num_threads; null when num_threads <= 1. Do not change
  /// num_threads while queries are executing: resizing replaces the pool.
  TaskScheduler* scheduler();

  /// The WAL + checkpoint manager, or null when wal_dir is empty (or the
  /// log failed to open — see WalReady).
  DurabilityManager* wal() { return wal_.get(); }

  /// Snapshots the full engine state — catalog (tables, tombstones,
  /// versions, indexes), ICs, statistics, SCs (lifecycle, epochs, zone-map
  /// SMAs, envelopes, holes), repair queue/audit, use accounting, and
  /// exception-AST registrations — to <wal_dir>/checkpoint.bin and
  /// truncates the log (protocol in storage/recovery.h). Defined in
  /// storage/recovery.cc.
  Status Checkpoint();

  /// Rebuilds an engine from a WAL directory: loads the checkpoint if one
  /// exists, replays the log tail (torn-tail tolerant), disarms every SC
  /// whose last durable arm lacks its commit record (re-enqueued for
  /// revalidation, never trusted), bumps every SC epoch past its durable
  /// value so recovered epochs strictly dominate pre-crash plan stamps,
  /// and re-checkpoints. `options.wal_dir` is overwritten with `dir`.
  /// Defined in storage/recovery.cc.
  static Result<std::unique_ptr<SoftDb>> Recover(const std::string& dir,
                                                 EngineOptions options = {});

 private:
  using ScEpochSnapshot = std::vector<std::pair<std::string, std::uint64_t>>;

  /// Statement dispatch proper; Execute wraps it with the WAL health gate
  /// and per-statement WAL stats attribution.
  Result<QueryResult> Dispatch(const std::string& sql,
                               const QueryContext* query);
  /// Every SELECT and EXPLAIN: fetch or build the package, then run it
  /// through RunGuarded (EXPLAIN only estimates the primary).
  Result<QueryResult> ExecuteSelect(const std::string& sql,
                                    const SelectStmt& stmt, bool explain_only,
                                    const QueryContext* query);
  /// Binds, verifies, rewrites with and without SCs, fully certifies both
  /// certificate sets (into `certs`) and stamps the consumed SCs' epochs.
  /// With `cache` set the package is inserted into the plan cache.
  Result<std::shared_ptr<CachedPlan>> BuildPackage(
      const std::string& sql, const SelectStmt& stmt, bool cache,
      ExecStats* certs);
  /// The §4.1 package run: the primary (or the backup when the package is
  /// flipped or stale) under one epoch guard, degrading at most once to the
  /// SC-free backup lowered without zone maps.
  Result<QueryResult> RunGuarded(const CachedPlan& pkg, QueryResult result,
                                 const QueryContext* query);
  /// Lowers `plan` (zone maps only when `zone_maps`), certifies what
  /// physical planning emitted, appends the SCs it consumed to `guard`
  /// (when non-null), and executes into `result`.
  Status RunPlan(const PlanNode& plan, bool zone_maps, ScEpochSnapshot* guard,
                 QueryResult* result, const QueryContext* query);
  /// Current epochs of the named (rewrite-consumed) SCs, deduplicated.
  ScEpochSnapshot SnapshotScEpochs(const std::vector<std::string>& names);

  /// Re-validates rewrite certificates with the independent checker
  /// (DESIGN.md §13), counting verdicts into `stats`. kStale verdicts are
  /// counted as checked only — the epoch-guarded retry machinery owns
  /// re-derivation. kInvalid means the rewriter proved something false:
  /// counted as failed, and a hard Internal error in debug builds.
  /// When `epoch_fast_path` is set (cache-hit re-validation), a
  /// certificate whose every premise SC epoch is unchanged since the full
  /// build-time check skips re-derivation: epoch-guarded SC state cannot
  /// have drifted, so the plan-time verdict still holds. Epoch drift falls
  /// back to the full check.
  Status CertifyCertificates(const std::vector<RewriteCertificate>& certs,
                             ExecStats* stats,
                             bool epoch_fast_path = false);
  /// True when any snapshotted SC has been dropped or had its epoch bumped
  /// (invalidation, repair, or parameter widening) since the snapshot.
  bool ScEpochsChanged(const ScEpochSnapshot& snapshot);
  /// Re-arms cached packages whose every used SC is active again.
  void RearmActivePlans();
  Status ExecuteInsert(const InsertStmt& stmt);
  Result<std::uint64_t> ExecuteUpdate(const UpdateStmt& stmt);
  Result<std::uint64_t> ExecuteDelete(const DeleteStmt& stmt);
  Status ExecuteCreateTable(const CreateTableStmt& stmt);
  void RecordImpact(const DmlImpact& impact);
  /// One row of an UPDATE: the full maintenance pipeline around replacing
  /// `old_row` with `new_row` at `rid` (IC bookkeeping, index + cell
  /// updates, SC folds, AST maintenance). Shared by ExecuteUpdate and WAL
  /// replay so both derive identical SC state.
  Status ApplyUpdateRow(Table* table, RowId rid,
                        const std::vector<Value>& old_row,
                        const std::vector<Value>& new_row,
                        const std::set<std::string>* sc_scope);
  /// One row of a DELETE (tombstone + index/IC/AST maintenance).
  Status ApplyDeleteRow(Table* table, RowId rid,
                        const std::vector<Value>& old_row);
  /// OK when the engine has no WAL or a healthy one; the stored open error
  /// otherwise (a wal_dir holding an existing log requires Recover).
  Status WalReady() const { return wal_error_; }

  EngineOptions options_;
  Catalog catalog_;
  StatsCatalog stats_;
  IcRegistry ics_;
  ScRegistry scs_;
  MvRegistry mvs_;
  PlanCache plan_cache_;
  ImpactAnalysisStats impact_stats_;
  std::uint64_t ic_name_counter_ = 0;
  std::map<std::string, std::string> exception_asts_;
  std::mutex scheduler_mu_;  // Guards lazy creation/resize of scheduler_.
  // Serializes writing statements (Dispatch) and Checkpoint: one writer.
  std::mutex write_mu_;
  std::unique_ptr<TaskScheduler> scheduler_;
  std::unique_ptr<RepairWorker> repair_worker_;
  std::unique_ptr<DurabilityManager> wal_;
  Status wal_error_;        // Deferred wal_dir open failure (see WalReady).
  bool recovering_ = false;  // Replay in progress: suppress WAL appends.

  friend class DurabilityManager;
};

}  // namespace softdb

#endif  // SOFTDB_ENGINE_SOFTDB_H_
