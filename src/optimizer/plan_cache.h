#ifndef SOFTDB_OPTIMIZER_PLAN_CACHE_H_
#define SOFTDB_OPTIMIZER_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "analysis/certificate.h"
#include "plan/logical_plan.h"

namespace softdb {

/// A pre-compiled ("packaged") query plan. §4.1: a plan built on an ASC is
/// in jeopardy when the ASC is overturned; the mitigation implemented here
/// is the paper's backup-plan tactic — "a package incorporates a 'backup'
/// plan which is ASC-free; if an ASC is overturned, a flag is raised and
/// packages revert to the alternative plans."
///
/// The plan trees themselves are immutable after Put; `using_backup` and
/// `executions` are the only mutable fields and are atomic, so concurrent
/// sessions may execute a package while maintenance flips it (a session
/// that already resolved ActivePlan finishes on the plan it picked — both
/// plans stay valid answers; see DESIGN.md §8).
struct CachedPlan {
  std::string sql;
  PlanPtr primary;                    // Rewritten with SCs.
  PlanPtr backup;                     // SC-free.
  std::vector<std::string> used_scs;  // SC names baked into primary.
  /// Rewrite-consumed SCs with the epoch each had at package build time
  /// (estimation-only twins excluded — their overturn can never make the
  /// primary plan wrong). The engine compares these against the live
  /// epochs before every run and guards the primary's run with them,
  /// catching silent parameter changes (e.g. a synchronous repair that
  /// widened an SC without ever flipping `using_backup`). The epoch-aware
  /// Rearm re-stamps them, accepting the repaired SC as the package's new
  /// baseline. After Put, read and write only through PlanCache (guarded
  /// by the cache mutex).
  std::vector<std::pair<std::string, std::uint64_t>> sc_epochs;
  /// Rewrite certificates of each plan (DESIGN.md §13), re-checked on
  /// every cache hit before the plan runs: a hit long after Put must still
  /// prove its transformations against the live registries (epoch moves
  /// come back kStale and route through the staleness machinery above).
  /// Immutable after Put, like the plan trees.
  std::vector<RewriteCertificate> certificates;         // For `primary`.
  std::vector<RewriteCertificate> backup_certificates;  // For `backup`.
  std::vector<std::string> applied_rules;  // EXPLAIN annotations of `primary`.
  std::vector<std::string> tables;    // Base tables either plan reads.
  std::atomic<bool> using_backup{false};
  std::atomic<std::uint64_t> executions{0};

  const PlanNode& ActivePlan() const {
    return using_backup.load(std::memory_order_acquire) ? *backup : *primary;
  }
};

/// Base tables scanned anywhere in `plan` (scan nodes + their external
/// join-hole tables), for table-scoped cache invalidation.
std::vector<std::string> CollectPlanTables(const PlanNode& plan);

/// Keyed by SQL text. Subscribe `OnScViolated` to the ScRegistry's
/// violation listener so overturned SCs flip dependent packages to their
/// backup plan instead of producing wrong answers.
///
/// Thread-safe: the entry map is mutex-guarded, entries are handed out as
/// shared_ptr so a concurrent eviction (DROP TABLE) cannot free a plan
/// another session is executing, and the counters are atomic.
class PlanCache {
 public:
  PlanCache() = default;
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Inserts a package. `sc_epochs` stamps the rewrite-consumed SCs with
  /// their build-time epochs (see CachedPlan). Under the
  /// "plan_cache.insert" failpoint the package is returned but not cached
  /// — callers run the plan they were handed either way.
  std::shared_ptr<CachedPlan> Put(
      const std::string& sql, PlanPtr primary, PlanPtr backup,
      std::vector<std::string> used_scs,
      std::vector<std::pair<std::string, std::uint64_t>> sc_epochs = {},
      std::vector<RewriteCertificate> certificates = {},
      std::vector<RewriteCertificate> backup_certificates = {});

  /// Inserts a package built by the caller (every field but `tables`,
  /// which Put derives, must be filled in: the entry is visible to other
  /// sessions as soon as it is cached). Same failpoint behaviour as above.
  std::shared_ptr<CachedPlan> Put(std::shared_ptr<CachedPlan> entry);

  /// Returns the entry or null; counts hit/miss. The shared_ptr keeps the
  /// package alive across eviction — use it, don't re-Get.
  std::shared_ptr<CachedPlan> Get(const std::string& sql);

  /// Flips every package depending on `sc_name` to its backup plan.
  /// Returns the number of packages invalidated. Untouched packages count
  /// toward `invalidations_avoided` — the flushes a global scheme would
  /// have paid.
  std::size_t OnScViolated(const std::string& sc_name);

  /// Evicts only the packages that read `table`; everything else survives
  /// (and counts toward `invalidations_avoided`). Returns evictions.
  std::size_t OnTableDropped(const std::string& table);

  /// Re-arms packages after SCs return to active (e.g. async repair
  /// completed): entries whose every used SC is in `active_epochs` go back
  /// to the primary plan, and their `sc_epochs` are re-stamped with the
  /// repaired SCs' current epochs, so the pre-run staleness check accepts
  /// the repair as the new baseline.
  std::size_t Rearm(
      const std::vector<std::pair<std::string, std::uint64_t>>& active_epochs);

  /// Locked copy of the entry's epoch stamps (see CachedPlan::sc_epochs).
  std::vector<std::pair<std::string, std::uint64_t>> ScEpochs(
      const CachedPlan& entry) const;

  void Clear();
  std::size_t size() const;

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }
  /// Packages a global flush would have dropped but scoped invalidation
  /// kept (the avoided-flush counter of the impact-analysis satellite).
  std::uint64_t invalidations_avoided() const {
    return invalidations_avoided_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;  // Guards entries_.
  std::map<std::string, std::shared_ptr<CachedPlan>> entries_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> invalidations_{0};
  std::atomic<std::uint64_t> invalidations_avoided_{0};
};

}  // namespace softdb

#endif  // SOFTDB_OPTIMIZER_PLAN_CACHE_H_
