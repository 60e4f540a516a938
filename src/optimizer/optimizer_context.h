#ifndef SOFTDB_OPTIMIZER_OPTIMIZER_CONTEXT_H_
#define SOFTDB_OPTIMIZER_OPTIMIZER_CONTEXT_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "analysis/certificate.h"
#include "constraints/ic_registry.h"
#include "constraints/sc_registry.h"
#include "mv/materialized_view.h"
#include "stats/analyzer.h"
#include "storage/catalog.h"

namespace softdb {

/// Everything the rewrite engine and the physical planner consult, plus
/// per-rule switches (the experiments toggle individual rules) and the
/// provenance outputs the plan cache needs for §4.1 invalidation.
struct OptimizerContext {
  const Catalog* catalog = nullptr;
  const StatsCatalog* stats = nullptr;
  const IcRegistry* ics = nullptr;
  ScRegistry* scs = nullptr;  // Non-const: selection-stage use accounting.
  const MvRegistry* mvs = nullptr;

  /// sc name -> exception AST name (the late_shipments wiring of §4.4).
  std::map<std::string, std::string> exception_asts;

  // Rule switches.
  bool enable_predicate_introduction = true;  // E1 (linear / offset ASCs).
  bool enable_twinning = true;                // E4 (SSC estimation twins).
  bool enable_join_elimination = true;        // E3.
  bool enable_fd_pruning = true;              // E6.
  bool enable_hole_trimming = true;           // E2.
  bool enable_domain_rules = true;            // Sybase-style min/max.
  bool enable_unionall_pruning = true;        // E10 branch knock-off.
  bool enable_exception_asts = true;          // E5 (ASC-as-AST).
  /// Symbolic implication over the ASC/CHECK fact base: fold predicates
  /// that contradict the facts to FALSE and prune redundant conjuncts.
  bool enable_implication = true;
  bool use_twins_in_estimation = true;        // Estimator switch for E4.
  /// Consult armed (absolute) kBlockZoneMap SCs at physical-planning time:
  /// sequential scans get a per-block skip set for blocks whose min/max/
  /// null-count envelope provably contradicts the scan's predicates. Used
  /// SCs are recorded as rewrite-consumed, so the epoch-snapshot /
  /// degraded-retry protocol guards mid-query widenings.
  bool enable_zone_maps = true;
  /// §4.2 runtime plan parameterization: sequential scans re-check simple
  /// predicates over indexed columns against the index's current min/max
  /// at Open (tautologies skipped, contradictions short-circuit) without
  /// invalidating the plan.
  bool enable_runtime_parameterization = true;
  /// Run PlanVerifier after each rewrite and physical-planning phase.
  /// Debug builds verify regardless (see ShouldVerifyPlans).
  bool verify_plans = true;
  /// Parallel morsel-driven execution (DESIGN.md §8): with more than one
  /// thread, the planner lowers parallel-safe subtrees (seq-scan
  /// pipelines and equi hash joins over them) to the parallel operators.
  /// 1 = serial.
  std::size_t num_threads = 1;
  /// Slot-range size of one parallel scan morsel.
  std::size_t parallel_morsel_rows = 4096;

  // Outputs of a rewrite pass.
  std::vector<std::string> used_scs;       // SCs baked into the plan.
  /// Subset of used_scs whose truth the plan's *semantics* depend on
  /// (predicate introduction, hole prune/trim, join elimination, FD
  /// pruning, ...). Estimation-only uses — twinned predicates — are
  /// excluded: their overturn can change costs, never answers, so only
  /// rewrite-consumed SCs participate in the epoch revalidation / degraded
  /// retry protocol (DESIGN.md "Failure model").
  std::vector<std::string> rewrite_consumed_scs;
  std::vector<std::string> applied_rules;  // EXPLAIN annotations.
  /// One proof obligation per SC-driven transformation (DESIGN.md §13).
  /// The engine re-validates these post-planning with CertificateChecker.
  std::vector<RewriteCertificate> certificates;

  void RecordScUse(const std::string& name, double benefit,
                   bool rewrite_consumed = true) {
    used_scs.push_back(name);
    if (rewrite_consumed) rewrite_consumed_scs.push_back(name);
    if (scs != nullptr) scs->RecordUse(name, benefit);
  }
  void RecordRule(std::string description) {
    applied_rules.push_back(std::move(description));
  }
  void RecordCertificate(RewriteCertificate cert) {
    certificates.push_back(std::move(cert));
  }
  void ResetOutputs() {
    used_scs.clear();
    rewrite_consumed_scs.clear();
    applied_rules.clear();
    certificates.clear();
  }
};

}  // namespace softdb

#endif  // SOFTDB_OPTIMIZER_OPTIMIZER_CONTEXT_H_
