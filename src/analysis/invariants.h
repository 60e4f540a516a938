#ifndef SOFTDB_ANALYSIS_INVARIANTS_H_
#define SOFTDB_ANALYSIS_INVARIANTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace softdb {

/// The invariants PlanVerifier enforces over logical and physical plans.
/// Each one backs a semantics-preservation claim of the paper: rewrites
/// (§3, §4.4, §5) must keep plans well-typed and structurally sound, and
/// twinned SSC predicates (§5.1) must stay visible to costing only.
enum class Invariant : std::uint8_t {
  /// Every expression tree type-checks against its input schema: column
  /// refs are bound and in bounds, comparisons compare comparable types,
  /// logical connectives take booleans, predicates are boolean.
  kExprTypes,
  /// Output schemas are consistent across operator boundaries (a child
  /// schema may be a prefix of the recorded schema after join elimination
  /// narrowed the subtree, never incompatible).
  kSchemaConsistency,
  /// Twinned (estimation-only) SSC predicates appear only in scan-node
  /// costing annotations: never in filters, join conditions, union branch
  /// constraints, or any executable predicate list of a physical operator.
  /// Executable predicates carry confidence 1.0; twins carry (0, 1].
  kTwinConfinement,
  /// Scans reading an external table (a §4.4 exception-AST branch) must
  /// reference a registered materialized view, and "ast:" predicate
  /// origins must name a wired exception AST.
  kExceptionAstRegistry,
  /// Batch selection vectors are strictly ascending, duplicate-free and in
  /// bounds.
  kSelectionVector,
  /// §4.2 runtime plan parameters are self-consistent, in the serial scan
  /// and the parallel pipeline spec alike: in-bounds predicate index,
  /// non-twin target, and matching predicate/index columns.
  kRuntimeParams,
  /// Parallel (morsel-driven) operators appear only where the planner may
  /// place them: never under a LIMIT (which keeps its subtree serial),
  /// with a positive morsel size, and with pipeline specs whose stage chain is
  /// well-formed (scan → filters → at most one project).
  kParallelSafety,
  /// Structural soundness: child arity per node kind, equi-key bounds,
  /// key-flag sizes, branch-constraint arity.
  kPlanShape,
};

const char* InvariantName(Invariant invariant);

/// One structural diagnostic: which invariant broke, in which optimizer
/// phase, at which node of the plan tree.
struct PlanViolation {
  Invariant invariant = Invariant::kPlanShape;
  std::string phase;      // "bind", "rewrite", "join-elimination", ...
  std::string node_path;  // e.g. "Sort/0:Join/1:Scan(orders)"
  std::string message;

  /// "[phase] invariant-name at node-path: message".
  std::string ToString() const;
};

/// OK when empty; otherwise an internal-error Status listing every
/// violation (plans that fail verification are engine bugs, not user
/// errors).
Status ViolationsToStatus(const std::vector<PlanViolation>& violations);

/// Debug builds verify every plan unconditionally; release builds honor
/// the EngineOptions::verify_plans switch.
inline bool ShouldVerifyPlans(bool option_enabled) {
#ifndef NDEBUG
  (void)option_enabled;
  return true;
#else
  return option_enabled;
#endif
}

}  // namespace softdb

#endif  // SOFTDB_ANALYSIS_INVARIANTS_H_
