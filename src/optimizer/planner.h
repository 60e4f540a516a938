#ifndef SOFTDB_OPTIMIZER_PLANNER_H_
#define SOFTDB_OPTIMIZER_PLANNER_H_

#include <map>
#include <optional>

#include "exec/operators.h"
#include "exec/parallel_operators.h"
#include "optimizer/cardinality.h"
#include "optimizer/optimizer_context.h"
#include "plan/logical_plan.h"

namespace softdb {

/// The chosen access path for one scan.
struct AccessPathChoice {
  const Index* index = nullptr;  // Null: sequential scan.
  std::optional<Value> lo, hi;
  bool lo_inclusive = true, hi_inclusive = true;
  double cost_pages = 0.0;  // Estimated page fetches of the choice.
  double seq_cost_pages = 0.0;  // What a sequential scan would have cost.
};

/// Lowers a (rewritten) logical plan to executor operators, choosing access
/// paths by estimated page cost. Predicate introduction pays off here: an
/// introduced range on an indexed column turns a sequential scan into an
/// index range scan.
class PhysicalPlanner {
 public:
  /// `ctx` is non-const: zone-map consultation records SC uses (selection
  /// accounting + rewrite-consumed registration for the epoch protocol).
  PhysicalPlanner(OptimizerContext* ctx, const CardinalityEstimator* estimator)
      : ctx_(ctx), estimator_(estimator) {}

  Result<OperatorPtr> Plan(const PlanNode& node) const;

  /// Access-path selection for one scan (exposed for EXPLAIN and tests).
  Result<AccessPathChoice> ChooseAccessPath(const ScanNode& scan) const;

  /// Recursive plan cost in simulated pages + cpu, used by benches to show
  /// plan-cost shape without executing.
  double EstimateCost(const PlanNode& node) const;

 private:
  /// Recursive lowering. `under_limit` is set below LIMIT nodes: LIMIT
  /// stops pulling early, while a parallel operator drains its whole input
  /// at Open, so those subtrees stay serial.
  Result<OperatorPtr> Plan(const PlanNode& node, bool under_limit) const;

  /// Lowers parallel-safe subtrees (ctx->num_threads > 1): sequential-scan
  /// pipelines (scan → filter* → project?) become ParallelPipelineOp, equi
  /// hash joins over two such pipelines become ParallelHashJoinOp. Returns
  /// null when the subtree is not parallel-safe (index access paths,
  /// unsatisfiable scans, nested joins, non-equi joins, ...); the caller
  /// then lowers the node serially, and each child gets its own chance.
  /// Never called under LIMIT, which the kParallelSafety plan invariant
  /// enforces.
  Result<OperatorPtr> TryPlanParallel(const PlanNode& node) const;

  /// Builds the pipeline spec for a parallel-safe scan chain, or nullopt.
  /// `allow_project`: a projection may only be the pipeline's last stage.
  Result<std::optional<PipelineSpec>> TryBuildPipelineSpec(
      const PlanNode& node, bool allow_project) const;

  /// The scan's zone-map skip set: blocks whose armed kBlockZoneMap
  /// envelope provably contradicts the scan's predicate conjunction. Null
  /// when zone maps are disabled, unarmed, inapplicable, or the scan's
  /// predicates are not statically error-free (skipping a block must never
  /// skip a runtime type error evaluation would have raised).
  ///
  /// Memoized per ScanNode: planning may visit the same scan twice
  /// (parallel attempt, then serial lowering), and the SC-use recording
  /// and skip decisions must happen exactly once per planning so every
  /// lowering shares one consistent snapshot.
  ZoneMapSkips ZoneMapSkipsFor(const ScanNode& scan, const Table* table) const;
  ZoneMapSkips ComputeZoneMapSkips(const ScanNode& scan,
                                   const Table* table) const;

  OptimizerContext* ctx_;
  const CardinalityEstimator* estimator_;
  mutable std::map<const ScanNode*, ZoneMapSkips> zone_skip_memo_;
};

}  // namespace softdb

#endif  // SOFTDB_OPTIMIZER_PLANNER_H_
