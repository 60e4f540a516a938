#include "analysis/invariants.h"

namespace softdb {

const char* InvariantName(Invariant invariant) {
  switch (invariant) {
    case Invariant::kExprTypes:
      return "expr-types";
    case Invariant::kSchemaConsistency:
      return "schema-consistency";
    case Invariant::kTwinConfinement:
      return "twin-confinement";
    case Invariant::kExceptionAstRegistry:
      return "exception-ast-registry";
    case Invariant::kSelectionVector:
      return "selection-vector";
    case Invariant::kRuntimeParams:
      return "runtime-params";
    case Invariant::kParallelSafety:
      return "parallel-safety";
    case Invariant::kPlanShape:
      return "plan-shape";
  }
  return "unknown";
}

std::string PlanViolation::ToString() const {
  return "[" + phase + "] " + InvariantName(invariant) + " at " + node_path +
         ": " + message;
}

Status ViolationsToStatus(const std::vector<PlanViolation>& violations) {
  if (violations.empty()) return Status::OK();
  std::string msg = "plan verification failed:";
  for (const PlanViolation& v : violations) {
    msg += "\n  " + v.ToString();
  }
  return Status::Internal(std::move(msg));
}

}  // namespace softdb
