#include "analysis/plan_verifier.h"

#include <string>

#include "exec/operators.h"
#include "exec/parallel_operators.h"
#include "plan/predicate.h"

namespace softdb {

namespace {

/// Accumulator threaded through the tree walks.
struct Walk {
  const PlanVerifierContext* ctx;
  const std::string* phase;
  std::vector<PlanViolation>* out;

  void Add(Invariant invariant, const std::string& path, std::string message) {
    out->push_back(
        PlanViolation{invariant, *phase, path, std::move(message)});
  }
};

/// SQL comparability: numeric family (int/double/date/bool share a total
/// order here) or string-with-string.
bool TypesComparable(TypeId a, TypeId b) {
  if (IsNumericType(a) && IsNumericType(b)) return true;
  return a == TypeId::kString && b == TypeId::kString;
}

bool IsNullLiteral(const Expr& e) {
  return e.kind() == ExprKind::kLiteral &&
         static_cast<const LiteralExpr&>(e).value().is_null();
}

/// Recursive expression type-check against the (actual) input schema.
void CheckExpr(const Expr& e, const Schema& input, const std::string& path,
               Walk& w) {
  switch (e.kind()) {
    case ExprKind::kLiteral:
      return;
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(e);
      if (!ref.bound()) {
        w.Add(Invariant::kExprTypes, path,
              "unbound column reference '" + ref.name() + "'");
        return;
      }
      if (ref.index() >= input.NumColumns()) {
        w.Add(Invariant::kExprTypes, path,
              "column ref '" + ref.name() + "' index " +
                  std::to_string(ref.index()) + " out of bounds for " +
                  std::to_string(input.NumColumns()) + "-column input");
        return;
      }
      const TypeId actual = input.Column(ref.index()).type;
      if (ref.result_type() != actual) {
        w.Add(Invariant::kExprTypes, path,
              "column ref '" + ref.name() + "' bound as " +
                  TypeName(ref.result_type()) + " but input column " +
                  std::to_string(ref.index()) + " is " + TypeName(actual));
      }
      return;
    }
    case ExprKind::kComparison: {
      const auto& cmp = static_cast<const ComparisonExpr&>(e);
      CheckExpr(*cmp.left(), input, path, w);
      CheckExpr(*cmp.right(), input, path, w);
      if (!IsNullLiteral(*cmp.left()) && !IsNullLiteral(*cmp.right()) &&
          !TypesComparable(cmp.left()->result_type(),
                           cmp.right()->result_type())) {
        w.Add(Invariant::kExprTypes, path,
              "comparison over incomparable types " +
                  std::string(TypeName(cmp.left()->result_type())) + " and " +
                  TypeName(cmp.right()->result_type()) + " in '" +
                  e.ToString() + "'");
      }
      return;
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const auto& logical = static_cast<const LogicalExpr&>(e);
      for (const ExprPtr& c : logical.children()) {
        CheckExpr(*c, input, path, w);
        if (c->result_type() != TypeId::kBool) {
          w.Add(Invariant::kExprTypes, path,
                "logical connective over non-boolean operand '" +
                    c->ToString() + "' (" + TypeName(c->result_type()) + ")");
        }
      }
      return;
    }
    case ExprKind::kNot: {
      const auto& n = static_cast<const NotExpr&>(e);
      CheckExpr(*n.child(), input, path, w);
      if (n.child()->result_type() != TypeId::kBool) {
        w.Add(Invariant::kExprTypes, path,
              "NOT over non-boolean operand '" + n.child()->ToString() + "'");
      }
      return;
    }
    case ExprKind::kArithmetic: {
      const auto& a = static_cast<const ArithmeticExpr&>(e);
      CheckExpr(*a.left(), input, path, w);
      CheckExpr(*a.right(), input, path, w);
      for (const Expr* side : {a.left(), a.right()}) {
        if (!IsNullLiteral(*side) && !IsNumericType(side->result_type())) {
          w.Add(Invariant::kExprTypes, path,
                "arithmetic over non-numeric operand '" + side->ToString() +
                    "' (" + TypeName(side->result_type()) + ")");
        }
      }
      return;
    }
    case ExprKind::kBetween: {
      const auto& b = static_cast<const BetweenExpr&>(e);
      CheckExpr(*b.input(), input, path, w);
      CheckExpr(*b.lo(), input, path, w);
      CheckExpr(*b.hi(), input, path, w);
      for (const Expr* bound : {b.lo(), b.hi()}) {
        if (!IsNullLiteral(*bound) &&
            !TypesComparable(b.input()->result_type(),
                             bound->result_type())) {
          w.Add(Invariant::kExprTypes, path,
                "BETWEEN bound '" + bound->ToString() +
                    "' incomparable with input '" + b.input()->ToString() +
                    "'");
        }
      }
      return;
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(e);
      CheckExpr(*in.input(), input, path, w);
      for (const ExprPtr& item : in.list()) {
        CheckExpr(*item, input, path, w);
        if (!IsNullLiteral(*item) &&
            !TypesComparable(in.input()->result_type(),
                             item->result_type())) {
          w.Add(Invariant::kExprTypes, path,
                "IN list item '" + item->ToString() +
                    "' incomparable with input");
        }
      }
      return;
    }
    case ExprKind::kIsNull: {
      const auto& isn = static_cast<const IsNullExpr&>(e);
      CheckExpr(*isn.input(), input, path, w);
      return;
    }
  }
}

/// Checks one predicate list. `allow_twins` is true only for logical scan
/// nodes — the single place twinned SSC predicates may live (§5.1).
void CheckPredicates(const std::vector<Predicate>& predicates,
                     const Schema& input, bool allow_twins,
                     const std::string& path, Walk& w) {
  for (const Predicate& p : predicates) {
    if (p.expr == nullptr) {
      w.Add(Invariant::kPlanShape, path, "predicate with null expression");
      continue;
    }
    CheckExpr(*p.expr, input, path, w);
    if (p.expr->result_type() != TypeId::kBool) {
      w.Add(Invariant::kExprTypes, path,
            "predicate '" + p.expr->ToString() + "' is not boolean (" +
                TypeName(p.expr->result_type()) + ")");
    }
    if (p.estimation_only) {
      if (!allow_twins) {
        w.Add(Invariant::kTwinConfinement, path,
              "estimation-only twin '" + p.expr->ToString() + "' (origin " +
                  p.origin + ") outside scan costing annotations");
      }
      if (p.confidence < 0.0 || p.confidence > 1.0) {
        w.Add(Invariant::kTwinConfinement, path,
              "twin confidence " + std::to_string(p.confidence) +
                  " outside [0, 1]");
      }
      if (p.origin == "user") {
        w.Add(Invariant::kTwinConfinement, path,
              "estimation-only twin with origin 'user' (twins must be "
              "SC-derived)");
      }
    } else if (p.confidence != 1.0) {
      w.Add(Invariant::kTwinConfinement, path,
            "executable predicate '" + p.expr->ToString() +
                "' with confidence " + std::to_string(p.confidence) +
                " != 1.0");
    }
  }
}

std::string LogicalLabel(const PlanNode& node) {
  std::string label = PlanKindName(node.kind());
  if (node.kind() == PlanKind::kScan) {
    label += "(" + static_cast<const ScanNode&>(node).table_name() + ")";
  }
  return label;
}

/// True when `prefix`'s columns are a type-compatible prefix of `schema`.
/// Join elimination may narrow a subtree without rebuilding ancestor
/// schemas, so parents legitimately record a wider schema than their
/// (current) child produces — never an incompatible one.
bool IsTypePrefix(const Schema& prefix, const Schema& schema) {
  if (prefix.NumColumns() > schema.NumColumns()) return false;
  for (ColumnIdx i = 0; i < prefix.NumColumns(); ++i) {
    if (prefix.Column(i).type != schema.Column(i).type) return false;
  }
  return true;
}

bool SchemasTypeEqual(const Schema& a, const Schema& b) {
  return a.NumColumns() == b.NumColumns() && IsTypePrefix(a, b);
}

void CheckLogicalNode(const PlanNode& node, const std::string& path, Walk& w);

void CheckChildren(const PlanNode& node, std::size_t expected,
                   const std::string& path, Walk& w) {
  if (node.children().size() != expected) {
    w.Add(Invariant::kPlanShape, path,
          "expected " + std::to_string(expected) + " children, found " +
              std::to_string(node.children().size()));
  }
}

void RecurseChildren(const PlanNode& node, const std::string& path, Walk& w) {
  for (std::size_t i = 0; i < node.children().size(); ++i) {
    const PlanNode& child = *node.children()[i];
    CheckLogicalNode(child, path + "/" + std::to_string(i) + ":" +
                                LogicalLabel(child),
                     w);
  }
}

void CheckScan(const ScanNode& scan, const std::string& path, Walk& w) {
  CheckChildren(scan, 0, path, w);
  const Schema& schema = scan.output_schema();
  if (scan.external_table() != nullptr) {
    // §4.4 exception-AST branch: must be a registered materialized view,
    // resolved by name through the MV registry to the same table object.
    if (w.ctx->mvs != nullptr) {
      const MaterializedView* view = w.ctx->mvs->Find(scan.table_name());
      if (view == nullptr) {
        w.Add(Invariant::kExceptionAstRegistry, path,
              "external-table scan '" + scan.table_name() +
                  "' does not name a registered materialized view");
      } else if (view->table() != scan.external_table()) {
        w.Add(Invariant::kExceptionAstRegistry, path,
              "external-table scan '" + scan.table_name() +
                  "' points at a different table object than the "
                  "registered view");
      }
    }
    if (!SchemasTypeEqual(schema, scan.external_table()->schema())) {
      w.Add(Invariant::kSchemaConsistency, path,
            "scan schema does not match external table schema");
    }
  } else if (w.ctx->catalog != nullptr) {
    auto table = w.ctx->catalog->GetTable(scan.table_name());
    if (!table.ok()) {
      w.Add(Invariant::kPlanShape, path,
            "scan of unknown table '" + scan.table_name() + "'");
    } else if (!SchemasTypeEqual(schema, (*table)->schema())) {
      w.Add(Invariant::kSchemaConsistency, path,
            "scan schema does not match catalog schema of '" +
                scan.table_name() + "'");
    }
  }
  CheckPredicates(scan.predicates(), schema, /*allow_twins=*/true, path, w);
  for (const Predicate& p : scan.predicates()) {
    if (p.origin.rfind("ast:", 0) == 0 && w.ctx->exception_asts != nullptr) {
      const std::string sc_name = p.origin.substr(4);
      if (w.ctx->exception_asts->find(sc_name) ==
          w.ctx->exception_asts->end()) {
        w.Add(Invariant::kExceptionAstRegistry, path,
              "predicate origin '" + p.origin +
                  "' names an unregistered exception AST");
      }
    }
  }
}

void CheckLogicalNode(const PlanNode& node, const std::string& path, Walk& w) {
  switch (node.kind()) {
    case PlanKind::kScan:
      CheckScan(static_cast<const ScanNode&>(node), path, w);
      return;
    case PlanKind::kFilter: {
      const auto& filter = static_cast<const FilterNode&>(node);
      CheckChildren(node, 1, path, w);
      if (node.children().size() != 1) return;
      const Schema& input = node.children()[0]->output_schema();
      if (!IsTypePrefix(input, node.output_schema())) {
        w.Add(Invariant::kSchemaConsistency, path,
              "filter schema incompatible with child schema");
      }
      CheckPredicates(filter.predicates(), input, /*allow_twins=*/false,
                      path, w);
      break;
    }
    case PlanKind::kProject: {
      const auto& proj = static_cast<const ProjectNode&>(node);
      CheckChildren(node, 1, path, w);
      if (node.children().size() != 1) return;
      const Schema& input = node.children()[0]->output_schema();
      if (proj.exprs().size() != node.output_schema().NumColumns()) {
        w.Add(Invariant::kSchemaConsistency, path,
              "projection emits " + std::to_string(proj.exprs().size()) +
                  " expressions but schema has " +
                  std::to_string(node.output_schema().NumColumns()) +
                  " columns");
      } else {
        for (std::size_t i = 0; i < proj.exprs().size(); ++i) {
          if (proj.exprs()[i]->result_type() !=
              node.output_schema().Column(i).type) {
            w.Add(Invariant::kSchemaConsistency, path,
                  "projection column " + std::to_string(i) +
                      " type mismatch with expression result type");
          }
        }
      }
      for (const ExprPtr& e : proj.exprs()) CheckExpr(*e, input, path, w);
      break;
    }
    case PlanKind::kJoin: {
      const auto& join = static_cast<const JoinNode&>(node);
      CheckChildren(node, 2, path, w);
      if (node.children().size() != 2) return;
      const Schema& left = node.children()[0]->output_schema();
      const Schema& right = node.children()[1]->output_schema();
      const Schema& out = node.output_schema();
      // Recorded schema is Concat(left, right) as of construction. A later
      // elimination may have narrowed the left side; the right columns
      // always form the tail of the recorded schema.
      if (out.NumColumns() < left.NumColumns() + right.NumColumns() ||
          !IsTypePrefix(left, out)) {
        w.Add(Invariant::kSchemaConsistency, path,
              "join schema incompatible with child schemas");
      } else {
        const ColumnIdx tail =
            static_cast<ColumnIdx>(out.NumColumns() - right.NumColumns());
        for (ColumnIdx i = 0; i < right.NumColumns(); ++i) {
          if (out.Column(tail + i).type != right.Column(i).type) {
            w.Add(Invariant::kSchemaConsistency, path,
                  "join schema tail incompatible with right child schema");
            break;
          }
        }
      }
      for (const JoinNode::EquiKey& key : join.equi_keys()) {
        if (key.left >= left.NumColumns() || key.right >= right.NumColumns()) {
          w.Add(Invariant::kPlanShape, path,
                "equi key (" + std::to_string(key.left) + ", " +
                    std::to_string(key.right) + ") out of bounds");
        } else if (!TypesComparable(left.Column(key.left).type,
                                    right.Column(key.right).type)) {
          w.Add(Invariant::kExprTypes, path,
                "equi key joins incomparable types " +
                    std::string(TypeName(left.Column(key.left).type)) +
                    " and " + TypeName(right.Column(key.right).type));
        }
      }
      // Conditions bind over the concatenation of the children's schemas.
      CheckPredicates(join.conditions(), Schema::Concat(left, right),
                      /*allow_twins=*/false, path, w);
      break;
    }
    case PlanKind::kAggregate: {
      const auto& agg = static_cast<const AggregateNode&>(node);
      CheckChildren(node, 1, path, w);
      if (node.children().size() != 1) return;
      const Schema& input = node.children()[0]->output_schema();
      if (agg.key_flags().size() != agg.group_by().size()) {
        w.Add(Invariant::kPlanShape, path,
              "key_flags size " + std::to_string(agg.key_flags().size()) +
                  " != group_by size " +
                  std::to_string(agg.group_by().size()));
      }
      const std::size_t expected =
          agg.group_by().size() + agg.aggregates().size();
      if (node.output_schema().NumColumns() != expected) {
        w.Add(Invariant::kSchemaConsistency, path,
              "aggregate schema has " +
                  std::to_string(node.output_schema().NumColumns()) +
                  " columns, expected " + std::to_string(expected));
        return;
      }
      for (std::size_t i = 0; i < agg.group_by().size(); ++i) {
        CheckExpr(*agg.group_by()[i], input, path, w);
        if (agg.group_by()[i]->result_type() !=
            node.output_schema().Column(i).type) {
          w.Add(Invariant::kSchemaConsistency, path,
                "group column " + std::to_string(i) +
                    " type mismatch with schema");
        }
      }
      for (std::size_t i = 0; i < agg.aggregates().size(); ++i) {
        const AggregateItem& a = agg.aggregates()[i];
        if (a.arg != nullptr) CheckExpr(*a.arg, input, path, w);
        TypeId expected_type;
        switch (a.fn) {
          case AggFn::kCountStar:
          case AggFn::kCount:
            expected_type = TypeId::kInt64;
            break;
          case AggFn::kAvg:
            expected_type = TypeId::kDouble;
            break;
          default:
            expected_type = a.arg ? a.arg->result_type() : TypeId::kInt64;
        }
        const TypeId actual =
            node.output_schema().Column(agg.group_by().size() + i).type;
        if (actual != expected_type) {
          w.Add(Invariant::kSchemaConsistency, path,
                std::string("aggregate '") + AggFnName(a.fn) +
                    "' column type " + TypeName(actual) + ", expected " +
                    TypeName(expected_type));
        }
      }
      break;
    }
    case PlanKind::kSort: {
      const auto& sort = static_cast<const SortNode&>(node);
      CheckChildren(node, 1, path, w);
      if (node.children().size() != 1) return;
      const Schema& input = node.children()[0]->output_schema();
      if (!IsTypePrefix(input, node.output_schema())) {
        w.Add(Invariant::kSchemaConsistency, path,
              "sort schema incompatible with child schema");
      }
      for (const SortKey& k : sort.keys()) {
        if (k.expr == nullptr) {
          w.Add(Invariant::kPlanShape, path, "sort key with null expression");
          continue;
        }
        CheckExpr(*k.expr, input, path, w);
      }
      break;
    }
    case PlanKind::kUnionAll: {
      const auto& u = static_cast<const UnionAllNode&>(node);
      if (node.children().empty()) {
        w.Add(Invariant::kPlanShape, path, "UNION ALL with no branches");
        return;
      }
      if (u.branch_constraints().size() != node.children().size()) {
        w.Add(Invariant::kPlanShape, path,
              "branch constraint count " +
                  std::to_string(u.branch_constraints().size()) +
                  " != branch count " +
                  std::to_string(node.children().size()));
      }
      for (std::size_t i = 0; i < node.children().size(); ++i) {
        if (!SchemasTypeEqual(node.children()[i]->output_schema(),
                              node.output_schema())) {
          w.Add(Invariant::kSchemaConsistency, path,
                "UNION ALL branch " + std::to_string(i) +
                    " schema incompatible with union schema");
        }
      }
      for (const std::optional<Predicate>& bc : u.branch_constraints()) {
        if (!bc.has_value()) continue;
        std::vector<Predicate> one;
        one.push_back(bc->Clone());
        CheckPredicates(one, node.output_schema(), /*allow_twins=*/false,
                        path, w);
      }
      break;
    }
    case PlanKind::kLimit: {
      CheckChildren(node, 1, path, w);
      if (node.children().size() != 1) return;
      if (!IsTypePrefix(node.children()[0]->output_schema(),
                        node.output_schema())) {
        w.Add(Invariant::kSchemaConsistency, path,
              "limit schema incompatible with child schema");
      }
      break;
    }
  }
  RecurseChildren(node, path, w);
}

// ------------------------------------------------------------------ physical

void CheckRuntimeParams(const std::vector<ScanRuntimeParameter>& params,
                        const std::vector<Predicate>& predicates,
                        const std::string& path, Walk& w) {
  for (const ScanRuntimeParameter& param : params) {
    if (param.predicate_index >= predicates.size()) {
      w.Add(Invariant::kRuntimeParams, path,
            "runtime param predicate index " +
                std::to_string(param.predicate_index) +
                " out of bounds for " + std::to_string(predicates.size()) +
                " predicates");
      continue;
    }
    const Predicate& target = predicates[param.predicate_index];
    if (target.estimation_only) {
      w.Add(Invariant::kRuntimeParams, path,
            "runtime param targets an estimation-only twin");
      continue;
    }
    SimplePredicate sp;
    if (!MatchSimplePredicate(*target.expr, &sp)) {
      w.Add(Invariant::kRuntimeParams, path,
            "runtime param targets a non-simple predicate '" +
                target.expr->ToString() + "'");
      continue;
    }
    if (sp.column != param.simple.column) {
      w.Add(Invariant::kRuntimeParams, path,
            "runtime param column " + std::to_string(param.simple.column) +
                " disagrees with target predicate column " +
                std::to_string(sp.column));
    }
    if (param.index == nullptr) {
      w.Add(Invariant::kRuntimeParams, path, "runtime param without index");
    } else if (param.index->column() != param.simple.column) {
      w.Add(Invariant::kRuntimeParams, path,
            "runtime param index column " +
                std::to_string(param.index->column()) +
                " disagrees with predicate column " +
                std::to_string(param.simple.column));
    }
  }
}

/// Executable predicate lists in physical operators must be twin-free; the
/// physical planner strips estimation-only predicates when lowering.
void CheckExecutablePredicates(const std::vector<Predicate>& predicates,
                               const std::string& path, Walk& w) {
  for (const Predicate& p : predicates) {
    if (p.estimation_only) {
      w.Add(Invariant::kTwinConfinement, path,
            "estimation-only twin '" + p.expr->ToString() +
                "' in an executable predicate list");
    }
  }
}

/// Checks one morsel pipeline spec: twin-free executable predicates, sound
/// §4.2 runtime params, and a well-formed stage chain (filters in any
/// number, at most one project, and nothing after the project — the
/// pipeline's output schema is the last stage's).
void CheckPipelineSpec(const PipelineSpec& spec, const std::string& path,
                       Walk& w) {
  if (spec.table == nullptr) {
    w.Add(Invariant::kParallelSafety, path, "pipeline spec without a table");
    return;
  }
  CheckExecutablePredicates(spec.scan_predicates, path, w);
  CheckRuntimeParams(spec.runtime_params, spec.scan_predicates, path, w);
  bool saw_project = false;
  for (const PipelineStage& stage : spec.stages) {
    if (saw_project) {
      w.Add(Invariant::kParallelSafety, path,
            "pipeline stage after the projection stage");
      break;
    }
    switch (stage.kind) {
      case PipelineStage::Kind::kFilter:
        CheckExecutablePredicates(stage.predicates, path, w);
        break;
      case PipelineStage::Kind::kProject:
        saw_project = true;
        break;
    }
  }
}

void CheckOp(const Operator& op, bool under_limit, const std::string& path,
             Walk& w) {
  if (const auto* pipe = dynamic_cast<const ParallelPipelineOp*>(&op)) {
    if (under_limit) {
      w.Add(Invariant::kParallelSafety, path,
            "parallel pipeline under a LIMIT (LIMIT subtrees must stay "
            "serial)");
    }
    if (pipe->morsel_rows() == 0) {
      w.Add(Invariant::kParallelSafety, path, "morsel size 0");
    }
    CheckPipelineSpec(pipe->spec(), path, w);
    return;
  }
  if (const auto* pj = dynamic_cast<const ParallelHashJoinOp*>(&op)) {
    if (under_limit) {
      w.Add(Invariant::kParallelSafety, path,
            "parallel hash join under a LIMIT (LIMIT subtrees must stay "
            "serial)");
    }
    if (pj->morsel_rows() == 0) {
      w.Add(Invariant::kParallelSafety, path, "morsel size 0");
    }
    CheckPipelineSpec(pj->probe_spec(), path + "/probe", w);
    CheckPipelineSpec(pj->build_spec(), path + "/build", w);
    CheckExecutablePredicates(pj->residual(), path, w);
    return;
  }
  if (const auto* scan = dynamic_cast<const SeqScanOp*>(&op)) {
    CheckExecutablePredicates(scan->predicates(), path, w);
    CheckRuntimeParams(scan->runtime_params(), scan->predicates(), path, w);
  } else if (const auto* iscan = dynamic_cast<const IndexRangeScanOp*>(&op)) {
    CheckExecutablePredicates(iscan->residual(), path, w);
  } else if (const auto* filter = dynamic_cast<const FilterOp*>(&op)) {
    CheckExecutablePredicates(filter->predicates(), path, w);
  } else if (const auto* hj = dynamic_cast<const HashJoinOp*>(&op)) {
    CheckExecutablePredicates(hj->residual(), path, w);
  } else if (const auto* nlj = dynamic_cast<const NestedLoopJoinOp*>(&op)) {
    CheckExecutablePredicates(nlj->conditions(), path, w);
  }
  const bool is_limit = dynamic_cast<const LimitOp*>(&op) != nullptr;
  std::vector<const Operator*> children;
  op.AppendChildren(&children);
  for (std::size_t i = 0; i < children.size(); ++i) {
    CheckOp(*children[i], under_limit || is_limit,
            path + "/" + std::to_string(i) + ":" + children[i]->name(), w);
  }
}

}  // namespace

std::vector<PlanViolation> PlanVerifier::CheckLogical(
    const PlanNode& root, const std::string& phase) const {
  std::vector<PlanViolation> out;
  Walk w{&ctx_, &phase, &out};
  CheckLogicalNode(root, LogicalLabel(root), w);
  return out;
}

std::vector<PlanViolation> PlanVerifier::CheckPhysical(
    const Operator& root, const std::string& phase) const {
  std::vector<PlanViolation> out;
  Walk w{&ctx_, &phase, &out};
  CheckOp(root, /*under_limit=*/false, root.name(), w);
  return out;
}

std::vector<PlanViolation> PlanVerifier::CheckBatch(
    const ColumnBatch& batch, const std::string& phase) const {
  std::vector<PlanViolation> out;
  Walk w{&ctx_, &phase, &out};
  if (batch.sel_size() > batch.size()) {
    w.Add(Invariant::kSelectionVector, "batch",
          "selection size " + std::to_string(batch.sel_size()) +
              " exceeds batch size " + std::to_string(batch.size()));
    return out;
  }
  for (std::size_t i = 0; i < batch.sel_size(); ++i) {
    if (batch.sel()[i] >= batch.size()) {
      w.Add(Invariant::kSelectionVector, "batch",
            "selection entry " + std::to_string(i) + " = " +
                std::to_string(batch.sel()[i]) + " out of bounds for size " +
                std::to_string(batch.size()));
      return out;
    }
    if (i > 0 && batch.sel()[i] <= batch.sel()[i - 1]) {
      w.Add(Invariant::kSelectionVector, "batch",
            "selection vector not strictly ascending at entry " +
                std::to_string(i) + " (" + std::to_string(batch.sel()[i - 1]) +
                " then " + std::to_string(batch.sel()[i]) + ")");
      return out;
    }
  }
  return out;
}

Status PlanVerifier::VerifyLogical(const PlanNode& root,
                                   const std::string& phase) const {
  return ViolationsToStatus(CheckLogical(root, phase));
}

Status PlanVerifier::VerifyPhysical(const Operator& root,
                                    const std::string& phase) const {
  return ViolationsToStatus(CheckPhysical(root, phase));
}

}  // namespace softdb
