#include "sql/binder.h"

#include <algorithm>
#include <set>

#include "common/str_util.h"
#include "plan/predicate.h"

namespace softdb {

void CollectColumnNames(const Expr& expr, std::vector<std::string>* out) {
  if (expr.kind() == ExprKind::kColumnRef) {
    out->push_back(static_cast<const ColumnRefExpr&>(expr).name());
    return;
  }
  switch (expr.kind()) {
    case ExprKind::kComparison: {
      const auto& e = static_cast<const ComparisonExpr&>(expr);
      CollectColumnNames(*e.left(), out);
      CollectColumnNames(*e.right(), out);
      break;
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const auto& e = static_cast<const LogicalExpr&>(expr);
      for (const ExprPtr& c : e.children()) CollectColumnNames(*c, out);
      break;
    }
    case ExprKind::kNot:
      CollectColumnNames(*static_cast<const NotExpr&>(expr).child(), out);
      break;
    case ExprKind::kArithmetic: {
      const auto& e = static_cast<const ArithmeticExpr&>(expr);
      CollectColumnNames(*e.left(), out);
      CollectColumnNames(*e.right(), out);
      break;
    }
    case ExprKind::kBetween: {
      const auto& e = static_cast<const BetweenExpr&>(expr);
      CollectColumnNames(*e.input(), out);
      CollectColumnNames(*e.lo(), out);
      CollectColumnNames(*e.hi(), out);
      break;
    }
    case ExprKind::kInList: {
      const auto& e = static_cast<const InListExpr&>(expr);
      CollectColumnNames(*e.input(), out);
      for (const ExprPtr& item : e.list()) CollectColumnNames(*item, out);
      break;
    }
    case ExprKind::kIsNull:
      CollectColumnNames(*static_cast<const IsNullExpr&>(expr).input(), out);
      break;
    case ExprKind::kColumnRef:  // Handled by the early return above.
    case ExprKind::kLiteral:
      break;
  }
}

namespace {

/// One FROM entry during binding.
struct BoundTable {
  std::string effective_name;  // Alias or table name, lowercased.
  std::string table_name;
  Schema schema;  // Columns qualified with effective_name.
};

/// Which bound tables an unbound conjunct references. Returns indices into
/// `tables`, or an error for unknown/ambiguous names.
Result<std::set<std::size_t>> ReferencedTables(
    const Expr& expr, const std::vector<BoundTable>& tables) {
  std::vector<std::string> names;
  CollectColumnNames(expr, &names);
  std::set<std::size_t> out;
  for (const std::string& name : names) {
    const std::size_t dot = name.find('.');
    if (dot != std::string::npos) {
      const std::string qual = ToLower(name.substr(0, dot));
      bool found = false;
      for (std::size_t i = 0; i < tables.size(); ++i) {
        if (tables[i].effective_name == qual) {
          out.insert(i);
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::BindError("unknown table qualifier: " + qual);
      }
      continue;
    }
    // Unqualified: must be unique across all tables.
    int hits = 0;
    std::size_t which = 0;
    for (std::size_t i = 0; i < tables.size(); ++i) {
      if (tables[i].schema.Resolve(name).ok()) {
        ++hits;
        which = i;
      }
    }
    if (hits == 0) return Status::BindError("unknown column: " + name);
    if (hits > 1) return Status::BindError("ambiguous column: " + name);
    out.insert(which);
  }
  return out;
}

}  // namespace

Result<PlanPtr> Binder::BindSelect(const SelectStmt& stmt) {
  SOFTDB_ASSIGN_OR_RETURN(PlanPtr first, BindSingleSelect(stmt));
  if (!stmt.union_next) return first;

  std::vector<PlanPtr> branches;
  branches.push_back(std::move(first));
  const SelectStmt* next = stmt.union_next.get();
  while (next != nullptr) {
    SOFTDB_ASSIGN_OR_RETURN(PlanPtr branch, BindSingleSelect(*next));
    branches.push_back(std::move(branch));
    next = next->union_next.get();
  }
  // Branches pass their batches straight through the union, so they must
  // agree on arity and on every column's type.
  const Schema& first_schema = branches[0]->output_schema();
  for (const PlanPtr& b : branches) {
    if (b->output_schema().NumColumns() != first_schema.NumColumns()) {
      return Status::BindError("UNION ALL branches have different arity");
    }
    for (ColumnIdx c = 0; c < first_schema.NumColumns(); ++c) {
      if (b->output_schema().Column(c).type != first_schema.Column(c).type) {
        return Status::BindError(
            "UNION ALL branches have different types in column " +
            first_schema.Column(c).name);
      }
    }
  }
  return PlanPtr(std::make_unique<UnionAllNode>(
      std::move(branches), std::vector<std::optional<Predicate>>()));
}

Result<PlanPtr> Binder::BindSingleSelect(const SelectStmt& stmt) {
  // 1. Resolve FROM tables (and JOIN tables) into scans.
  std::vector<BoundTable> tables;
  std::vector<ExprPtr> conjuncts;  // Unbound predicate pool.

  auto add_table = [&](const TableRef& ref) -> Status {
    SOFTDB_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(ref.table));
    BoundTable bt;
    bt.effective_name = ToLower(ref.EffectiveName());
    bt.table_name = table->name();
    std::vector<ColumnDef> cols = table->schema().columns();
    for (ColumnDef& c : cols) c.table = bt.effective_name;
    bt.schema = Schema(std::move(cols));
    for (const BoundTable& existing : tables) {
      if (existing.effective_name == bt.effective_name) {
        return Status::BindError("duplicate table name/alias: " +
                                 bt.effective_name);
      }
    }
    tables.push_back(std::move(bt));
    return Status::OK();
  };

  if (stmt.from.empty()) return Status::BindError("FROM clause required");
  for (const TableRef& ref : stmt.from) {
    SOFTDB_RETURN_IF_ERROR(add_table(ref));
  }
  for (const JoinClause& join : stmt.joins) {
    SOFTDB_RETURN_IF_ERROR(add_table(join.table));
    for (ExprPtr& c : FlattenConjuncts(join.on->Clone())) {
      conjuncts.push_back(std::move(c));
    }
  }
  if (stmt.where) {
    for (ExprPtr& c : FlattenConjuncts(stmt.where->Clone())) {
      conjuncts.push_back(std::move(c));
    }
  }

  // 2. Classify conjuncts by the tables they touch.
  std::vector<std::vector<ExprPtr>> scan_preds(tables.size());
  struct MultiConjunct {
    ExprPtr expr;
    std::set<std::size_t> tables;
  };
  std::vector<MultiConjunct> multi;
  for (ExprPtr& c : conjuncts) {
    SOFTDB_ASSIGN_OR_RETURN(std::set<std::size_t> refs,
                            ReferencedTables(*c, tables));
    if (refs.size() <= 1) {
      const std::size_t t = refs.empty() ? 0 : *refs.begin();
      scan_preds[t].push_back(std::move(c));
    } else {
      multi.push_back(MultiConjunct{std::move(c), std::move(refs)});
    }
  }

  // 3. Build scans with bound single-table predicates.
  std::vector<PlanPtr> scans;
  for (std::size_t i = 0; i < tables.size(); ++i) {
    auto scan = std::make_unique<ScanNode>(tables[i].table_name,
                                           tables[i].schema);
    for (ExprPtr& p : scan_preds[i]) {
      SOFTDB_RETURN_IF_ERROR(p->Bind(tables[i].schema));
      scan->predicates().push_back(Predicate(std::move(p)));
    }
    scans.push_back(std::move(scan));
  }

  // 4. Left-deep join tree in FROM order; attach each multi-table conjunct
  // at the first join whose coverage includes all its tables.
  PlanPtr plan = std::move(scans[0]);
  std::set<std::size_t> covered{0};
  for (std::size_t i = 1; i < tables.size(); ++i) {
    covered.insert(i);
    Schema joined = Schema::Concat(plan->output_schema(),
                                   scans[i]->output_schema());
    std::vector<Predicate> conditions;
    std::vector<JoinNode::EquiKey> equi_keys;
    const ColumnIdx left_arity =
        static_cast<ColumnIdx>(plan->output_schema().NumColumns());
    for (auto it = multi.begin(); it != multi.end();) {
      const bool applies = std::includes(covered.begin(), covered.end(),
                                         it->tables.begin(), it->tables.end());
      if (!applies) {
        ++it;
        continue;
      }
      SOFTDB_RETURN_IF_ERROR(it->expr->Bind(joined));
      ColumnPairPredicate pair;
      if (MatchColumnPair(*it->expr, &pair) && pair.op == CompareOp::kEq) {
        // Normalize: one side left of the seam, the other right.
        ColumnIdx a = pair.left;
        ColumnIdx b = pair.right;
        if (a > b) std::swap(a, b);
        if (a < left_arity && b >= left_arity) {
          equi_keys.push_back(JoinNode::EquiKey{
              a, static_cast<ColumnIdx>(b - left_arity)});
        }
      }
      conditions.push_back(Predicate(std::move(it->expr)));
      it = multi.erase(it);
    }
    plan = std::make_unique<JoinNode>(std::move(plan), std::move(scans[i]),
                                      std::move(conditions),
                                      std::move(equi_keys));
  }
  if (!multi.empty()) {
    return Status::BindError("could not place join condition: " +
                             multi[0].expr->ToString());
  }

  // 5. Aggregation.
  const bool has_agg = std::any_of(
      stmt.items.begin(), stmt.items.end(),
      [](const SelectItem& item) { return item.agg_fn.has_value(); });
  const bool grouped = has_agg || !stmt.group_by.empty();

  if (grouped) {
    std::vector<ExprPtr> group_exprs;
    for (const ExprPtr& g : stmt.group_by) {
      ExprPtr bound = g->Clone();
      SOFTDB_RETURN_IF_ERROR(bound->Bind(plan->output_schema()));
      group_exprs.push_back(std::move(bound));
    }
    std::vector<AggregateItem> aggs;
    for (const SelectItem& item : stmt.items) {
      if (!item.agg_fn.has_value()) continue;
      AggregateItem agg;
      agg.fn = static_cast<AggFn>(*item.agg_fn);
      if (item.agg_arg) {
        agg.arg = item.agg_arg->Clone();
        SOFTDB_RETURN_IF_ERROR(agg.arg->Bind(plan->output_schema()));
      }
      agg.name = item.alias;
      aggs.push_back(std::move(agg));
    }
    plan = std::make_unique<AggregateNode>(std::move(plan),
                                           std::move(group_exprs),
                                           std::move(aggs));
  }

  // 6. Projection of the select list against the current output schema.
  std::vector<ExprPtr> proj_exprs;
  std::vector<std::string> proj_names;
  bool identity_projection = true;
  if (grouped) {
    // Output schema is group columns followed by aggregates, in order.
    const Schema& agg_schema = plan->output_schema();
    std::size_t agg_pos =
        static_cast<const AggregateNode*>(plan.get())->group_by().size();
    for (const SelectItem& item : stmt.items) {
      if (item.star) {
        return Status::BindError("SELECT * not allowed with GROUP BY");
      }
      if (item.agg_fn.has_value()) {
        const ColumnDef& def =
            agg_schema.Column(static_cast<ColumnIdx>(agg_pos));
        proj_exprs.push_back(std::make_unique<ColumnRefExpr>(
            def.QualifiedName(), static_cast<ColumnIdx>(agg_pos), def.type));
        proj_names.push_back(item.alias.empty() ? def.name : item.alias);
        ++agg_pos;
      } else {
        ExprPtr bound = item.expr->Clone();
        SOFTDB_RETURN_IF_ERROR(bound->Bind(agg_schema));
        proj_names.push_back(item.alias.empty() ? bound->ToString()
                                                : item.alias);
        proj_exprs.push_back(std::move(bound));
      }
    }
    identity_projection = false;
  } else {
    for (const SelectItem& item : stmt.items) {
      if (item.star) {
        const Schema& schema = plan->output_schema();
        for (ColumnIdx i = 0; i < schema.NumColumns(); ++i) {
          const ColumnDef& def = schema.Column(i);
          proj_exprs.push_back(std::make_unique<ColumnRefExpr>(
              def.QualifiedName(), i, def.type));
          proj_names.push_back(def.name);
        }
        continue;
      }
      ExprPtr bound = item.expr->Clone();
      SOFTDB_RETURN_IF_ERROR(bound->Bind(plan->output_schema()));
      if (bound->kind() != ExprKind::kColumnRef || !item.alias.empty()) {
        identity_projection = false;
      }
      proj_names.push_back(item.alias.empty() ? bound->ToString()
                                              : item.alias);
      proj_exprs.push_back(std::move(bound));
    }
    if (proj_exprs.size() != plan->output_schema().NumColumns()) {
      identity_projection = false;
    }
  }

  // 7. ORDER BY: bind below the projection when possible (projection
  // preserves order), above it otherwise.
  std::vector<SortKey> below_keys;
  bool sort_below = true;
  for (const OrderItem& item : stmt.order_by) {
    ExprPtr bound = item.expr->Clone();
    if (bound->Bind(plan->output_schema()).ok()) {
      below_keys.push_back(SortKey{std::move(bound), item.ascending});
    } else {
      sort_below = false;
      break;
    }
  }
  if (!stmt.order_by.empty() && sort_below) {
    plan = std::make_unique<SortNode>(std::move(plan), std::move(below_keys));
  }

  if (!identity_projection || grouped) {
    plan = std::make_unique<ProjectNode>(std::move(plan),
                                         std::move(proj_exprs),
                                         std::move(proj_names));
  }

  if (!stmt.order_by.empty() && !sort_below) {
    std::vector<SortKey> above_keys;
    for (const OrderItem& item : stmt.order_by) {
      ExprPtr bound = item.expr->Clone();
      SOFTDB_RETURN_IF_ERROR(bound->Bind(plan->output_schema()));
      above_keys.push_back(SortKey{std::move(bound), item.ascending});
    }
    plan = std::make_unique<SortNode>(std::move(plan), std::move(above_keys));
  }

  if (stmt.limit.has_value()) {
    plan = std::make_unique<LimitNode>(std::move(plan), *stmt.limit);
  }
  return plan;
}

}  // namespace softdb
