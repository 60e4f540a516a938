// Reference evaluator for differential tests: a tree-walking, row-at-a-time
// interpreter over *bound, unrewritten* logical plans, built on Expr::Eval
// and its Kleene (3VL) rules. It shares no code with the physical planner
// or the batch operators, so an executor or rewrite bug cannot hide behind
// it. Test-only: it is slow (nested-loop joins, linear group search) and
// meant for tables of a few thousand rows.
//
// ExpectMatchesReference compares an engine result with the reference:
// rows as bags (a row renders each value with Value::ToString), tie groups
// of ORDER BY in order, LIMIT as a sub-bag of its input of the right size,
// and every output value's type against its schema column's type.

#ifndef SOFTDB_TESTS_REFERENCE_EVAL_H_
#define SOFTDB_TESTS_REFERENCE_EVAL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "engine/softdb.h"
#include "plan/logical_plan.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace softdb::reference {

/// Rows in output order plus, per row, the ORDER BY tie group it belongs
/// to: rows of one group may come in any order, groups may not. An
/// unordered result is a single group.
struct RefRows {
  std::vector<std::vector<Value>> rows;
  std::vector<std::size_t> group;
};

inline bool PassesAll(const std::vector<Predicate>& preds,
                      const std::vector<Value>& row, Status* error) {
  for (const Predicate& p : preds) {
    if (p.estimation_only) continue;
    Result<Value> v = p.expr->Eval(row);
    if (!v.ok()) {
      *error = v.status();
      return false;
    }
    if (v->is_null() || !v->AsBool()) return false;  // NULL is not TRUE.
  }
  return true;
}

inline int CompareOrZero(const Value& a, const Value& b) {
  Result<int> cmp = a.Compare(b);
  return cmp.ok() ? *cmp : 0;
}

inline Result<RefRows> Eval(const PlanNode& node, const Catalog& catalog);

inline Result<RefRows> EvalAggregate(const AggregateNode& agg,
                                     const RefRows& in) {
  struct Group {
    std::vector<Value> keys;
    std::vector<std::vector<Value>> args;  // Non-NULL argument values.
    std::size_t rows = 0;
  };
  std::vector<Group> groups;
  for (const std::vector<Value>& row : in.rows) {
    std::vector<Value> keys;
    for (const ExprPtr& g : agg.group_by()) {
      SOFTDB_ASSIGN_OR_RETURN(Value v, g->Eval(row));
      keys.push_back(std::move(v));
    }
    Group* hit = nullptr;
    for (Group& g : groups) {
      bool same = true;
      for (std::size_t i = 0; i < keys.size() && same; ++i) {
        same = !agg.key_flags()[i] || g.keys[i].GroupEquals(keys[i]);
      }
      if (same) {
        hit = &g;
        break;
      }
    }
    if (hit == nullptr) {
      groups.push_back(Group{keys, {}, 0});
      groups.back().args.resize(agg.aggregates().size());
      hit = &groups.back();
    }
    ++hit->rows;
    for (std::size_t a = 0; a < agg.aggregates().size(); ++a) {
      const AggregateItem& item = agg.aggregates()[a];
      if (item.fn == AggFn::kCountStar) continue;
      SOFTDB_ASSIGN_OR_RETURN(Value v, item.arg->Eval(row));
      if (!v.is_null()) hit->args[a].push_back(std::move(v));
    }
  }
  if (groups.empty() && agg.group_by().empty()) {
    groups.push_back(Group{{}, {}, 0});
    groups.back().args.resize(agg.aggregates().size());
  }
  RefRows out;
  for (const Group& g : groups) {
    std::vector<Value> row = g.keys;
    for (std::size_t a = 0; a < agg.aggregates().size(); ++a) {
      const std::vector<Value>& vals = g.args[a];
      double sum = 0.0;
      bool any_double = false;
      for (const Value& v : vals) {
        sum += v.NumericValue();
        any_double = any_double || v.type() == TypeId::kDouble;
      }
      switch (agg.aggregates()[a].fn) {
        case AggFn::kCountStar:
          row.push_back(Value::Int64(static_cast<std::int64_t>(g.rows)));
          break;
        case AggFn::kCount:
          row.push_back(Value::Int64(static_cast<std::int64_t>(vals.size())));
          break;
        case AggFn::kSum:
          row.push_back(vals.empty() ? Value::Null(TypeId::kDouble)
                        : any_double
                            ? Value::Double(sum)
                            : Value::Int64(static_cast<std::int64_t>(sum)));
          break;
        case AggFn::kAvg:
          row.push_back(vals.empty()
                            ? Value::Null(TypeId::kDouble)
                            : Value::Double(sum / static_cast<double>(
                                                      vals.size())));
          break;
        case AggFn::kMin:
        case AggFn::kMax: {
          if (vals.empty()) {
            row.push_back(Value::Null());
            break;
          }
          const bool want_min = agg.aggregates()[a].fn == AggFn::kMin;
          Value best = vals[0];
          for (const Value& v : vals) {
            const int c = CompareOrZero(v, best);
            if (want_min ? c < 0 : c > 0) best = v;
          }
          row.push_back(best);
          break;
        }
      }
    }
    out.rows.push_back(std::move(row));
    out.group.push_back(0);
  }
  return out;
}

inline Result<RefRows> Eval(const PlanNode& node, const Catalog& catalog) {
  Status error = Status::OK();
  RefRows out;
  switch (node.kind()) {
    case PlanKind::kScan: {
      const auto& scan = static_cast<const ScanNode&>(node);
      const Table* table = scan.external_table();
      if (table == nullptr) {
        SOFTDB_ASSIGN_OR_RETURN(Table * t, catalog.GetTable(scan.table_name()));
        table = t;
      }
      for (RowId r = 0; r < table->NumSlots(); ++r) {
        if (!table->IsLive(r)) continue;
        std::vector<Value> row = table->GetRow(r);
        if (PassesAll(scan.predicates(), row, &error)) {
          out.rows.push_back(std::move(row));
          out.group.push_back(0);
        }
        SOFTDB_RETURN_IF_ERROR(error);
      }
      return out;
    }
    case PlanKind::kFilter: {
      const auto& filter = static_cast<const FilterNode&>(node);
      SOFTDB_ASSIGN_OR_RETURN(RefRows in, Eval(*node.children()[0], catalog));
      for (std::size_t i = 0; i < in.rows.size(); ++i) {
        if (PassesAll(filter.predicates(), in.rows[i], &error)) {
          out.rows.push_back(std::move(in.rows[i]));
          out.group.push_back(in.group[i]);
        }
        SOFTDB_RETURN_IF_ERROR(error);
      }
      return out;
    }
    case PlanKind::kProject: {
      const auto& proj = static_cast<const ProjectNode&>(node);
      SOFTDB_ASSIGN_OR_RETURN(RefRows in, Eval(*node.children()[0], catalog));
      for (const std::vector<Value>& row : in.rows) {
        std::vector<Value> projected;
        for (const ExprPtr& e : proj.exprs()) {
          SOFTDB_ASSIGN_OR_RETURN(Value v, e->Eval(row));
          projected.push_back(std::move(v));
        }
        out.rows.push_back(std::move(projected));
      }
      out.group = std::move(in.group);
      return out;
    }
    case PlanKind::kJoin: {
      const auto& join = static_cast<const JoinNode&>(node);
      SOFTDB_ASSIGN_OR_RETURN(RefRows left, Eval(*node.children()[0], catalog));
      SOFTDB_ASSIGN_OR_RETURN(RefRows right,
                              Eval(*node.children()[1], catalog));
      for (const std::vector<Value>& l : left.rows) {
        for (const std::vector<Value>& r : right.rows) {
          bool match = true;
          for (const JoinNode::EquiKey& k : join.equi_keys()) {
            const Value& lv = l[k.left];
            const Value& rv = r[k.right];
            if (lv.is_null() || rv.is_null() || !lv.GroupEquals(rv)) {
              match = false;
              break;
            }
          }
          if (!match) continue;
          std::vector<Value> combined = l;
          combined.insert(combined.end(), r.begin(), r.end());
          if (PassesAll(join.conditions(), combined, &error)) {
            out.rows.push_back(std::move(combined));
            out.group.push_back(0);
          }
          SOFTDB_RETURN_IF_ERROR(error);
        }
      }
      return out;
    }
    case PlanKind::kAggregate: {
      SOFTDB_ASSIGN_OR_RETURN(RefRows in, Eval(*node.children()[0], catalog));
      return EvalAggregate(static_cast<const AggregateNode&>(node), in);
    }
    case PlanKind::kSort: {
      const auto& sort = static_cast<const SortNode&>(node);
      SOFTDB_ASSIGN_OR_RETURN(RefRows in, Eval(*node.children()[0], catalog));
      std::vector<std::vector<Value>> keys(in.rows.size());
      for (std::size_t i = 0; i < in.rows.size(); ++i) {
        for (const SortKey& k : sort.keys()) {
          SOFTDB_ASSIGN_OR_RETURN(Value v, k.expr->Eval(in.rows[i]));
          keys[i].push_back(std::move(v));
        }
      }
      const auto key_cmp = [&](std::size_t a, std::size_t b) {
        for (std::size_t k = 0; k < sort.keys().size(); ++k) {
          const int c = CompareOrZero(keys[a][k], keys[b][k]);
          if (c != 0) return sort.keys()[k].ascending ? c : -c;
        }
        return 0;
      };
      std::vector<std::size_t> order(in.rows.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return key_cmp(a, b) < 0;
                       });
      std::size_t group = 0;
      for (std::size_t i = 0; i < order.size(); ++i) {
        if (i > 0 && key_cmp(order[i - 1], order[i]) != 0) ++group;
        out.rows.push_back(in.rows[order[i]]);
        out.group.push_back(group);
      }
      return out;
    }
    case PlanKind::kUnionAll: {
      for (const PlanPtr& child : node.children()) {
        SOFTDB_ASSIGN_OR_RETURN(RefRows in, Eval(*child, catalog));
        for (std::vector<Value>& row : in.rows) {
          out.rows.push_back(std::move(row));
          out.group.push_back(0);
        }
      }
      return out;
    }
    case PlanKind::kLimit: {
      const auto& limit = static_cast<const LimitNode&>(node);
      SOFTDB_ASSIGN_OR_RETURN(out, Eval(*node.children()[0], catalog));
      if (out.rows.size() > limit.limit()) {
        out.rows.resize(limit.limit());
        out.group.resize(limit.limit());
      }
      return out;
    }
  }
  return Status::Internal("unknown plan node");
}

/// Parses and binds `sql` (a SELECT) against the catalog without rewrites.
inline Result<PlanPtr> BindSelect(const std::string& sql,
                                  const Catalog& catalog) {
  SOFTDB_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  if (stmt.kind != Statement::Kind::kSelect) {
    return Status::InvalidArgument("not a SELECT: " + sql);
  }
  Binder binder(&catalog);
  return binder.BindSelect(*stmt.select);
}

inline std::string RenderRow(const std::vector<Value>& row) {
  std::string out;
  for (const Value& v : row) out += v.ToString() + "|";
  return out;
}

/// Checks `got` (an engine result for `sql`) against the reference
/// evaluation of `sql`'s bound plan over `catalog`.
inline void ExpectMatchesReference(const std::string& sql,
                                   const Catalog& catalog,
                                   const RowSet& got) {
  Result<PlanPtr> plan = BindSelect(sql, catalog);
  ASSERT_TRUE(plan.ok()) << sql << " -> " << plan.status().ToString();
  // Under LIMIT n the engine may return any n rows of the input (the first
  // n in ORDER BY order, ties broken freely): evaluate the input whole.
  const PlanNode* root = plan->get();
  std::size_t limit = SIZE_MAX;
  if (root->kind() == PlanKind::kLimit) {
    limit = static_cast<const LimitNode*>(root)->limit();
    root = root->children()[0].get();
  }
  Result<RefRows> want = Eval(*root, catalog);
  ASSERT_TRUE(want.ok()) << sql << " -> " << want.status().ToString();
  const std::size_t n = std::min(limit, want->rows.size());
  ASSERT_EQ(got.NumRows(), n) << sql;

  // The output contract: every value carries its schema column's type.
  for (std::size_t i = 0; i < got.NumRows(); ++i) {
    ASSERT_EQ(got.rows[i].size(), got.schema.NumColumns()) << sql;
    for (std::size_t c = 0; c < got.rows[i].size(); ++c) {
      ASSERT_EQ(got.rows[i][c].type(),
                got.schema.Column(static_cast<ColumnIdx>(c)).type)
          << sql << " row " << i << " col " << c;
    }
  }

  // Walk tie groups in order: the engine's rows at a group's positions
  // must be a sub-bag of the group (all of it unless LIMIT cut it short).
  std::size_t pos = 0;
  while (pos < n) {
    std::size_t end = pos;
    while (end < want->rows.size() && want->group[end] == want->group[pos]) {
      ++end;
    }
    std::map<std::string, int> bag;
    for (std::size_t i = pos; i < end; ++i) ++bag[RenderRow(want->rows[i])];
    const std::size_t take = std::min(end, n);
    for (std::size_t i = pos; i < take; ++i) {
      const std::string row = RenderRow(got.rows[i]);
      ASSERT_GT(bag[row]--, 0)
          << sql << ": row " << i << " " << row
          << " is not in the reference result at this position";
    }
    pos = end;
  }
}

}  // namespace softdb::reference

#endif  // SOFTDB_TESTS_REFERENCE_EVAL_H_
