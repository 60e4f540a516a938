#include "optimizer/planner.h"

#include <algorithm>
#include <cmath>

#include "analysis/certificate.h"
#include "analysis/implication.h"
#include "analysis/plan_verifier.h"
#include "constraints/zone_map_sc.h"
#include "optimizer/range_analysis.h"

namespace softdb {

namespace {

/// Clones the executable predicates only: twinned (estimation-only) SSC
/// predicates exist for the costing layer and must never reach an
/// executor's predicate list (PlanVerifier enforces this).
std::vector<Predicate> CloneExecutablePredicates(
    const std::vector<Predicate>& preds) {
  std::vector<Predicate> out;
  out.reserve(preds.size());
  for (const Predicate& p : preds) {
    if (p.estimation_only) continue;
    out.push_back(p.Clone());
  }
  return out;
}

/// Converts a numeric range bound to a Value of the column's type for index
/// probing. Integer-family columns round conservatively (floor for lower
/// bounds is wrong — we must not miss rows — so lower bounds use ceil when
/// exclusive handling would drop them; here bounds are already inclusive
/// ranges from ColumnRange, so floor/ceil keep soundness).
Value BoundValue(double v, TypeId type, bool is_lower) {
  switch (type) {
    case TypeId::kDouble:
      return Value::Double(v);
    case TypeId::kDate:
      return Value::Date(static_cast<std::int64_t>(
          is_lower ? std::ceil(v - 1e-9) : std::floor(v + 1e-9)));
    default:
      return Value::Int64(static_cast<std::int64_t>(
          is_lower ? std::ceil(v - 1e-9) : std::floor(v + 1e-9)));
  }
}

/// §4.2 runtime parameterization: simple predicates over indexed columns
/// are re-checked against the index's *current* min/max at every Open, so
/// the compiled plan adapts to updates without invalidation. Shared by the
/// serial scan and the parallel pipeline spec.
template <typename ScanOpT>
void WireRuntimeParams(const OptimizerContext* ctx, const ScanNode& scan,
                       ScanOpT* op) {
  if (!ctx->enable_runtime_parameterization ||
      scan.external_table() != nullptr) {
    return;
  }
  // Iterate the op's own (twin-stripped) predicate list so the recorded
  // predicate_index stays valid after estimation-only predicates were
  // filtered out of the executable list.
  for (std::size_t i = 0; i < op->predicates().size(); ++i) {
    const Predicate& p = op->predicates()[i];
    SimplePredicate sp;
    if (!MatchSimplePredicate(*p.expr, &sp)) continue;
    for (const Index* index : ctx->catalog->IndexesOn(scan.table_name())) {
      if (index->column() == sp.column) {
        op->AddRuntimeParameter(i, index, sp);
        break;
      }
    }
  }
}

// ------------------------------------------------- zone-map block skipping

bool ZmIntLike(TypeId t) {
  return t == TypeId::kInt64 || t == TypeId::kDate || t == TypeId::kBool;
}
bool ZmNumeric(TypeId t) { return ZmIntLike(t) || t == TypeId::kDouble; }
bool ZmSameFamily(TypeId a, TypeId b) {
  if (ZmNumeric(a) && ZmNumeric(b)) return true;
  return a == b;
}

const ColumnRefExpr* AsBoundColumn(const Expr* e) {
  if (e->kind() != ExprKind::kColumnRef) return nullptr;
  const auto* ref = static_cast<const ColumnRefExpr*>(e);
  return ref->bound() ? ref : nullptr;
}

const Value* AsLiteral(const Expr* e) {
  if (e->kind() != ExprKind::kLiteral) return nullptr;
  return &static_cast<const LiteralExpr*>(e)->value();
}

/// True when one comparison operand pairing cannot raise a type error on
/// any row: a NULL literal short-circuits to NULL before family checks,
/// and a non-NULL literal errors iff its family differs from the column's.
bool OperandPairErrorFree(TypeId col_type, const Value& literal) {
  return literal.is_null() || ZmSameFamily(col_type, literal.type());
}

/// Whether evaluating `e` can provably never raise a runtime error on ANY
/// row of `schema`. This gates zone-map skipping: a skipped block's rows
/// are never evaluated, so every predicate of the scan — not only the one
/// that proved the block empty — must be statically error-free, or a
/// pruned scan could silently swallow a type error evaluation raises.
bool PredicateErrorFree(const Expr& e, const Schema& schema) {
  switch (e.kind()) {
    case ExprKind::kComparison: {
      const auto& cmp = static_cast<const ComparisonExpr&>(e);
      const ColumnRefExpr* lc = AsBoundColumn(cmp.left());
      const ColumnRefExpr* rc = AsBoundColumn(cmp.right());
      const Value* lv = AsLiteral(cmp.left());
      const Value* rv = AsLiteral(cmp.right());
      if (lc != nullptr && rv != nullptr) {
        return OperandPairErrorFree(schema.Column(lc->index()).type, *rv);
      }
      if (rc != nullptr && lv != nullptr) {
        return OperandPairErrorFree(schema.Column(rc->index()).type, *lv);
      }
      if (lc != nullptr && rc != nullptr) {
        return ZmSameFamily(schema.Column(lc->index()).type,
                            schema.Column(rc->index()).type);
      }
      return false;
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const BetweenExpr&>(e);
      const ColumnRefExpr* col = AsBoundColumn(bt.input());
      const Value* lo = AsLiteral(bt.lo());
      const Value* hi = AsLiteral(bt.hi());
      if (col == nullptr || lo == nullptr || hi == nullptr) return false;
      const TypeId t = schema.Column(col->index()).type;
      return OperandPairErrorFree(t, *lo) && OperandPairErrorFree(t, *hi);
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(e);
      const ColumnRefExpr* col = AsBoundColumn(in.input());
      if (col == nullptr) return false;
      const TypeId t = schema.Column(col->index()).type;
      for (const ExprPtr& item : in.list()) {
        const Value* v = AsLiteral(item.get());
        if (v == nullptr || !OperandPairErrorFree(t, *v)) return false;
      }
      return true;
    }
    case ExprKind::kIsNull:
      return AsBoundColumn(
                 static_cast<const IsNullExpr&>(e).input()) != nullptr;
    default:
      return false;  // Logical / arithmetic shapes: assume they can raise.
  }
}

/// The prune tests one scan's predicates impose on one zone-mapped column.
struct ZonePruneTests {
  std::vector<Interval> intervals;  // From comparisons / BETWEEN halves.
  bool has_comparison = false;      // Any value test (rejects NULL rows).
  bool has_is_null = false;         // Bare `col IS NULL` conjunct.
  bool has_is_not_null = false;     // Bare `col IS NOT NULL` conjunct.
};

ZonePruneTests CollectPruneTests(const std::vector<Predicate>& preds,
                                 ColumnIdx column) {
  ZonePruneTests tests;
  std::vector<SimplePredicate> sps;
  for (const Predicate& p : preds) {
    if (p.estimation_only) continue;
    sps.clear();
    if (ExpandSimplePredicates(*p.expr, &sps)) {
      for (const SimplePredicate& sp : sps) {
        if (sp.column != column || sp.constant.is_null() ||
            !ZmNumeric(sp.constant.type())) {
          continue;
        }
        tests.has_comparison = true;
        // kNe yields no interval: it only excludes a point, which cannot
        // empty a [min, max] envelope wider than that point.
        if (auto iv = IntervalForComparison(sp.op, sp.constant)) {
          tests.intervals.push_back(*iv);
        }
      }
      continue;
    }
    if (p.expr->kind() == ExprKind::kIsNull) {
      const auto& isn = static_cast<const IsNullExpr&>(*p.expr);
      const ColumnRefExpr* col = AsBoundColumn(isn.input());
      if (col != nullptr && col->index() == column) {
        (isn.negated() ? tests.has_is_not_null : tests.has_is_null) = true;
      }
    }
  }
  return tests;
}

}  // namespace

ZoneMapSkips PhysicalPlanner::ZoneMapSkipsFor(const ScanNode& scan,
                                              const Table* table) const {
  auto it = zone_skip_memo_.find(&scan);
  if (it != zone_skip_memo_.end()) return it->second;
  ZoneMapSkips skips = ComputeZoneMapSkips(scan, table);
  zone_skip_memo_.emplace(&scan, skips);
  return skips;
}

ZoneMapSkips PhysicalPlanner::ComputeZoneMapSkips(const ScanNode& scan,
                                                  const Table* table) const {
  if (!ctx_->enable_zone_maps || ctx_->scs == nullptr ||
      scan.external_table() != nullptr) {
    return nullptr;
  }
  const std::size_t nblocks =
      (table->NumSlots() + kZoneMapBlockRows - 1) / kZoneMapBlockRows;
  if (nblocks == 0) return nullptr;

  std::vector<ZoneMapSc*> maps;
  for (SoftConstraint* sc : ctx_->scs->On(scan.table_name())) {
    if (sc->kind() != ScKind::kBlockZoneMap || !sc->IsAbsolute()) continue;
    auto* zm = static_cast<ZoneMapSc*>(sc);
    if (!ZmNumeric(table->schema().Column(zm->column()).type)) continue;
    maps.push_back(zm);
  }
  if (maps.empty()) return nullptr;

  // Error-reachability gate: see PredicateErrorFree.
  for (const Predicate& p : scan.predicates()) {
    if (p.estimation_only) continue;
    if (!PredicateErrorFree(*p.expr, table->schema())) return nullptr;
  }

  auto skips = std::make_shared<std::vector<std::uint8_t>>(nblocks, 0);
  bool any_test = false;
  for (ZoneMapSc* zm : maps) {
    const ZonePruneTests tests =
        CollectPruneTests(scan.predicates(), zm->column());
    if (!tests.has_comparison && !tests.has_is_null &&
        !tests.has_is_not_null) {
      continue;
    }
    any_test = true;
    // The certificate records the epoch these blocks were read at.
    std::uint64_t zm_epoch = 0;
    const std::vector<ZoneMapSc::BlockSma> blocks =
        zm->SnapshotBlocks(&zm_epoch);
    const std::size_t n = std::min(nblocks, blocks.size());
    std::uint64_t contributed = 0;
    std::vector<std::uint64_t> sc_blocks;
    for (std::size_t b = 0; b < n; ++b) {
      bool skip = false;
      if (!blocks[b].has_value) {
        // No live non-NULL value in the block: any value test (which NULL
        // rows can never satisfy) or IS NOT NULL proves it empty.
        skip = tests.has_comparison || tests.has_is_not_null;
      } else {
        // Comparisons are decided in double space, exactly as DomainSc
        // classifies predicates (int64 beyond 2^53 loses precision both
        // places; the envelope stays an over-approximation either way).
        const Interval envelope =
            Interval::Range(blocks[b].min, blocks[b].max);
        for (const Interval& iv : tests.intervals) {
          Interval clipped = iv;
          clipped.Intersect(envelope);
          if (clipped.empty) {
            skip = true;
            break;
          }
        }
      }
      if (!skip && tests.has_is_null && blocks[b].null_count == 0) {
        skip = true;  // `col IS NULL` over a provably NULL-free block.
      }
      if (skip) {
        if ((*skips)[b] == 0) (*skips)[b] = 1;
        ++contributed;
        sc_blocks.push_back(b);
      }
    }
    if (contributed > 0) {
      // Rewrite-consumed: the skip set's validity rests on this SC, so the
      // epoch-snapshot / degraded-retry protocol must cover it. Benefit is
      // the simulated pages of row work avoided.
      ctx_->RecordScUse(zm->name(),
                        static_cast<double>(contributed) *
                            (static_cast<double>(kZoneMapBlockRows) /
                             static_cast<double>(kRowsPerPage)),
                        /*rewrite_consumed=*/true);
      RewriteCertificate cert;
      cert.kind = CertificateKind::kZoneMapSkip;
      cert.rule = "zone-map-skip: " + zm->name();
      cert.table = scan.table_name();
      cert.zm_column = zm->column();
      cert.skipped_blocks = sc_blocks;
      for (std::uint64_t b : sc_blocks) {
        CertificatePremise p;
        p.kind = CertificatePremise::Kind::kZoneBlock;
        p.source = "sc:" + zm->name();
        p.sc_epochs.emplace_back(zm->name(), zm_epoch);
        p.block_index = b;
        p.block_min = blocks[b].min;
        p.block_max = blocks[b].max;
        p.block_has_value = blocks[b].has_value;
        p.block_null_count = blocks[b].null_count;
        cert.premises.push_back(std::move(p));
      }
      for (const Predicate& pred : scan.predicates()) {
        if (!pred.estimation_only) {
          cert.premise_exprs.push_back(pred.expr->Clone());
        }
      }
      ctx_->RecordCertificate(std::move(cert));
    }
  }
  if (!any_test) return nullptr;
  return skips;
}

Result<AccessPathChoice> PhysicalPlanner::ChooseAccessPath(
    const ScanNode& scan) const {
  AccessPathChoice choice;
  const Table* table = scan.external_table();
  if (table == nullptr) {
    SOFTDB_ASSIGN_OR_RETURN(Table * t, ctx_->catalog->GetTable(scan.table_name()));
    table = t;
  }
  choice.seq_cost_pages = static_cast<double>(table->NumPages());
  choice.cost_pages = choice.seq_cost_pages;
  if (scan.external_table() != nullptr) return choice;  // No indexes on ASTs.

  const RangeMap ranges =
      BuildRangeMap(scan.predicates(), /*include_estimation_only=*/false);
  if (ranges.unsatisfiable) {
    choice.cost_pages = 0.0;
    return choice;
  }

  const double rows = static_cast<double>(table->NumRows());
  for (const Index* index : ctx_->catalog->IndexesOn(scan.table_name())) {
    const ColumnRange* range = ranges.Find(index->column());
    if (range == nullptr || (!range->Bounded() && !range->equal.has_value())) {
      continue;
    }
    const double selectivity = estimator_->RangeSelectivity(
        scan.table_name(), index->column(), *range);
    const double matching = selectivity * rows;
    // Leaf pages of the range + data pages scaled by the index's measured
    // clustering (page-switch density), capped at the table's page count.
    const double data_pages =
        std::min(static_cast<double>(table->NumPages()),
                 matching * index->PageSwitchDensity());
    const double cost =
        matching / static_cast<double>(kRowsPerPage) + data_pages + 1.0;
    if (cost < choice.cost_pages) {
      choice.cost_pages = cost;
      choice.index = index;
      const TypeId col_type =
          table->schema().Column(index->column()).type;
      if (range->equal.has_value()) {
        choice.lo = *range->equal;
        choice.hi = *range->equal;
        choice.lo_inclusive = choice.hi_inclusive = true;
      } else {
        if (std::isfinite(range->lo)) {
          choice.lo = BoundValue(range->lo, col_type, /*is_lower=*/false);
          choice.lo_inclusive = true;  // Conservative: never miss rows.
        } else {
          choice.lo.reset();
        }
        if (std::isfinite(range->hi)) {
          choice.hi = BoundValue(range->hi, col_type, /*is_lower=*/true);
          choice.hi_inclusive = true;
        } else {
          choice.hi.reset();
        }
      }
    }
  }
  return choice;
}

Result<OperatorPtr> PhysicalPlanner::Plan(const PlanNode& node) const {
  SOFTDB_ASSIGN_OR_RETURN(OperatorPtr root,
                          Plan(node, /*under_limit=*/false));
  if (ShouldVerifyPlans(ctx_->verify_plans)) {
    PlanVerifier verifier({ctx_->catalog, ctx_->mvs, &ctx_->exception_asts});
    SOFTDB_RETURN_IF_ERROR(
        verifier.VerifyPhysical(*root, "physical-planning"));
  }
  return root;
}

Result<std::optional<PipelineSpec>> PhysicalPlanner::TryBuildPipelineSpec(
    const PlanNode& node, bool allow_project) const {
  switch (node.kind()) {
    case PlanKind::kScan: {
      const auto& scan = static_cast<const ScanNode&>(node);
      // External tables (exception ASTs) have no morsel-splittable
      // storage contract; unsatisfiable scans become EmptyOp; index
      // access paths stay serial.
      if (scan.external_table() != nullptr) return std::optional<PipelineSpec>();
      const RangeMap ranges =
          BuildRangeMap(scan.predicates(), /*include_estimation_only=*/false);
      if (ranges.unsatisfiable) return std::optional<PipelineSpec>();
      SOFTDB_ASSIGN_OR_RETURN(AccessPathChoice choice, ChooseAccessPath(scan));
      if (choice.index != nullptr) return std::optional<PipelineSpec>();
      SOFTDB_ASSIGN_OR_RETURN(Table * table,
                              ctx_->catalog->GetTable(scan.table_name()));
      PipelineSpec spec;
      spec.table = table;
      spec.scan_schema = scan.output_schema();
      spec.scan_predicates = CloneExecutablePredicates(scan.predicates());
      WireRuntimeParams(ctx_, scan, &spec);
      spec.zone_skips = ZoneMapSkipsFor(scan, table);
      return std::optional<PipelineSpec>(std::move(spec));
    }
    case PlanKind::kFilter: {
      const auto& filter = static_cast<const FilterNode&>(node);
      SOFTDB_ASSIGN_OR_RETURN(
          std::optional<PipelineSpec> child,
          TryBuildPipelineSpec(*node.children()[0], /*allow_project=*/false));
      if (!child.has_value()) return std::optional<PipelineSpec>();
      PipelineStage stage;
      stage.kind = PipelineStage::Kind::kFilter;
      stage.predicates = CloneExecutablePredicates(filter.predicates());
      child->stages.push_back(std::move(stage));
      return child;
    }
    case PlanKind::kProject: {
      if (!allow_project) return std::optional<PipelineSpec>();
      const auto& proj = static_cast<const ProjectNode&>(node);
      SOFTDB_ASSIGN_OR_RETURN(
          std::optional<PipelineSpec> child,
          TryBuildPipelineSpec(*node.children()[0], /*allow_project=*/false));
      if (!child.has_value()) return std::optional<PipelineSpec>();
      PipelineStage stage;
      stage.kind = PipelineStage::Kind::kProject;
      stage.schema = proj.output_schema();
      stage.exprs.reserve(proj.exprs().size());
      for (const ExprPtr& e : proj.exprs()) stage.exprs.push_back(e->Clone());
      child->stages.push_back(std::move(stage));
      return child;
    }
    default:
      return std::optional<PipelineSpec>();
  }
}

Result<OperatorPtr> PhysicalPlanner::TryPlanParallel(
    const PlanNode& node) const {
  switch (node.kind()) {
    case PlanKind::kScan:
    case PlanKind::kFilter:
    case PlanKind::kProject: {
      SOFTDB_ASSIGN_OR_RETURN(std::optional<PipelineSpec> spec,
                              TryBuildPipelineSpec(node, /*allow_project=*/true));
      if (!spec.has_value()) return OperatorPtr(nullptr);
      return OperatorPtr(std::make_unique<ParallelPipelineOp>(
          std::move(*spec), ctx_->parallel_morsel_rows));
    }
    case PlanKind::kJoin: {
      const auto& join = static_cast<const JoinNode&>(node);
      if (join.equi_keys().empty()) return OperatorPtr(nullptr);
      // Both inputs must be scan pipelines; nested joins stay serial.
      SOFTDB_ASSIGN_OR_RETURN(
          std::optional<PipelineSpec> probe,
          TryBuildPipelineSpec(*node.children()[0], /*allow_project=*/true));
      if (!probe.has_value()) return OperatorPtr(nullptr);
      SOFTDB_ASSIGN_OR_RETURN(
          std::optional<PipelineSpec> build,
          TryBuildPipelineSpec(*node.children()[1], /*allow_project=*/true));
      if (!build.has_value()) return OperatorPtr(nullptr);
      return OperatorPtr(std::make_unique<ParallelHashJoinOp>(
          std::move(*probe), std::move(*build), join.equi_keys(),
          CloneExecutablePredicates(join.conditions()),
          ctx_->parallel_morsel_rows));
    }
    default:
      return OperatorPtr(nullptr);
  }
}

Result<OperatorPtr> PhysicalPlanner::Plan(const PlanNode& node,
                                          bool under_limit) const {
  // Parallel-safe subtrees first: morsel-driven execution subsumes the
  // serial lowering for the shapes it supports. Never under LIMIT — the
  // kParallelSafety invariant.
  if (!under_limit && ctx_->num_threads > 1) {
    SOFTDB_ASSIGN_OR_RETURN(OperatorPtr par, TryPlanParallel(node));
    if (par) return par;
  }
  switch (node.kind()) {
    case PlanKind::kScan: {
      const auto& scan = static_cast<const ScanNode&>(node);
      const Table* table = scan.external_table();
      if (table == nullptr) {
        SOFTDB_ASSIGN_OR_RETURN(Table * t,
                                ctx_->catalog->GetTable(scan.table_name()));
        table = t;
      }
      const RangeMap ranges =
          BuildRangeMap(scan.predicates(), /*include_estimation_only=*/false);
      if (ranges.unsatisfiable) {
        return OperatorPtr(std::make_unique<EmptyOp>(scan.output_schema()));
      }
      SOFTDB_ASSIGN_OR_RETURN(AccessPathChoice choice, ChooseAccessPath(scan));
      if (choice.index != nullptr) {
        return OperatorPtr(std::make_unique<IndexRangeScanOp>(
            table, choice.index, scan.output_schema(), choice.lo,
            choice.lo_inclusive, choice.hi, choice.hi_inclusive,
            CloneExecutablePredicates(scan.predicates())));
      }
      auto seq = std::make_unique<SeqScanOp>(
          table, scan.output_schema(),
          CloneExecutablePredicates(scan.predicates()));
      WireRuntimeParams(ctx_, scan, seq.get());
      seq->SetZoneMapSkips(ZoneMapSkipsFor(scan, table));
      return OperatorPtr(std::move(seq));
    }
    case PlanKind::kFilter: {
      const auto& filter = static_cast<const FilterNode&>(node);
      SOFTDB_ASSIGN_OR_RETURN(OperatorPtr child,
                              Plan(*node.children()[0], under_limit));
      return OperatorPtr(std::make_unique<FilterOp>(
          std::move(child), CloneExecutablePredicates(filter.predicates())));
    }
    case PlanKind::kProject: {
      const auto& proj = static_cast<const ProjectNode&>(node);
      SOFTDB_ASSIGN_OR_RETURN(OperatorPtr child,
                              Plan(*node.children()[0], under_limit));
      std::vector<ExprPtr> exprs;
      exprs.reserve(proj.exprs().size());
      for (const ExprPtr& e : proj.exprs()) exprs.push_back(e->Clone());
      return OperatorPtr(std::make_unique<ProjectOp>(
          std::move(child), proj.output_schema(), std::move(exprs)));
    }
    case PlanKind::kJoin: {
      const auto& join = static_cast<const JoinNode&>(node);
      SOFTDB_ASSIGN_OR_RETURN(OperatorPtr left,
                              Plan(*node.children()[0], under_limit));
      SOFTDB_ASSIGN_OR_RETURN(OperatorPtr right,
                              Plan(*node.children()[1], under_limit));
      if (!join.equi_keys().empty()) {
        return OperatorPtr(std::make_unique<HashJoinOp>(
            std::move(left), std::move(right), join.equi_keys(),
            CloneExecutablePredicates(join.conditions())));
      }
      return OperatorPtr(std::make_unique<NestedLoopJoinOp>(
          std::move(left), std::move(right),
          CloneExecutablePredicates(join.conditions())));
    }
    case PlanKind::kAggregate: {
      const auto& agg = static_cast<const AggregateNode&>(node);
      SOFTDB_ASSIGN_OR_RETURN(OperatorPtr child,
                              Plan(*node.children()[0], under_limit));
      std::vector<ExprPtr> groups;
      groups.reserve(agg.group_by().size());
      for (const ExprPtr& g : agg.group_by()) groups.push_back(g->Clone());
      std::vector<AggregateItem> aggs;
      aggs.reserve(agg.aggregates().size());
      for (const AggregateItem& a : agg.aggregates()) aggs.push_back(a.Clone());
      return OperatorPtr(std::make_unique<HashAggregateOp>(
          std::move(child), agg.output_schema(), std::move(groups),
          std::move(aggs), agg.key_flags()));
    }
    case PlanKind::kSort: {
      const auto& sort = static_cast<const SortNode&>(node);
      SOFTDB_ASSIGN_OR_RETURN(OperatorPtr child,
                              Plan(*node.children()[0], under_limit));
      // Sort elision: a single ascending key over the column an index scan
      // already delivers in order.
      bool presorted = false;
      if (sort.keys().size() == 1 && sort.keys()[0].ascending &&
          node.children()[0]->kind() == PlanKind::kScan &&
          sort.keys()[0].expr->kind() == ExprKind::kColumnRef) {
        const auto& scan = static_cast<const ScanNode&>(*node.children()[0]);
        const auto& ref =
            static_cast<const ColumnRefExpr&>(*sort.keys()[0].expr);
        auto choice = ChooseAccessPath(scan);
        presorted = choice.ok() && choice->index != nullptr && ref.bound() &&
                    choice->index->column() == ref.index();
      }
      std::vector<SortKey> keys;
      keys.reserve(sort.keys().size());
      for (const SortKey& k : sort.keys()) keys.push_back(k.Clone());
      return OperatorPtr(std::make_unique<SortOp>(std::move(child),
                                                  std::move(keys), presorted));
    }
    case PlanKind::kUnionAll: {
      std::vector<OperatorPtr> children;
      children.reserve(node.children().size());
      for (const PlanPtr& c : node.children()) {
        SOFTDB_ASSIGN_OR_RETURN(OperatorPtr op, Plan(*c, under_limit));
        children.push_back(std::move(op));
      }
      return OperatorPtr(std::make_unique<UnionAllOp>(node.output_schema(),
                                                      std::move(children)));
    }
    case PlanKind::kLimit: {
      const auto& limit = static_cast<const LimitNode&>(node);
      SOFTDB_ASSIGN_OR_RETURN(OperatorPtr child,
                              Plan(*node.children()[0], /*under_limit=*/true));
      return OperatorPtr(
          std::make_unique<LimitOp>(std::move(child), limit.limit()));
    }
  }
  return Status::Internal("unknown plan node");
}

double PhysicalPlanner::EstimateCost(const PlanNode& node) const {
  // Pages are the unit; cpu is cheap. Streaming operators evaluate a batch
  // column-at-a-time; operators that materialize rows (aggregate, sort,
  // nested loop) pay the per-row rate.
  constexpr double kCpuPerRow = 0.00025;
  constexpr double kCpuPerRowMaterialized = 0.001;
  switch (node.kind()) {
    case PlanKind::kScan: {
      const auto& scan = static_cast<const ScanNode&>(node);
      auto choice = ChooseAccessPath(scan);
      if (!choice.ok()) return 1.0;
      double cpu = kCpuPerRow * estimator_->EstimateRows(node);
      // Skip-aware sequential costing: blocks a zone map prunes cost no
      // predicate work. Pages stay fully charged (the simulated page model
      // reads every page of a sequential pass), so the saving shows up in
      // the cpu term only.
      if (choice->index == nullptr && scan.external_table() == nullptr) {
        auto table = ctx_->catalog->GetTable(scan.table_name());
        if (table.ok()) {
          const ZoneMapSkips skips = ZoneMapSkipsFor(scan, *table);
          if (skips != nullptr && !skips->empty()) {
            std::size_t skipped = 0;
            for (const std::uint8_t s : *skips) skipped += s;
            cpu *= 1.0 - static_cast<double>(skipped) /
                             static_cast<double>(skips->size());
          }
        }
      }
      return choice->cost_pages + cpu;
    }
    case PlanKind::kFilter:
    case PlanKind::kProject:
    case PlanKind::kLimit:
      return EstimateCost(*node.children()[0]) +
             kCpuPerRow * estimator_->EstimateRows(node);
    case PlanKind::kJoin: {
      const double build = estimator_->EstimateRows(*node.children()[1]);
      const double probe = estimator_->EstimateRows(*node.children()[0]);
      const auto& join = static_cast<const JoinNode&>(node);
      const double cpu =
          join.equi_keys().empty()
              ? kCpuPerRowMaterialized * build * probe  // Nested loop.
              : kCpuPerRow * (build * 2.0 + probe);
      return EstimateCost(*node.children()[0]) +
             EstimateCost(*node.children()[1]) + cpu;
    }
    case PlanKind::kAggregate:
      return EstimateCost(*node.children()[0]) +
             kCpuPerRowMaterialized *
                 estimator_->EstimateRows(*node.children()[0]);
    case PlanKind::kSort: {
      const double rows =
          std::max(1.0, estimator_->EstimateRows(*node.children()[0]));
      const auto& sort = static_cast<const SortNode&>(node);
      // n log n comparisons, scaled by key count.
      const double cpu = kCpuPerRowMaterialized * rows *
                         std::log2(rows + 1.0) *
                         static_cast<double>(sort.keys().size());
      return EstimateCost(*node.children()[0]) + cpu;
    }
    case PlanKind::kUnionAll: {
      double total = 0.0;
      for (const PlanPtr& c : node.children()) total += EstimateCost(*c);
      return total;
    }
  }
  return 0.0;
}

}  // namespace softdb
