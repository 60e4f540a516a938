#include "analysis/certificate.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/str_util.h"
#include "constraints/ic_registry.h"
#include "constraints/inclusion_sc.h"
#include "constraints/sc_registry.h"
#include "constraints/zone_map_sc.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace softdb {

namespace {

bool NumericNonNull(const Value& v) {
  return !v.is_null() && IsNumericType(v.type());
}

bool StringNonNull(const Value& v) {
  return !v.is_null() && v.type() == TypeId::kString;
}

CertificateCheckResult Ok() { return CertificateCheckResult{}; }

CertificateCheckResult Stale(std::string message) {
  return {CertificateVerdict::kStale, std::move(message)};
}

CertificateCheckResult Invalid(std::string message) {
  return {CertificateVerdict::kInvalid, std::move(message)};
}

// ---------------------------------------------------------------------------
// The trusted entailment core.
//
// A deliberately small re-implementation of the interval/diff/band closure:
// the checker must not *call* ImplicationEngine (a closure bug would then
// certify its own wrong conclusion), so the propagation and entailment
// rules are re-derived here from the fact semantics in implication.h:
//   interval fact   col ∈ I                (when col non-NULL)
//   diff fact       (y − x) ∈ R            (when both non-NULL)
//   band fact       |a − (k·b + c)| ≤ eps  (when both non-NULL)
// Shared with the rewriter are only extraction-layer pieces (Interval
// arithmetic, IntervalForComparison, the predicate matchers), whose outputs
// the premise validation cross-checks against the live registries anyway.
// ---------------------------------------------------------------------------

constexpr int kCorePasses = 6;

struct CoreEnv {
  struct Diff {
    ColumnIdx x = 0;
    ColumnIdx y = 0;
    Interval range;  // (y - x) ∈ range.
  };
  struct Band {
    ColumnIdx a = 0;
    ColumnIdx b = 0;
    double k = 0.0;
    double c = 0.0;
    double eps = 0.0;
  };

  const Schema* schema = nullptr;
  /// Twin certificates assert estimation-only conclusions over the rows
  /// where the involved columns are non-NULL; every other kind must prove
  /// NULL-compliance.
  bool assume_non_null = false;

  std::map<ColumnIdx, Interval> intervals;
  std::vector<Diff> diffs;
  std::vector<Band> bands;
  std::set<ColumnIdx> non_null;
  std::set<ColumnIdx> known_null;
  std::vector<std::pair<ColumnIdx, Value>> not_equals;
  bool unsat = false;
};

bool CoreSchemaNonNull(const CoreEnv& env, ColumnIdx col) {
  return env.schema != nullptr && col < env.schema->NumColumns() &&
         !env.schema->Column(col).nullable;
}

/// `col` cannot be NULL on any admitted row.
bool CoreMustBeNonNull(const CoreEnv& env, ColumnIdx col) {
  if (env.assume_non_null) return true;
  if (env.non_null.count(col) != 0) return true;
  return CoreSchemaNonNull(env, col);
}

/// `col`'s value interval may be consulted for an entailment: the column is
/// provably non-NULL and not pinned to NULL.
bool CoreUsable(const CoreEnv& env, ColumnIdx col) {
  if (env.known_null.count(col) != 0) return false;
  return CoreMustBeNonNull(env, col);
}

Interval CoreIntervalOf(const CoreEnv& env, ColumnIdx col) {
  auto it = env.intervals.find(col);
  return it == env.intervals.end() ? Interval::Top() : it->second;
}

void CoreApplySimple(const SimplePredicate& sp, CoreEnv* env) {
  // A TRUE comparison conjunct implies the operand is non-NULL.
  env->non_null.insert(sp.column);
  if (sp.constant.is_null()) {
    env->unsat = true;  // `col op NULL` is never TRUE.
    return;
  }
  Interval& slot = env->intervals[sp.column];
  auto interval = IntervalForComparison(sp.op, sp.constant);
  if (interval.has_value()) {
    slot.Intersect(*interval);
  } else if (sp.op == CompareOp::kEq && StringNonNull(sp.constant)) {
    slot.Intersect(Interval::StringPin(sp.constant));
  } else if (sp.op == CompareOp::kNe) {
    env->not_equals.emplace_back(sp.column, sp.constant);
  }
  if (slot.empty) env->unsat = true;
}

CompareOp NegatedOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return CompareOp::kNe;
    case CompareOp::kNe: return CompareOp::kEq;
    case CompareOp::kLt: return CompareOp::kGe;
    case CompareOp::kLe: return CompareOp::kGt;
    case CompareOp::kGt: return CompareOp::kLe;
    case CompareOp::kGe: return CompareOp::kLt;
  }
  return op;
}

void CoreApplyConjunct(const Expr& e, CoreEnv* env) {
  switch (e.kind()) {
    case ExprKind::kLiteral: {
      const Value& v = static_cast<const LiteralExpr&>(e).value();
      if (v.is_null() || !v.AsBool()) env->unsat = true;
      return;
    }
    case ExprKind::kIsNull: {
      const auto& isnull = static_cast<const IsNullExpr&>(e);
      if (isnull.input()->kind() != ExprKind::kColumnRef) return;
      const ColumnIdx col =
          static_cast<const ColumnRefExpr&>(*isnull.input()).index();
      if (isnull.negated()) {
        env->non_null.insert(col);
      } else {
        env->known_null.insert(col);
      }
      return;
    }
    case ExprKind::kAnd: {
      const auto& logical = static_cast<const LogicalExpr&>(e);
      for (const ExprPtr& child : logical.children()) {
        CoreApplyConjunct(*child, env);
      }
      return;
    }
    case ExprKind::kNot: {
      const Expr* child = static_cast<const NotExpr&>(e).child();
      SimplePredicate sp;
      if (MatchSimplePredicate(*child, &sp)) {
        sp.op = NegatedOp(sp.op);
        CoreApplySimple(sp, env);
      }
      return;
    }
    default:
      break;
  }
  std::vector<SimplePredicate> simples;
  if (ExpandSimplePredicates(e, &simples)) {
    for (const SimplePredicate& sp : simples) CoreApplySimple(sp, env);
    return;
  }
  ColumnDiffPredicate diff;
  if (MatchColumnDiffPredicate(e, &diff)) {
    env->non_null.insert(diff.minuend);
    env->non_null.insert(diff.subtrahend);
    auto range = IntervalForComparison(diff.op, diff.constant);
    if (range.has_value()) {
      env->diffs.push_back({diff.subtrahend, diff.minuend, *range});
    }
    return;
  }
  ColumnPairPredicate pair;
  if (MatchColumnPair(e, &pair)) {
    env->non_null.insert(pair.left);
    env->non_null.insert(pair.right);
    auto range = IntervalForComparison(pair.op, Value::Int64(0));
    if (range.has_value()) {
      env->diffs.push_back({pair.right, pair.left, *range});
    }
    return;
  }
  // Opaque conjunct: dropped. The admitted region only grows, so anything
  // the core still proves also holds with the conjunct in place.
}

void CoreClose(CoreEnv* env) {
  auto tighten = [&](ColumnIdx col, const Interval& by) -> bool {
    if (by.IsTop()) return false;
    Interval& slot = env->intervals[col];
    const Interval before = slot;
    slot.Intersect(by);
    if (slot.SameAs(before)) return false;
    // An emptied value region contradicts only where NULL cannot rescue
    // the row: facts are null-compliant.
    if (slot.empty && CoreMustBeNonNull(*env, col)) env->unsat = true;
    return true;
  };

  for (int pass = 0; pass < kCorePasses && !env->unsat; ++pass) {
    bool changed = false;
    for (const CoreEnv::Diff& d : env->diffs) {
      if (env->known_null.count(d.x) || env->known_null.count(d.y)) continue;
      if (CoreUsable(*env, d.x)) {
        changed |= tighten(d.y, CoreIntervalOf(*env, d.x).Plus(d.range));
      }
      if (env->unsat) break;
      if (CoreUsable(*env, d.y)) {
        changed |= tighten(d.x, CoreIntervalOf(*env, d.y).Minus(d.range));
      }
      if (env->unsat) break;
    }
    for (const CoreEnv::Band& b : env->bands) {
      if (env->unsat) break;
      if (env->known_null.count(b.a) || env->known_null.count(b.b)) continue;
      const Interval eps_band = Interval::Range(-b.eps, b.eps);
      if (CoreUsable(*env, b.b)) {
        changed |= tighten(
            b.a, CoreIntervalOf(*env, b.b).ScaledBy(b.k, b.c).Plus(eps_band));
      }
      if (env->unsat) break;
      if (b.k != 0.0 && CoreUsable(*env, b.a)) {
        changed |= tighten(b.b, CoreIntervalOf(*env, b.a)
                                    .Plus(eps_band)
                                    .ScaledBy(1.0 / b.k, -b.c / b.k));
      }
      if (env->unsat) break;
    }
    if (!changed) break;
  }
  if (env->unsat) return;

  for (const auto& ne : env->not_equals) {
    auto it = env->intervals.find(ne.first);
    if (it == env->intervals.end()) continue;
    double point = 0.0;
    if (NumericNonNull(ne.second) && it->second.IsPoint(&point) &&
        point == ne.second.NumericValue()) {
      env->unsat = true;
      return;
    }
    if (it->second.str_equal.has_value() && StringNonNull(ne.second) &&
        it->second.str_equal->GroupEquals(ne.second)) {
      env->unsat = true;
      return;
    }
  }
  for (ColumnIdx col : env->known_null) {
    if (env->non_null.count(col) != 0 || CoreSchemaNonNull(*env, col)) {
      env->unsat = true;
      return;
    }
  }
}

/// Builds the core environment: fact premises seeded first, then the
/// predicate premises applied as conjuncts, then the bounded closure.
CoreEnv CoreMakeEnv(const Schema* schema, bool assume_non_null,
                    const std::vector<CertificatePremise>& premises,
                    const std::vector<ExprPtr>& premise_exprs) {
  CoreEnv env;
  env.schema = schema;
  env.assume_non_null = assume_non_null;
  for (const CertificatePremise& p : premises) {
    switch (p.kind) {
      case CertificatePremise::Kind::kIntervalFact:
        env.intervals[p.column].Intersect(p.interval);
        break;
      case CertificatePremise::Kind::kDiffFact:
        env.diffs.push_back({p.x, p.y, p.interval});
        break;
      case CertificatePremise::Kind::kBandFact:
        env.bands.push_back({p.column, p.x, p.k, p.c, p.eps});
        break;
      default:
        break;  // Inclusion/unique/zone premises are not row facts.
    }
  }
  for (const ExprPtr& e : premise_exprs) {
    if (e != nullptr) CoreApplyConjunct(*e, &env);
    if (env.unsat) break;
  }
  for (const auto& entry : env.intervals) {
    if (entry.second.empty && CoreMustBeNonNull(env, entry.first)) {
      env.unsat = true;
    }
  }
  if (!env.unsat) CoreClose(&env);
  return env;
}

Interval CoreDiffInterval(const CoreEnv& env, ColumnIdx minuend,
                          ColumnIdx subtrahend) {
  Interval out = Interval::Top();
  for (const CoreEnv::Diff& d : env.diffs) {
    if (d.x == subtrahend && d.y == minuend) {
      out.Intersect(d.range);
    } else if (d.x == minuend && d.y == subtrahend) {
      out.Intersect(d.range.Negated());
    }
  }
  for (const CoreEnv::Band& b : env.bands) {
    if (b.k != 1.0) continue;  // a - b ∈ [c - eps, c + eps] only when k = 1.
    if (b.a == minuend && b.b == subtrahend) {
      out.Intersect(Interval::Range(b.c - b.eps, b.c + b.eps));
    } else if (b.a == subtrahend && b.b == minuend) {
      out.Intersect(Interval::Range(-b.c - b.eps, -b.c + b.eps));
    }
  }
  auto mi = env.intervals.find(minuend);
  auto si = env.intervals.find(subtrahend);
  if (mi != env.intervals.end() && si != env.intervals.end()) {
    out.Intersect(mi->second.Minus(si->second));
  }
  return out;
}

/// Shrinks `have` to the integer-attainable values it admits when `col` is
/// an integer-valued column. Needed for completeness, not soundness: the
/// binder coerces predicate constants to the column type by truncation
/// (`x >= -3.5` arrives as `x >= -3`), so the introduced conclusion can be
/// continuous-narrower than the premise interval while admitting exactly
/// the same column values.
Interval IntegerTighten(const CoreEnv& env, ColumnIdx col, Interval have) {
  if (env.schema == nullptr || col >= env.schema->NumColumns()) return have;
  const TypeId type = env.schema->Column(col).type;
  if (type == TypeId::kDouble || !IsNumericType(type)) return have;
  if (have.empty || have.str_equal.has_value()) return have;
  if (std::isfinite(have.lo)) {
    double lo = std::ceil(have.lo);
    if (have.lo_strict && lo == have.lo) lo += 1.0;
    have.lo = lo;
    have.lo_strict = false;
  }
  if (std::isfinite(have.hi)) {
    double hi = std::floor(have.hi);
    if (have.hi_strict && hi == have.hi) hi -= 1.0;
    have.hi = hi;
    have.hi_strict = false;
  }
  if (have.lo > have.hi) have.empty = true;
  return have;
}

bool CoreEntailsSimple(const CoreEnv& env, const SimplePredicate& sp) {
  if (!CoreUsable(env, sp.column)) return false;
  if (sp.constant.is_null()) return false;
  const Interval have = CoreIntervalOf(env, sp.column);
  if (have.empty) return false;
  if (StringNonNull(sp.constant)) {
    if (have.str_equal.has_value()) {
      const bool same = have.str_equal->GroupEquals(sp.constant);
      if (sp.op == CompareOp::kEq && same) return true;
      if (sp.op == CompareOp::kNe && !same) return true;
    }
    if (sp.op == CompareOp::kNe) {
      for (const auto& ne : env.not_equals) {
        if (ne.first == sp.column && StringNonNull(ne.second) &&
            ne.second.GroupEquals(sp.constant)) {
          return true;
        }
      }
    }
    return false;
  }
  if (!NumericNonNull(sp.constant)) return false;
  if (have.str_equal.has_value()) return false;
  const Interval tight = IntegerTighten(env, sp.column, have);
  if (tight.empty) return false;  // Vacuity is CoreMakeEnv's job, not ours.
  const double c = sp.constant.NumericValue();
  if (sp.op == CompareOp::kNe) {
    if (!tight.ContainsPoint(c) && !tight.IsTop()) return true;
    for (const auto& ne : env.not_equals) {
      if (ne.first == sp.column && NumericNonNull(ne.second) &&
          ne.second.NumericValue() == c) {
        return true;
      }
    }
    return false;
  }
  auto want = IntervalForComparison(sp.op, sp.constant);
  return want.has_value() && want->Contains(tight) && !tight.IsTop();
}

bool CoreEntailsConjunct(const CoreEnv& env, const Expr& e) {
  switch (e.kind()) {
    case ExprKind::kLiteral: {
      const Value& v = static_cast<const LiteralExpr&>(e).value();
      return !v.is_null() && v.AsBool();
    }
    case ExprKind::kIsNull: {
      const auto& isnull = static_cast<const IsNullExpr&>(e);
      if (isnull.input()->kind() != ExprKind::kColumnRef) return false;
      const ColumnIdx col =
          static_cast<const ColumnRefExpr&>(*isnull.input()).index();
      if (isnull.negated()) return CoreUsable(env, col);
      return env.known_null.count(col) != 0;
    }
    case ExprKind::kAnd: {
      const auto& logical = static_cast<const LogicalExpr&>(e);
      for (const ExprPtr& child : logical.children()) {
        if (!CoreEntailsConjunct(env, *child)) return false;
      }
      return true;
    }
    case ExprKind::kOr: {
      const auto& logical = static_cast<const LogicalExpr&>(e);
      for (const ExprPtr& child : logical.children()) {
        if (CoreEntailsConjunct(env, *child)) return true;
      }
      return false;
    }
    case ExprKind::kNot: {
      const Expr* child = static_cast<const NotExpr&>(e).child();
      SimplePredicate sp;
      if (!MatchSimplePredicate(*child, &sp)) return false;
      sp.op = NegatedOp(sp.op);
      return CoreEntailsSimple(env, sp);
    }
    default:
      break;
  }

  std::vector<SimplePredicate> simples;
  if (ExpandSimplePredicates(e, &simples)) {
    for (const SimplePredicate& sp : simples) {
      if (!CoreEntailsSimple(env, sp)) return false;
    }
    return !simples.empty();
  }
  ColumnDiffPredicate diff;
  if (MatchColumnDiffPredicate(e, &diff)) {
    if (!CoreUsable(env, diff.minuend) || !CoreUsable(env, diff.subtrahend)) {
      return false;
    }
    const Interval have = CoreDiffInterval(env, diff.minuend, diff.subtrahend);
    if (have.IsTop() || have.empty) return false;
    if (diff.op == CompareOp::kNe) {
      return NumericNonNull(diff.constant) &&
             !have.ContainsPoint(diff.constant.NumericValue());
    }
    auto want = IntervalForComparison(diff.op, diff.constant);
    return want.has_value() && want->Contains(have);
  }
  ColumnPairPredicate pair;
  if (MatchColumnPair(e, &pair)) {
    if (!CoreUsable(env, pair.left) || !CoreUsable(env, pair.right)) {
      return false;
    }
    const Interval have = CoreDiffInterval(env, pair.left, pair.right);
    if (have.IsTop() || have.empty) return false;
    double point = 0.0;
    switch (pair.op) {
      case CompareOp::kEq:
        return have.IsPoint(&point) && point == 0.0;
      case CompareOp::kNe:
        return !have.ContainsPoint(0.0);
      case CompareOp::kLt:
        return Interval::AtMost(0.0, true).Contains(have);
      case CompareOp::kLe:
        return Interval::AtMost(0.0, false).Contains(have);
      case CompareOp::kGt:
        return Interval::AtLeast(0.0, true).Contains(have);
      case CompareOp::kGe:
        return Interval::AtLeast(0.0, false).Contains(have);
    }
    return false;
  }
  if (e.kind() == ExprKind::kInList) {
    const auto& in = static_cast<const InListExpr&>(e);
    if (in.input()->kind() != ExprKind::kColumnRef) return false;
    const ColumnIdx col =
        static_cast<const ColumnRefExpr&>(*in.input()).index();
    if (!CoreUsable(env, col)) return false;
    const Interval have = CoreIntervalOf(env, col);
    double point = 0.0;
    const bool have_point = have.IsPoint(&point);
    const bool have_pin = have.str_equal.has_value();
    if (!have_point && !have_pin) return false;
    for (const ExprPtr& item : in.list()) {
      Value v;
      if (!TryConstantFold(*item, &v) || v.is_null()) continue;
      const bool hit =
          have_point ? (NumericNonNull(v) && v.NumericValue() == point)
                     : (StringNonNull(v) && have.str_equal->GroupEquals(v));
      if (hit) return true;
    }
    return false;
  }
  return false;
}

bool CoreEntails(const CoreEnv& env, const Expr& q) {
  if (env.unsat) return true;  // Vacuous: the premises admit no row.
  if (q.kind() == ExprKind::kAnd) {
    const auto& logical = static_cast<const LogicalExpr&>(q);
    for (const ExprPtr& child : logical.children()) {
      if (!CoreEntails(env, *child)) return false;
    }
    return true;
  }
  return CoreEntailsConjunct(env, q);
}

// ------------------------------------------------ premise cross-validation

/// Splits an inclusion-import composite source ("sc:a<-check:b") into its
/// "<-"-separated segments.
std::vector<std::string> SourceSegments(const std::string& source) {
  std::vector<std::string> segments;
  std::size_t pos = 0;
  while (pos <= source.size()) {
    const std::size_t arrow = source.find("<-", pos);
    if (arrow == std::string::npos) {
      segments.push_back(source.substr(pos));
      break;
    }
    segments.push_back(source.substr(pos, arrow - pos));
    pos = arrow + 2;
  }
  return segments;
}

}  // namespace

const char* CertificateKindName(CertificateKind kind) {
  switch (kind) {
    case CertificateKind::kImplicationPrune:
      return "implication-prune";
    case CertificateKind::kImplicationContradiction:
      return "implication-contradiction";
    case CertificateKind::kJoinElimination:
      return "join-elimination";
    case CertificateKind::kTwinSubstitution:
      return "twin-substitution";
    case CertificateKind::kPredicateIntroduction:
      return "predicate-introduction";
    case CertificateKind::kZoneMapSkip:
      return "zone-map-skip";
  }
  return "unknown";
}

const char* CertificateVerdictName(CertificateVerdict v) {
  switch (v) {
    case CertificateVerdict::kOk:
      return "ok";
    case CertificateVerdict::kStale:
      return "stale";
    case CertificateVerdict::kInvalid:
      return "invalid";
  }
  return "unknown";
}

RewriteCertificate RewriteCertificate::Clone() const {
  RewriteCertificate out;
  out.kind = kind;
  out.rule = rule;
  out.table = table;
  out.premises = premises;
  out.premise_exprs.reserve(premise_exprs.size());
  for (const ExprPtr& e : premise_exprs) {
    out.premise_exprs.push_back(e != nullptr ? e->Clone() : nullptr);
  }
  out.conclusion_expr =
      conclusion_expr != nullptr ? conclusion_expr->Clone() : nullptr;
  out.estimation_only = estimation_only;
  out.parent_table = parent_table;
  out.inclusion_source = inclusion_source;
  out.zm_column = zm_column;
  out.skipped_blocks = skipped_blocks;
  return out;
}

bool CertificateChecker::EpochsCurrent(const RewriteCertificate& cert) const {
  for (const CertificatePremise& p : cert.premises) {
    for (const auto& [name, epoch] : p.sc_epochs) {
      const SoftConstraint* sc = scs_ != nullptr ? scs_->Find(name) : nullptr;
      if (sc == nullptr || !sc->active() || sc->epoch() != epoch) {
        return false;
      }
    }
  }
  return true;
}

std::vector<std::string> RewriteCertificate::ScEpochStrings() const {
  std::set<std::string> seen;
  std::vector<std::string> out;
  for (const CertificatePremise& p : premises) {
    for (const auto& [name, epoch] : p.sc_epochs) {
      std::string entry = name + "@" + StrFormat("%llu",
          static_cast<unsigned long long>(epoch));
      if (seen.insert(entry).second) out.push_back(std::move(entry));
    }
  }
  return out;
}

void AppendScEpochs(const std::string& source, const ScRegistry* scs,
                    std::vector<std::pair<std::string, std::uint64_t>>* out) {
  for (const std::string& segment : SourceSegments(source)) {
    if (segment.rfind("sc:", 0) != 0) continue;
    const std::string name = segment.substr(3);
    std::uint64_t epoch = 0;
    if (scs != nullptr) {
      if (const SoftConstraint* sc = scs->Find(name)) epoch = sc->epoch();
    }
    out->emplace_back(name, epoch);
  }
}

void AppendFactPremises(const ImplicationFacts& facts,
                        const std::set<std::string>& used_sources,
                        const ScRegistry* scs,
                        std::vector<CertificatePremise>* out) {
  for (const auto& fact : facts.intervals) {
    if (used_sources.count(fact.source) == 0) continue;
    CertificatePremise p;
    p.kind = CertificatePremise::Kind::kIntervalFact;
    p.source = fact.source;
    p.column = fact.column;
    p.interval = fact.interval;
    AppendScEpochs(fact.source, scs, &p.sc_epochs);
    out->push_back(std::move(p));
  }
  for (const auto& fact : facts.diffs) {
    if (used_sources.count(fact.source) == 0) continue;
    CertificatePremise p;
    p.kind = CertificatePremise::Kind::kDiffFact;
    p.source = fact.source;
    p.x = fact.x;
    p.y = fact.y;
    p.interval = fact.range;
    AppendScEpochs(fact.source, scs, &p.sc_epochs);
    out->push_back(std::move(p));
  }
  for (const auto& fact : facts.bands) {
    if (used_sources.count(fact.source) == 0) continue;
    CertificatePremise p;
    p.kind = CertificatePremise::Kind::kBandFact;
    p.source = fact.source;
    p.column = fact.a;
    p.x = fact.b;
    p.k = fact.k;
    p.c = fact.c;
    p.eps = fact.eps;
    AppendScEpochs(fact.source, scs, &p.sc_epochs);
    out->push_back(std::move(p));
  }
}

// ---------------------------------------------------------------------------
// CertificateChecker.
// ---------------------------------------------------------------------------

CertificateCheckResult CertificateChecker::ValidateFactPremises(
    const RewriteCertificate& cert) const {
  const bool require_absolute =
      cert.kind != CertificateKind::kTwinSubstitution;

  bool any_fact = false;
  for (const CertificatePremise& p : cert.premises) {
    if (p.kind != CertificatePremise::Kind::kIntervalFact &&
        p.kind != CertificatePremise::Kind::kDiffFact &&
        p.kind != CertificatePremise::Kind::kBandFact) {
      continue;
    }
    any_fact = true;
    for (const auto& [name, epoch] : p.sc_epochs) {
      const SoftConstraint* sc =
          scs_ != nullptr ? scs_->Find(name) : nullptr;
      if (sc == nullptr || !sc->active()) {
        return Stale("premise SC '" + name + "' is gone or inactive");
      }
      if (sc->epoch() != epoch) {
        return Stale(StrFormat("premise SC '%s' moved: epoch %llu -> %llu",
                               name.c_str(),
                               static_cast<unsigned long long>(epoch),
                               static_cast<unsigned long long>(sc->epoch())));
      }
      if (require_absolute && !sc->IsAbsolute()) {
        return Stale("premise SC '" + name +
                     "' is no longer absolute (semantics-changing rewrite)");
      }
    }
  }
  if (!any_fact) return Ok();

  // Rebuild the fact base fresh and require every recorded fact to be no
  // stronger than what its source provides today. Twin premises come from
  // statistical SCs, so their rebuild must not filter on confidence.
  if (catalog_ == nullptr) return Invalid("checker has no catalog");
  ImplicationFactsOptions opts;
  opts.absolute_only = require_absolute;
  const ImplicationFacts fresh = BuildImplicationFacts(
      cert.table, *catalog_, ics_, scs_, /*stats=*/nullptr, opts);

  for (const CertificatePremise& p : cert.premises) {
    switch (p.kind) {
      // A source may contribute several facts on one column (a two-sided
      // CHECK yields `x >= lo` and `x <= hi`). All of them hold, so the
      // recorded fact is sound iff it contains their intersection.
      case CertificatePremise::Kind::kIntervalFact: {
        bool matched = false;
        Interval provided = Interval::Top();
        for (const auto& fact : fresh.intervals) {
          if (fact.source != p.source || fact.column != p.column) continue;
          matched = true;
          provided.Intersect(fact.interval);
        }
        if (!matched) {
          return Stale("source '" + p.source +
                       "' no longer provides an interval fact for column " +
                       StrFormat("%u", p.column));
        }
        if (!p.interval.Contains(provided)) {
          return Invalid("recorded interval " + p.interval.ToString() +
                         " for column " + StrFormat("%u", p.column) +
                         " is stronger than source '" + p.source +
                         "' provides (" + provided.ToString() + ")");
        }
        break;
      }
      case CertificatePremise::Kind::kDiffFact: {
        bool matched = false;
        Interval provided = Interval::Top();
        for (const auto& fact : fresh.diffs) {
          if (fact.source != p.source || fact.x != p.x || fact.y != p.y) {
            continue;
          }
          matched = true;
          provided.Intersect(fact.range);
        }
        if (!matched) {
          return Stale("source '" + p.source +
                       "' no longer provides a diff fact");
        }
        if (!p.interval.Contains(provided)) {
          return Invalid("recorded diff bound " + p.interval.ToString() +
                         " is stronger than source '" + p.source +
                         "' provides (" + provided.ToString() + ")");
        }
        break;
      }
      case CertificatePremise::Kind::kBandFact: {
        // Bands do not intersect into a band; the recorded one is sound
        // when any of the source's bands on the same pair is as tight.
        bool matched = false;
        bool entailed = false;
        for (const auto& fact : fresh.bands) {
          if (fact.source != p.source || fact.a != p.column ||
              fact.b != p.x) {
            continue;
          }
          matched = true;
          entailed = entailed ||
                     (fact.k == p.k && fact.c == p.c && p.eps >= fact.eps);
        }
        if (!matched) {
          return Stale("source '" + p.source +
                       "' no longer provides a band fact");
        }
        if (!entailed) {
          return Invalid("recorded band (k=" + StrFormat("%g", p.k) +
                         ", c=" + StrFormat("%g", p.c) +
                         ", eps=" + StrFormat("%g", p.eps) +
                         ") is stronger than source '" + p.source +
                         "' provides");
        }
        break;
      }
      default:
        break;
    }
  }
  return Ok();
}

CertificateCheckResult CertificateChecker::CheckEntailment(
    const RewriteCertificate& cert) const {
  const bool contradiction =
      cert.kind == CertificateKind::kImplicationContradiction;
  if (!contradiction && cert.conclusion_expr == nullptr) {
    return Invalid("certificate has no conclusion predicate");
  }
  if (cert.kind == CertificateKind::kTwinSubstitution &&
      !cert.estimation_only) {
    return Invalid("twin certificate concludes a filtering predicate");
  }
  if (cert.kind != CertificateKind::kTwinSubstitution &&
      cert.estimation_only) {
    return Invalid("non-twin certificate marked estimation-only");
  }

  CertificateCheckResult premises = ValidateFactPremises(cert);
  if (!premises.ok()) return premises;

  auto table_result = catalog_->GetTable(cert.table);
  if (!table_result.ok()) return Stale("table '" + cert.table + "' is gone");
  const Schema& schema = (*table_result)->schema();

  const CoreEnv env = CoreMakeEnv(
      &schema,
      /*assume_non_null=*/cert.kind == CertificateKind::kTwinSubstitution,
      cert.premises, cert.premise_exprs);

  if (contradiction) {
    if (env.unsat) return Ok();
    return Invalid("premises do not contradict: rows may satisfy the folded "
                   "scan's predicates");
  }
  if (!CoreEntails(env, *cert.conclusion_expr)) {
    return Invalid("premises do not entail conclusion '" +
                   cert.conclusion_expr->ToString() + "'");
  }
  return Ok();
}

CertificateCheckResult CertificateChecker::CheckJoinElimination(
    const RewriteCertificate& cert) const {
  const CertificatePremise* unique = nullptr;
  const CertificatePremise* inclusion = nullptr;
  for (const CertificatePremise& p : cert.premises) {
    if (p.kind == CertificatePremise::Kind::kUniqueKey) unique = &p;
    if (p.kind == CertificatePremise::Kind::kInclusion) inclusion = &p;
  }
  if (unique == nullptr) return Invalid("missing unique-key premise");
  if (inclusion == nullptr) return Invalid("missing inclusion premise");
  if (inclusion->columns.size() != inclusion->parent_columns.size() ||
      inclusion->columns.empty()) {
    return Invalid("malformed inclusion premise");
  }

  // Child key columns must be non-nullable: a NULL key row survives the
  // original join... not — it is dropped by the join, so elimination would
  // resurrect it. Re-read the live schema.
  auto child_result = catalog_->GetTable(cert.table);
  if (!child_result.ok()) return Stale("child table '" + cert.table +
                                       "' is gone");
  const Schema& child_schema = (*child_result)->schema();
  for (ColumnIdx col : inclusion->columns) {
    if (col >= child_schema.NumColumns()) {
      return Invalid("inclusion premise references a column out of range");
    }
    if (child_schema.Column(col).nullable) {
      return Invalid(StrFormat(
          "child key column %u is nullable: elimination does not preserve "
          "the row count", col));
    }
  }

  if (ics_ == nullptr ||
      !ics_->IsUniqueOver(cert.parent_table, unique->parent_columns)) {
    return Stale("parent key is no longer unique over the joined columns");
  }

  const std::string& source = cert.inclusion_source;
  if (source.rfind("fk:", 0) == 0) {
    const std::string name = source.substr(3);
    bool found = false;
    if (ics_ != nullptr) {
      for (const ForeignKeyConstraint* fk :
           ics_->ForeignKeysFrom(cert.table)) {
        if (fk->name() == name &&
            fk->parent_table() == cert.parent_table &&
            fk->columns() == inclusion->columns &&
            fk->parent_columns() == inclusion->parent_columns) {
          found = true;
        }
      }
    }
    if (!found) return Stale("foreign key '" + name + "' no longer matches");
    return Ok();
  }
  if (source.rfind("sc:", 0) == 0) {
    const std::string name = source.substr(3);
    const auto* inc = dynamic_cast<const InclusionSc*>(
        scs_ != nullptr ? scs_->Find(name) : nullptr);
    if (inc == nullptr || !inc->active() || !inc->IsAbsolute()) {
      return Stale("inclusion SC '" + name + "' is gone or demoted");
    }
    for (const auto& [sc_name, epoch] : inclusion->sc_epochs) {
      if (sc_name == name && inc->epoch() != epoch) {
        return Stale("inclusion SC '" + name + "' moved since planning");
      }
    }
    if (inc->child_table() != cert.table ||
        inc->parent_table() != cert.parent_table ||
        inc->child_columns() != inclusion->columns ||
        inc->parent_columns() != inclusion->parent_columns) {
      return Invalid("inclusion SC '" + name +
                     "' does not cover the joined columns");
    }
    return Ok();
  }
  return Invalid("unknown inclusion source '" + source + "'");
}

CertificateCheckResult CertificateChecker::CheckZoneMapSkip(
    const RewriteCertificate& cert) const {
  if (cert.skipped_blocks.empty()) {
    return Invalid("zone-map certificate with an empty skip set");
  }
  // Resolve the zone-map SC from the block premises.
  std::string zm_name;
  std::uint64_t zm_epoch = 0;
  std::map<std::uint64_t, const CertificatePremise*> block_premises;
  for (const CertificatePremise& p : cert.premises) {
    if (p.kind != CertificatePremise::Kind::kZoneBlock) continue;
    block_premises[p.block_index] = &p;
    for (const auto& [name, epoch] : p.sc_epochs) {
      zm_name = name;
      zm_epoch = epoch;
    }
  }
  if (zm_name.empty()) return Invalid("zone-map certificate names no SC");

  const auto* zm = dynamic_cast<const ZoneMapSc*>(
      scs_ != nullptr ? scs_->Find(zm_name) : nullptr);
  if (zm == nullptr || !zm->active() || !zm->IsAbsolute()) {
    return Stale("zone-map SC '" + zm_name + "' is gone or demoted");
  }
  // Blocks and epoch come from one snapshot: a re-mine publishes tighter
  // blocks together with a new epoch, which makes the certificate stale,
  // never a mismatch against the envelopes it recorded.
  std::uint64_t snapshot_epoch = 0;
  const std::vector<ZoneMapSc::BlockSma> blocks =
      zm->SnapshotBlocks(&snapshot_epoch);
  if (snapshot_epoch != zm_epoch) {
    return Stale("zone-map SC '" + zm_name + "' moved since planning");
  }
  if (zm->column() != cert.zm_column) {
    return Invalid("zone-map SC '" + zm_name +
                   "' covers a different column than the skip set claims");
  }

  // Re-derive the prune tests this scan's predicates impose on the mapped
  // column — independently of the planner's CollectPruneTests.
  std::vector<Interval> test_intervals;
  bool has_comparison = false;
  bool has_is_null = false;
  bool has_is_not_null = false;
  std::vector<SimplePredicate> sps;
  for (const ExprPtr& e : cert.premise_exprs) {
    if (e == nullptr) continue;
    sps.clear();
    if (ExpandSimplePredicates(*e, &sps)) {
      for (const SimplePredicate& sp : sps) {
        if (sp.column != cert.zm_column || sp.constant.is_null() ||
            !IsNumericType(sp.constant.type())) {
          continue;
        }
        has_comparison = true;
        if (auto iv = IntervalForComparison(sp.op, sp.constant)) {
          test_intervals.push_back(*iv);
        }
      }
      continue;
    }
    if (e->kind() == ExprKind::kIsNull) {
      const auto& isn = static_cast<const IsNullExpr&>(*e);
      if (isn.input()->kind() != ExprKind::kColumnRef) continue;
      const auto& ref = static_cast<const ColumnRefExpr&>(*isn.input());
      if (ref.bound() && ref.index() == cert.zm_column) {
        (isn.negated() ? has_is_not_null : has_is_null) = true;
      }
    }
  }
  if (!has_comparison && !has_is_null && !has_is_not_null) {
    return Invalid("scan predicates impose no test on the mapped column");
  }

  for (std::uint64_t b : cert.skipped_blocks) {
    auto it = block_premises.find(b);
    if (it == block_premises.end()) {
      return Invalid(StrFormat(
          "skipped block %llu has no recorded envelope premise",
          static_cast<unsigned long long>(b)));
    }
    if (b >= blocks.size()) {
      return Invalid(StrFormat("skipped block %llu is beyond the zone map "
                               "(%zu blocks)",
                               static_cast<unsigned long long>(b),
                               blocks.size()));
    }
    const CertificatePremise& rec = *it->second;
    const ZoneMapSc::BlockSma& fresh = blocks[b];
    // Folds only widen a block under the serialized DML/query model, so
    // the recorded envelope must fit inside today's: a recorded envelope
    // wider (or tighter on min/max in the narrowing direction) than the
    // live one was never produced by this zone map.
    if (rec.block_has_value) {
      if (!fresh.has_value) {
        return Invalid(StrFormat("block %llu recorded live values the zone "
                                 "map never saw",
                                 static_cast<unsigned long long>(b)));
      }
      if (rec.block_min < fresh.min || rec.block_max > fresh.max) {
        return Invalid(StrFormat(
            "block %llu recorded envelope [%g, %g] exceeds the live "
            "envelope [%g, %g]",
            static_cast<unsigned long long>(b), rec.block_min, rec.block_max,
            fresh.min, fresh.max));
      }
    }
    if (rec.block_null_count > fresh.null_count) {
      return Invalid(StrFormat("block %llu recorded more NULLs than the "
                               "zone map tracks",
                               static_cast<unsigned long long>(b)));
    }
    // Justify the skip against the LIVE envelope: immediately after
    // planning (the only time a zone certificate is checked) the fold
    // discipline guarantees it matches the planning-time snapshot.
    bool justified = false;
    if (!fresh.has_value) {
      justified = has_comparison || has_is_not_null;
    } else {
      const Interval envelope = Interval::Range(fresh.min, fresh.max);
      for (const Interval& iv : test_intervals) {
        Interval clipped = iv;
        clipped.Intersect(envelope);
        if (clipped.empty) {
          justified = true;
          break;
        }
      }
    }
    if (!justified && has_is_null && fresh.null_count == 0) {
      justified = true;
    }
    if (!justified) {
      return Invalid(StrFormat(
          "block %llu skip is not justified: its envelope is compatible "
          "with every scan test",
          static_cast<unsigned long long>(b)));
    }
  }
  return Ok();
}

CertificateCheckResult CertificateChecker::Check(
    const RewriteCertificate& cert) const {
  if (catalog_ == nullptr) return Invalid("checker has no catalog");
  switch (cert.kind) {
    case CertificateKind::kImplicationPrune:
    case CertificateKind::kImplicationContradiction:
    case CertificateKind::kPredicateIntroduction:
    case CertificateKind::kTwinSubstitution:
      return CheckEntailment(cert);
    case CertificateKind::kJoinElimination:
      return CheckJoinElimination(cert);
    case CertificateKind::kZoneMapSkip:
      return CheckZoneMapSkip(cert);
  }
  return Invalid("unknown certificate kind");
}

}  // namespace softdb
