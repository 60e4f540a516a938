#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <unordered_set>

#include "common/date.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "constraints/column_offset_sc.h"
#include "workload/generator.h"
#include "workload/sc_kit.h"

namespace softbench {

using softdb::Date;
using softdb::Result;
using softdb::Rng;
using softdb::SoftDb;
using softdb::Status;
using softdb::StrFormat;
using softdb::Value;

namespace {

/// 5x the experiments' StandardScale.
softdb::WorkloadOptions Scale(std::uint64_t seed) {
  softdb::WorkloadOptions options;
  options.seed = seed;
  options.customers = 5000;
  options.orders = kBaseOrders;
  options.purchases = kBasePurchases;
  options.parts = 10000;
  options.projects = 25000;
  options.sales_per_month = 2500;
  return options;
}

constexpr softdb::ColumnIdx kPurchaseReceiptDate = 5;

// Date range of the generated purchase/project rows: 1999-01-01 + [0, 730].
std::int64_t BaseDate() { return Date::FromYmd(1999, 1, 1); }

std::string DateLit(std::int64_t days) {
  return "DATE '" + Date::ToString(days) + "'";
}

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

Status Run(SoftDb* db, const std::string& sql) {
  return db->Execute(sql).status();
}

/// purchase: receipt_date - order_date in [0, late_max + 7]. The generator
/// ships at most late_max days after the order and delivers within a week,
/// so this offset SC is absolute (an ASC) and drives predicate introduction
/// onto the order_date index. It sits on receipt_date rather than
/// ship_date because every ship_date predicate already routes through the
/// ship-window exception AST.
Status RegisterReceiptOffsetAsc(SoftDb* db, int late_max) {
  return db->scs().Add(
      std::make_unique<softdb::ColumnOffsetSc>(
          "asc_receipt_offset", "purchase",
          softdb::WorkloadColumns::kPurchaseOrderDate, kPurchaseReceiptDate, 0,
          late_max + 7),
      db->catalog());
}

Status ArmScs(Workload workload, SoftDb* db, int late_max) {
  if (workload == Workload::kServePoint) return Status::OK();
  SOFTDB_RETURN_IF_ERROR(RegisterReceiptOffsetAsc(db, late_max));
  SOFTDB_RETURN_IF_ERROR(softdb::RegisterShipWindowSc(db).status());
  SOFTDB_RETURN_IF_ERROR(db->CreateExceptionAst("sc_ship_window").status());
  if (workload == Workload::kScAnalytic) {
    SOFTDB_RETURN_IF_ERROR(softdb::RegisterOrdersHoleSc(db).status());
    SOFTDB_RETURN_IF_ERROR(softdb::RegisterCustomerRegionFd(db).status());
    SOFTDB_RETURN_IF_ERROR(softdb::RegisterProjectWindowSc(db).status());
    SOFTDB_RETURN_IF_ERROR(softdb::RegisterPartCorrelationSc(db).status());
  } else {
    SOFTDB_RETURN_IF_ERROR(softdb::RegisterOrdersInclusionSc(db).status());
  }
  SOFTDB_RETURN_IF_ERROR(softdb::RegisterOrderPriceDomainSc(db).status());
  SOFTDB_RETURN_IF_ERROR(db->MineZoneMaps("purchase"));
  // The workloads mean what README.md says only if the ASC verified as
  // absolute and the ship window as statistical.
  const softdb::SoftConstraint* asc = db->scs().Find("asc_receipt_offset");
  const softdb::SoftConstraint* ssc = db->scs().Find("sc_ship_window");
  if (asc == nullptr || !asc->IsAbsolute() || ssc == nullptr ||
      !ssc->active() || ssc->IsAbsolute()) {
    return Status::Internal("ship offset SCs did not arm as ASC + SSC");
  }
  return Status::OK();
}

// ---- serve_point ----------------------------------------------------------

constexpr std::size_t kHotKeys = 512;   // Per table.
constexpr double kHotShare = 0.95;

struct HotKeys {
  std::vector<std::int64_t> orders;
  std::vector<std::int64_t> customers;
};

HotKeys MakeHotKeys(std::uint64_t seed) {
  Rng rng(seed ^ 0x407ULL);
  HotKeys hot;
  for (std::size_t i = 0; i < kHotKeys; ++i) {
    hot.orders.push_back(rng.Uniform(0, kBaseOrders - 1));
    hot.customers.push_back(
        rng.Uniform(0, static_cast<std::int64_t>(Scale(seed).customers) - 1));
  }
  return hot;
}

std::string PointSql(const std::string& table, std::int64_t key) {
  return table == "orders"
             ? StrFormat("SELECT * FROM orders WHERE o_orderkey = %lld",
                         static_cast<long long>(key))
             : StrFormat("SELECT * FROM customer WHERE c_custkey = %lld",
                         static_cast<long long>(key));
}

class ServePointStream final : public StatementStream {
 public:
  ServePointStream(std::uint64_t seed, std::size_t client)
      : hot_(MakeHotKeys(seed)),
        customers_(static_cast<std::int64_t>(Scale(seed).customers)),
        rng_(seed * 0x9E3779B97F4A7C15ULL + client + 1) {}

  Stmt Next() override {
    Stmt stmt;
    const bool orders = rng_.NextBool(0.5);
    stmt.table = orders ? "orders" : "customer";
    if (rng_.NextBool(kHotShare)) {
      // Skewed over the hot set: low indexes are drawn most often.
      const double u = rng_.NextDouble();
      const auto i = static_cast<std::size_t>(u * u * kHotKeys);
      stmt.key = orders ? hot_.orders[i] : hot_.customers[i];
    } else {
      stmt.key = rng_.Uniform(0, (orders ? kBaseOrders : customers_) - 1);
    }
    stmt.sql = PointSql(stmt.table, stmt.key);
    return stmt;
  }

 private:
  HotKeys hot_;
  std::int64_t customers_;
  Rng rng_;
};

// ---- sc_analytic ----------------------------------------------------------

/// The paper's SC-exploiting templates with seeded literals, round-robin.
/// Every text is new: a drawn duplicate is redrawn.
class ScAnalyticStream final : public StatementStream {
 public:
  ScAnalyticStream(std::uint64_t seed, std::size_t client)
      : rng_(seed * 0x9E3779B97F4A7C15ULL + 0xA11ULL + client) {}

  Stmt Next() override {
    const int tmpl = static_cast<int>(next_template_++ % 7);
    for (;;) {
      std::string sql = Draw(tmpl);
      if (seen_.insert(sql).second) {
        Stmt stmt;
        stmt.sql = std::move(sql);
        return stmt;
      }
    }
  }

 private:
  std::string Draw(int tmpl) {
    const std::int64_t base = BaseDate();
    switch (tmpl) {
      case 0:  // E1: predicate introduction via asc_receipt_offset.
        return StrFormat(
            "SELECT pu_key, order_date, quantity, price FROM purchase "
            "WHERE receipt_date = %s AND quantity <= %lld",
            DateLit(base + rng_.Uniform(30, 760)).c_str(),
            static_cast<long long>(rng_.Uniform(5, 50)));
      case 1: {  // E2: price x balance ranges against the planted hole.
        // Balances stay inside the hole's [0, 2000] band, so the price range
        // is trimmed (it straddles the hole) or pruned (it sits inside).
        const double p_lo = 6000.0 + rng_.NextDouble() * 3500.0;
        const double p_hi = p_lo + 500.0 + rng_.NextDouble() * 3000.0;
        const double b_lo = rng_.NextDouble() * 800.0;
        const double b_hi = b_lo + 300.0 + rng_.NextDouble() * (1700.0 - b_lo);
        return StrFormat(
            "SELECT o_orderkey, o_totalprice FROM orders JOIN customer "
            "ON o_custkey = c_custkey WHERE o_totalprice BETWEEN %.2f AND "
            "%.2f AND c_acctbal BETWEEN %.2f AND %.2f",
            p_lo, p_hi, b_lo, b_hi);
      }
      case 2:  // E3: aggregate over a join the FK makes redundant.
        return StrFormat(
            "SELECT o_status, COUNT(*) AS n, SUM(o_totalprice) AS total "
            "FROM orders JOIN customer ON o_custkey = c_custkey "
            "WHERE o_totalprice > %.2f GROUP BY o_status",
            2000.0 + rng_.NextDouble() * 16000.0);
      case 3: {  // E4: projects active on a day (twinned estimate).
        const std::int64_t day = base + rng_.Uniform(30, 700);
        return StrFormat(
            "SELECT proj_id, budget FROM project WHERE start_date <= %s "
            "AND end_date >= %s AND dept <= %lld",
            DateLit(day).c_str(), DateLit(day).c_str(),
            static_cast<long long>(rng_.Uniform(4, 19)));
      }
      case 4:  // E5: a ship date through the ship-window exception AST.
        // A point predicate: for a range the AST's two branches overlap.
        return StrFormat(
            "SELECT pu_key, ship_date, price FROM purchase "
            "WHERE ship_date = %s AND quantity <= %lld",
            DateLit(base + rng_.Uniform(30, 760)).c_str(),
            static_cast<long long>(rng_.Uniform(5, 50)));
      case 5:  // E6: GROUP BY with an FD-redundant key.
        return StrFormat(
            "SELECT c_nationkey, c_regionkey, COUNT(*) AS n FROM customer "
            "WHERE c_acctbal >= %.2f GROUP BY c_nationkey, c_regionkey "
            "ORDER BY c_nationkey",
            rng_.NextDouble() * 9000.0);
      default: {  // E10: 12-branch UNION ALL over a date range.
        const std::int64_t lo = BaseDate() + rng_.Uniform(0, 330);
        const std::string lo_s = Date::ToString(lo);
        const std::string hi_s =
            Date::ToString(std::min<std::int64_t>(lo + rng_.Uniform(1, 90),
                                                  BaseDate() + 364));
        std::string sql;
        for (int m = 1; m <= 12; ++m) {
          if (m > 1) sql += " UNION ALL ";
          sql += StrFormat(
              "SELECT sale_id, amount FROM sales_m%d WHERE sale_date "
              "BETWEEN DATE '%s' AND DATE '%s'",
              m, lo_s.c_str(), hi_s.c_str());
        }
        return sql;
      }
    }
  }

  Rng rng_;
  std::uint64_t next_template_ = 0;
  std::unordered_set<std::string> seen_;
};

// ---- ingest_wal -----------------------------------------------------------

constexpr double kReadShare = 0.10;
constexpr double kOrdersShare = 0.15;  // Of all statements.
constexpr double kLateShare = 0.01;    // Inserts violating the ship window.
constexpr int kReadTexts = 16;

class IngestStream final : public StatementStream {
 public:
  IngestStream(std::uint64_t seed, std::size_t client)
      : rng_(seed * 0x9E3779B97F4A7C15ULL + 0x1D6ULL + client) {}

  Stmt Next() override {
    const double u = rng_.NextDouble();
    if (u < kReadShare) return Read();
    if (u < kReadShare + kOrdersShare) return OrdersInsert();
    return PurchaseInsert();
  }

 private:
  // Repeated texts: the last weeks of the generated range, where inserts
  // land, so reads see new rows, the exception AST and widened zone maps.
  Stmt Read() {
    Stmt stmt;
    const std::int64_t day =
        BaseDate() + 700 + rng_.Uniform(0, kReadTexts - 1) * 3;
    stmt.sql = "SELECT COUNT(*) AS n, SUM(quantity) AS q FROM purchase "
               "WHERE ship_date = " +
               DateLit(day);
    return stmt;
  }

  Stmt PurchaseInsert() {
    const std::int64_t key = kBasePurchases + purchases_++;
    // Order dates continue the generated range at ~200 rows per day.
    const std::int64_t order_date = BaseDate() + 730 + purchases_ / 200;
    const std::int64_t lag = rng_.NextBool(kLateShare) ? rng_.Uniform(22, 60)
                                                       : rng_.Uniform(0, 21);
    const std::int64_t ship_date = order_date + lag;
    const std::int64_t receipt_date = ship_date + rng_.Uniform(0, 7);
    const std::int64_t orderkey = rng_.Uniform(0, kBaseOrders - 1);
    const std::int64_t partkey = rng_.Uniform(0, 9999);
    const std::int64_t quantity = rng_.Uniform(1, 50);
    const std::string price = StrFormat("%.2f", 1.0 + rng_.NextDouble() * 999.0);
    const std::string discount = StrFormat("%.4f", rng_.NextDouble() * 0.1);
    Stmt stmt;
    stmt.kind = StmtKind::kInsert;
    stmt.table = "purchase";
    stmt.key = key;
    stmt.row = {Value::Int64(key),
                Value::Int64(orderkey),
                Value::Int64(partkey),
                Value::Date(order_date),
                Value::Date(ship_date),
                Value::Date(receipt_date),
                Value::Int64(quantity),
                Value::Double(std::strtod(price.c_str(), nullptr)),
                Value::Double(std::strtod(discount.c_str(), nullptr))};
    stmt.sql = StrFormat(
        "INSERT INTO purchase VALUES (%lld, %lld, %lld, %s, %s, %s, %lld, "
        "%s, %s)",
        static_cast<long long>(key), static_cast<long long>(orderkey),
        static_cast<long long>(partkey), DateLit(order_date).c_str(),
        DateLit(ship_date).c_str(), DateLit(receipt_date).c_str(),
        static_cast<long long>(quantity), price.c_str(), discount.c_str());
    return stmt;
  }

  Stmt OrdersInsert() {
    static constexpr const char* kStatuses[] = {"OPEN", "SHIPPED",
                                                "DELIVERED", "RETURNED"};
    const std::int64_t key = kBaseOrders + orders_++;
    const std::int64_t custkey = rng_.Uniform(0, 4999);
    const std::int64_t date = BaseDate() + rng_.Uniform(0, 730);
    // Inside the generated price range, so the price domain SC holds.
    const std::string price =
        StrFormat("%.2f", 500.0 + rng_.NextDouble() * 19000.0);
    const char* status = kStatuses[rng_.Uniform(0, 3)];
    Stmt stmt;
    stmt.kind = StmtKind::kInsert;
    stmt.table = "orders";
    stmt.key = key;
    stmt.row = {Value::Int64(key), Value::Int64(custkey), Value::Date(date),
                Value::Double(std::strtod(price.c_str(), nullptr)),
                Value::String(status)};
    stmt.sql = StrFormat(
        "INSERT INTO orders VALUES (%lld, %lld, %s, %s, '%s')",
        static_cast<long long>(key), static_cast<long long>(custkey),
        DateLit(date).c_str(), price.c_str(), status);
    return stmt;
  }

  Rng rng_;
  std::int64_t purchases_ = 0;
  std::int64_t orders_ = 0;
};

bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() == softdb::TypeId::kDouble &&
      b.type() == softdb::TypeId::kDouble) {
    const double x = a.AsDouble(), y = b.AsDouble();
    return std::fabs(x - y) <= 1e-9 * std::max({1.0, std::fabs(x),
                                                std::fabs(y)});
  }
  return a == b;
}

std::vector<std::vector<Value>> Sorted(const softdb::RowSet& rows) {
  std::vector<std::vector<Value>> out = rows.rows;
  std::sort(out.begin(), out.end(), [](const auto& x, const auto& y) {
    for (std::size_t i = 0; i < std::min(x.size(), y.size()); ++i) {
      Result<int> c = x[i].Compare(y[i]);
      const int cmp = c.ok() ? *c : 0;
      if (cmp != 0) return cmp < 0;
    }
    return x.size() < y.size();
  });
  return out;
}

}  // namespace

std::optional<Workload> ParseWorkload(const std::string& name) {
  if (name == "serve_point") return Workload::kServePoint;
  if (name == "sc_analytic") return Workload::kScAnalytic;
  if (name == "ingest_wal") return Workload::kIngestWal;
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kServePoint: return "serve_point";
    case Workload::kScAnalytic: return "sc_analytic";
    case Workload::kIngestWal: return "ingest_wal";
  }
  return "unknown";
}

WorkloadShape ShapeOf(Workload workload) {
  WorkloadShape shape;
  switch (workload) {
    case Workload::kServePoint:
      shape.sessions = 2;
      break;
    case Workload::kScAnalytic:
      shape.engine_threads = 2;
      break;
    case Workload::kIngestWal:
      shape.wal_sync_every_n = 32;
      break;
  }
  return shape;
}

softdb::EngineOptions EngineOptionsFor(Workload workload,
                                       const std::string& wal_dir) {
  const WorkloadShape shape = ShapeOf(workload);
  softdb::EngineOptions options;
  options.num_threads = shape.engine_threads;
  if (workload == Workload::kScAnalytic) {
    // Rewrite-time implication is the route by which E10's branches are
    // knocked off through the sales CHECKs, and the certificate checker
    // rejects those proofs: it compares a recorded interval with only the
    // first of the two facts a two-sided CHECK provides. With it on every
    // E10 statement counts certificates_failed, so E10 runs all twelve
    // branches until the checker is fixed.
    options.enable_implication = false;
  }
  if (shape.wal_sync_every_n > 0) {
    options.wal_dir = wal_dir;
    options.wal_sync_every_n = shape.wal_sync_every_n;
  }
  return options;
}

Result<SetupResult> SetUp(Workload workload, std::uint64_t seed,
                          const std::string& wal_dir) {
  const auto t0 = std::chrono::steady_clock::now();
  SetupResult out;
  out.db = std::make_unique<SoftDb>(EngineOptionsFor(workload, wal_dir));
  SoftDb* db = out.db.get();
  if (workload == Workload::kIngestWal && db->wal() == nullptr) {
    return Status::Internal("ingest_wal: WAL did not open in " + wal_dir);
  }
  const softdb::WorkloadOptions scale = Scale(seed);
  SOFTDB_RETURN_IF_ERROR(softdb::GenerateWorkload(db, scale));
  if (workload == Workload::kServePoint) {
    SOFTDB_RETURN_IF_ERROR(
        Run(db, "CREATE INDEX idx_orders_key ON orders (o_orderkey)"));
    SOFTDB_RETURN_IF_ERROR(
        Run(db, "CREATE INDEX idx_customer_key ON customer (c_custkey)"));
  }
  const auto t_arm = std::chrono::steady_clock::now();
  SOFTDB_RETURN_IF_ERROR(ArmScs(workload, db, scale.late_max));
  out.arm_s = Seconds(t_arm);
  if (workload == Workload::kIngestWal) {
    const auto t_ckpt = std::chrono::steady_clock::now();
    SOFTDB_RETURN_IF_ERROR(db->Checkpoint());
    out.checkpoint_s = Seconds(t_ckpt);
  }
  out.total_s = Seconds(t0);
  return out;
}

std::unique_ptr<StatementStream> MakeStream(Workload workload,
                                            std::uint64_t seed,
                                            std::size_t client) {
  switch (workload) {
    case Workload::kServePoint:
      return std::make_unique<ServePointStream>(seed, client);
    case Workload::kScAnalytic:
      return std::make_unique<ScAnalyticStream>(seed, client);
    case Workload::kIngestWal:
      return std::make_unique<IngestStream>(seed, client);
  }
  return nullptr;
}

std::vector<std::string> WarmupStatements(Workload workload,
                                          std::uint64_t seed) {
  std::vector<std::string> out;
  if (workload != Workload::kServePoint) return out;
  const HotKeys hot = MakeHotKeys(seed);
  for (std::int64_t key : hot.orders) out.push_back(PointSql("orders", key));
  for (std::int64_t key : hot.customers) {
    out.push_back(PointSql("customer", key));
  }
  return out;
}

bool SameRows(const softdb::RowSet& a, const softdb::RowSet& b) {
  if (a.NumRows() != b.NumRows()) return false;
  const auto sa = Sorted(a);
  const auto sb = Sorted(b);
  for (std::size_t r = 0; r < sa.size(); ++r) {
    if (sa[r].size() != sb[r].size()) return false;
    for (std::size_t c = 0; c < sa[r].size(); ++c) {
      if (!SameValue(sa[r][c], sb[r][c])) return false;
    }
  }
  return true;
}

Status CheckPointLookup(SoftDb* db, const Stmt& stmt,
                        const softdb::RowSet& rows) {
  SOFTDB_ASSIGN_OR_RETURN(softdb::Table * table,
                          db->catalog().GetTable(stmt.table));
  // Generated keys equal their slot ids.
  const auto rid = static_cast<softdb::RowId>(stmt.key);
  if (rows.NumRows() != 1 || !table->IsLive(rid) ||
      rows.rows[0] != table->GetRow(rid)) {
    return Status::Internal(StrFormat("%s returned %zu rows, not row %lld",
                                      stmt.sql.c_str(), rows.NumRows(),
                                      static_cast<long long>(stmt.key)));
  }
  return Status::OK();
}

Status CheckRecovered(SoftDb* recovered, std::uint64_t seed,
                      std::uint64_t acked_purchases,
                      std::uint64_t acked_orders) {
  struct Target {
    softdb::Table* table = nullptr;
    std::int64_t next = 0;
    std::int64_t end = 0;
  };
  SOFTDB_ASSIGN_OR_RETURN(softdb::Table * purchase,
                          recovered->catalog().GetTable("purchase"));
  SOFTDB_ASSIGN_OR_RETURN(softdb::Table * orders,
                          recovered->catalog().GetTable("orders"));
  Target targets[] = {
      {purchase, kBasePurchases,
       kBasePurchases + static_cast<std::int64_t>(acked_purchases)},
      {orders, kBaseOrders,
       kBaseOrders + static_cast<std::int64_t>(acked_orders)}};
  IngestStream stream(seed, 0);
  while (targets[0].next < targets[0].end ||
         targets[1].next < targets[1].end) {
    const Stmt stmt = stream.Next();
    if (stmt.kind != StmtKind::kInsert) continue;
    Target& t = targets[stmt.table == "purchase" ? 0 : 1];
    if (t.next >= t.end) continue;
    // Appends are the only DML, so the i-th insert owns slot base + i.
    const auto rid = static_cast<softdb::RowId>(t.next++);
    bool same = t.table->IsLive(rid);
    if (same) {
      const std::vector<Value> row = t.table->GetRow(rid);
      same = row.size() == stmt.row.size();
      for (std::size_t c = 0; same && c < row.size(); ++c) {
        same = SameValue(row[c], stmt.row[c]);
      }
    }
    if (!same) {
      return Status::Internal(StrFormat(
          "recovered %s row %lld differs from the acknowledged insert",
          stmt.table.c_str(), static_cast<long long>(t.next - 1)));
    }
  }
  for (const Target& t : targets) {
    if (static_cast<std::int64_t>(t.table->NumRows()) != t.end) {
      return Status::Internal(StrFormat(
          "recovered %s holds %zu rows, want %lld", t.table->name().c_str(),
          t.table->NumRows(), static_cast<long long>(t.end)));
    }
  }
  return Status::OK();
}

void DisableScRewrites(softdb::EngineOptions* options) {
  options->enable_predicate_introduction = false;
  options->enable_twinning = false;
  options->enable_join_elimination = false;
  options->enable_fd_pruning = false;
  options->enable_hole_trimming = false;
  options->enable_domain_rules = false;
  options->enable_unionall_pruning = false;
  options->enable_exception_asts = false;
  options->enable_implication = false;
  options->use_twins_in_estimation = false;
  options->enable_zone_maps = false;
}

}  // namespace softbench
