#ifndef SOFTBENCH_WORKLOADS_H_
#define SOFTBENCH_WORKLOADS_H_

// The three softbench workloads: engine set-up, seeded statement streams,
// and the output checks. README.md says why each workload exists.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/softdb.h"

namespace softbench {

enum class Workload { kServePoint, kScAnalytic, kIngestWal };

std::optional<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload workload);

/// Closed-loop shape of a workload: client sessions (each waits for its
/// reply), engine morsel threads and the WAL flush policy (0 = no WAL).
/// Serving workers are the ServerOptions default (2) everywhere.
struct WorkloadShape {
  std::size_t sessions = 1;
  std::size_t engine_threads = 1;
  std::size_t wal_sync_every_n = 0;
};
WorkloadShape ShapeOf(Workload workload);

/// Engine options for `workload`; `wal_dir` is used by ingest_wal only.
softdb::EngineOptions EngineOptionsFor(Workload workload,
                                       const std::string& wal_dir);

/// Rows of the generated tables that inserts append after.
inline constexpr std::int64_t kBaseOrders = 50000;
inline constexpr std::int64_t kBasePurchases = 100000;

struct SetupResult {
  std::unique_ptr<softdb::SoftDb> db;
  double total_s = 0.0;       // Empty engine to ready.
  double arm_s = 0.0;         // SC registration, exception AST, zone maps.
  double checkpoint_s = 0.0;  // ingest_wal only.
};

/// Builds a ready engine: generates the paper schema at 5x StandardScale
/// from `seed`, creates the workload's indexes, arms its SCs and (for
/// ingest_wal) checkpoints.
softdb::Result<SetupResult> SetUp(Workload workload, std::uint64_t seed,
                                  const std::string& wal_dir);

enum class StmtKind { kSelect, kInsert };

/// One generated statement plus what its check needs.
struct Stmt {
  std::string sql;
  StmtKind kind = StmtKind::kSelect;
  /// serve_point: the table ("orders"/"customer") and key looked up.
  /// ingest_wal inserts: the target table and the row image acknowledged.
  std::string table;
  std::int64_t key = -1;
  std::vector<softdb::Value> row;
};

/// Seeded, deterministic statement source for one client session.
class StatementStream {
 public:
  virtual ~StatementStream() = default;
  virtual Stmt Next() = 0;
};

std::unique_ptr<StatementStream> MakeStream(Workload workload,
                                            std::uint64_t seed,
                                            std::size_t client);

/// Statements run once before timing so steady-state caches are warm:
/// serve_point's hot lookup texts. Empty for the other workloads.
std::vector<std::string> WarmupStatements(Workload workload,
                                          std::uint64_t seed);

/// Order-insensitive result equality; doubles compare to a relative 1e-9
/// (aggregation order may differ between plans).
bool SameRows(const softdb::RowSet& a, const softdb::RowSet& b);

/// serve_point: the lookup returned exactly the generated row.
softdb::Status CheckPointLookup(softdb::SoftDb* db, const Stmt& stmt,
                                const softdb::RowSet& rows);

/// ingest_wal: `recovered` holds the generated rows plus exactly the
/// acknowledged inserts. The single client acknowledged the first
/// `acked_purchases` purchase and `acked_orders` orders INSERTs of its
/// seeded stream, in order, so the expected rows are regenerated from
/// `seed` rather than kept in memory during the run.
softdb::Status CheckRecovered(softdb::SoftDb* recovered, std::uint64_t seed,
                              std::uint64_t acked_purchases,
                              std::uint64_t acked_orders);

/// Every SC-driven rewrite and estimation option off, for the reference
/// answers of the sc_analytic check.
void DisableScRewrites(softdb::EngineOptions* options);

}  // namespace softbench

#endif  // SOFTBENCH_WORKLOADS_H_
