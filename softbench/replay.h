#ifndef SOFTBENCH_REPLAY_H_
#define SOFTBENCH_REPLAY_H_

// Traced replay: executes one statement through the engine layers' public
// functions in the order SoftDb::ExecuteSelect / ExecuteInsert / InsertRow
// call them, recording a span around each layer call. It exists until the
// engine records its own per-phase profile; any drift between this copy
// and the engine shows up as engine.unattributed_us.

#include <cstdint>
#include <string>
#include <vector>

#include "engine/softdb.h"
#include "trace.h"

namespace softbench {

/// Counts gathered by the replay, for the ratio metrics.
struct ReplayCounters {
  std::uint64_t selects = 0;
  std::uint64_t inserts = 0;  // Rows.
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  softdb::ExecStats exec;  // Summed over SELECTs.
  std::vector<double> q_errors;  // Root estimate vs actual, per SELECT.
};

class Replay {
 public:
  Replay(softdb::SoftDb* db, Tracer* tracer) : db_(db), tracer_(tracer) {}

  /// Runs one statement under a root span with id `stmt_id`.
  softdb::Result<softdb::QueryResult> Execute(const std::string& sql,
                                              std::uint64_t stmt_id);

  const ReplayCounters& counters() const { return counters_; }

 private:
  using EpochSnapshot = std::vector<std::pair<std::string, std::uint64_t>>;

  softdb::Result<softdb::QueryResult> Select(const std::string& sql,
                                             const softdb::SelectStmt& stmt);
  softdb::Result<softdb::QueryResult> RunPlan(const softdb::PlanNode& plan,
                                              softdb::QueryResult result);
  softdb::Status Insert(const softdb::InsertStmt& stmt);
  softdb::Status InsertRow(const std::string& table_name,
                           const std::vector<softdb::Value>& values,
                           const std::set<std::string>* scope);
  void Certify(const std::vector<softdb::RewriteCertificate>& certs,
               softdb::ExecStats* stats, bool epoch_fast_path);
  EpochSnapshot Snapshot(const std::vector<std::string>& names) const;
  bool EpochsChanged(const EpochSnapshot& snapshot) const;

  softdb::SoftDb* db_;
  Tracer* tracer_;
  ReplayCounters counters_;
};

}  // namespace softbench

#endif  // SOFTBENCH_REPLAY_H_
