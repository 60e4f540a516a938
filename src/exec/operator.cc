#include "exec/operator.h"

#include "common/failpoint.h"
#include "common/str_util.h"

namespace softdb {

std::string RowSet::ToString(std::size_t max_rows) const {
  std::string out;
  std::vector<std::string> headers;
  headers.reserve(schema.NumColumns());
  for (const ColumnDef& c : schema.columns()) headers.push_back(c.name);
  out += Join(headers, " | ") + "\n";
  out += std::string(out.size() > 1 ? out.size() - 1 : 0, '-') + "\n";
  std::size_t shown = 0;
  for (const std::vector<Value>& row : rows) {
    if (shown++ >= max_rows) {
      out += StrFormat("... (%zu rows total)\n", rows.size());
      break;
    }
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const Value& v : row) cells.push_back(v.ToString());
    out += Join(cells, " | ") + "\n";
  }
  return out;
}

Result<RowSet> ExecuteToCompletion(Operator* root, ExecContext* ctx) {
  RowSet result;
  result.schema = root->schema();
  SOFTDB_RETURN_IF_ERROR(root->Open(ctx));
  ColumnBatch batch;
  while (true) {
    SOFTDB_RETURN_IF_ERROR(ctx->CheckInterrupt());
    SOFTDB_ASSIGN_OR_RETURN(bool has, root->NextBatch(ctx, &batch));
    if (!has) break;
    for (std::size_t i = 0; i < batch.sel_size(); ++i) {
      // Action-only chaos site: fires between output rows, where tests
      // mutate engine state (overturn an SC, cancel the query)
      // mid-execution; the next batch boundary observes the change.
      SOFTDB_FAILPOINT_HIT("exec.drain");
      result.rows.push_back(batch.MaterializeRow(batch.sel()[i]));
    }
    ctx->stats.rows_output += batch.sel_size();
  }
  return result;
}

}  // namespace softdb
