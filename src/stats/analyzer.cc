#include "stats/analyzer.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace softdb {

namespace {

struct ValueHash {
  std::size_t operator()(const Value& v) const { return v.Hash(); }
};
struct ValueEq {
  bool operator()(const Value& a, const Value& b) const {
    return a.GroupEquals(b);
  }
};

ColumnStats AnalyzeColumn(const Table& table, ColumnIdx col,
                          const AnalyzeOptions& options) {
  const ColumnVector& data = table.ColumnData(col);
  ColumnStats stats;
  std::unordered_map<Value, std::uint64_t, ValueHash, ValueEq> counts;
  std::vector<double> numeric;
  const bool is_numeric = IsNumericType(data.type());
  if (is_numeric) numeric.reserve(table.NumRows());

  for (RowId row = 0; row < table.NumSlots(); ++row) {
    if (!table.IsLive(row)) continue;
    ++stats.row_count;
    if (data.IsNull(row)) {
      ++stats.null_count;
      continue;
    }
    Value v = data.Get(row);
    if (is_numeric) numeric.push_back(v.NumericValue());
    if (!stats.min.has_value()) {
      stats.min = v;
      stats.max = v;
    } else {
      auto lt = v.Compare(*stats.min);
      if (lt.ok() && *lt < 0) stats.min = v;
      auto gt = v.Compare(*stats.max);
      if (gt.ok() && *gt > 0) stats.max = v;
    }
    ++counts[std::move(v)];
  }

  stats.distinct_count = counts.size();
  if (is_numeric) {
    stats.histogram =
        EquiDepthHistogram::Build(std::move(numeric), options.histogram_buckets);
  }

  // Top-k most common values.
  std::vector<FrequentValue> mcvs;
  mcvs.reserve(counts.size());
  for (auto& [v, c] : counts) mcvs.push_back(FrequentValue{v, c});
  std::sort(mcvs.begin(), mcvs.end(),
            [](const FrequentValue& a, const FrequentValue& b) {
              return a.count > b.count;
            });
  if (mcvs.size() > options.num_mcvs) mcvs.resize(options.num_mcvs);
  // The vector was sized for every distinct value; keep only the top k
  // (a 100k-row key column otherwise pins ~5 MB per column).
  mcvs.shrink_to_fit();
  stats.mcvs = std::move(mcvs);
  return stats;
}

}  // namespace

TableStats AnalyzeTable(const Table& table, const AnalyzeOptions& options) {
  TableStats stats;
  stats.row_count = table.NumRows();
  stats.analyzed_version = table.version();
  stats.columns.reserve(table.schema().NumColumns());
  for (ColumnIdx col = 0; col < table.schema().NumColumns(); ++col) {
    stats.columns.push_back(AnalyzeColumn(table, col, options));
  }
  return stats;
}

const TableStats& StatsCatalog::Analyze(const Table& table,
                                        const AnalyzeOptions& options) {
  // Compute outside the lock (a full table scan), then publish.
  auto fresh = std::make_unique<TableStats>(AnalyzeTable(table, options));
  std::unique_lock<std::shared_mutex> lk(mu_);
  std::unique_ptr<TableStats>& slot = stats_[table.name()];
  if (slot != nullptr) retired_.push_back(std::move(slot));
  slot = std::move(fresh);
  return *slot;
}

const TableStats* StatsCatalog::Get(const std::string& table_name) const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  auto it = stats_.find(table_name);
  return it == stats_.end() ? nullptr : it->second.get();
}

std::uint64_t StatsCatalog::StalenessOf(const Table& table) const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  auto it = stats_.find(table.name());
  if (it == stats_.end()) return table.version();
  return table.MutationsSince(it->second->analyzed_version);
}

void StatsCatalog::Clear() {
  std::unique_lock<std::shared_mutex> lk(mu_);
  for (auto& [_, slot] : stats_) retired_.push_back(std::move(slot));
  stats_.clear();
}

}  // namespace softdb
