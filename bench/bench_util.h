#ifndef SOFTDB_BENCH_BENCH_UTIL_H_
#define SOFTDB_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/softdb.h"
#include "workload/generator.h"
#include "workload/sc_kit.h"

namespace softdb::bench {

/// Standard experiment scale (large enough for stable page counts, small
/// enough that every bench binary runs in seconds).
inline WorkloadOptions StandardScale() {
  WorkloadOptions options;
  options.customers = 1000;
  options.orders = 10000;
  options.purchases = 20000;
  options.parts = 2000;
  options.projects = 5000;
  options.sales_per_month = 500;
  return options;
}

inline std::unique_ptr<SoftDb> MakeWorkloadDb(
    const WorkloadOptions& options = StandardScale()) {
  auto db = std::make_unique<SoftDb>();
  Status st = GenerateWorkload(db.get(), options);
  if (!st.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 st.ToString().c_str());
    std::abort();
  }
  return db;
}

/// Executes and aborts on error (benches should fail loudly).
inline QueryResult MustExecute(SoftDb* db, const std::string& sql) {
  auto result = db->Execute(sql);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n  %s\n",
                 result.status().ToString().c_str(), sql.c_str());
    std::abort();
  }
  return *std::move(result);
}

/// Fixed-width table printer for the paper-style result tables.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers,
                        std::size_t col_width = 14)
      : num_cols_(headers.size()), col_width_(col_width) {
    PrintRule();
    PrintRow(headers);
    PrintRule();
  }

  void PrintRow(const std::vector<std::string>& cells) {
    std::string line = "|";
    for (std::size_t i = 0; i < num_cols_; ++i) {
      std::string cell = i < cells.size() ? cells[i] : "";
      if (cell.size() > col_width_) cell.resize(col_width_);
      line += " " + cell + std::string(col_width_ - cell.size(), ' ') + " |";
    }
    std::puts(line.c_str());
  }

  void PrintRule() {
    std::string line = "+";
    for (std::size_t i = 0; i < num_cols_; ++i) {
      line += std::string(col_width_ + 2, '-') + "+";
    }
    std::puts(line.c_str());
  }

 private:
  std::size_t num_cols_;
  std::size_t col_width_;
};

inline std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}
inline std::string FmtU(std::uint64_t v) { return std::to_string(v); }

inline void Banner(const std::string& title) {
  std::puts("");
  std::puts(("=== " + title + " ===").c_str());
}

/// Removes a leading `--json` from argv (so benchmark::Initialize never
/// sees it) and reports whether it was present. Benches passed --json
/// additionally write a machine-readable BENCH_<tag>.json.
inline bool StripJsonFlag(int* argc, char** argv) {
  bool found = false;
  int w = 1;
  for (int r = 1; r < *argc; ++r) {
    if (std::string(argv[r]) == "--json") {
      found = true;
      continue;
    }
    argv[w++] = argv[r];
  }
  *argc = w;
  return found;
}

/// Tiny flat-object JSON emitter (keys added in order; no nesting — bench
/// reports are one level deep by design).
class JsonWriter {
 public:
  void Add(const std::string& key, const std::string& value) {
    entries_.push_back("\"" + key + "\": \"" + Escape(value) + "\"");
  }
  void Add(const std::string& key, const char* value) {
    Add(key, std::string(value));
  }
  void Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    entries_.push_back("\"" + key + "\": " + buf);
  }
  void Add(const std::string& key, std::uint64_t value) {
    entries_.push_back("\"" + key + "\": " + std::to_string(value));
  }
  void Add(const std::string& key, int value) {
    entries_.push_back("\"" + key + "\": " + std::to_string(value));
  }

  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\n", f);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::fputs(("  " + entries_[i] +
                  (i + 1 < entries_.size() ? ",\n" : "\n"))
                     .c_str(),
                 f);
    }
    std::fputs("}\n", f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  static std::string Escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  std::vector<std::string> entries_;
};

/// Seconds per execution of `sql`: clears the plan cache, warms once
/// (plan + caches), then times `iterations` executions.
inline double SecondsPerQuery(SoftDb* db, const std::string& sql,
                              int iterations = 40) {
  db->plan_cache().Clear();
  (void)MustExecute(db, sql);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) {
    volatile std::uint64_t sink = MustExecute(db, sql).rows.NumRows();
    (void)sink;
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count() / iterations;
}

/// Removes a leading `--threads N[,M...]` from argv (before
/// benchmark::Initialize sees it) and fills `out` with the requested
/// thread counts. Returns true when the flag was present. Benches passed
/// --threads additionally sweep the morsel-parallel engine and write a
/// BENCH_<tag>_PAR.json report.
inline bool StripThreadsFlag(int* argc, char** argv,
                             std::vector<std::size_t>* out) {
  bool found = false;
  int w = 1;
  for (int r = 1; r < *argc; ++r) {
    if (std::string(argv[r]) == "--threads" && r + 1 < *argc) {
      found = true;
      const std::string list = argv[++r];
      std::size_t pos = 0;
      while (pos < list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        out->push_back(
            static_cast<std::size_t>(std::stoul(list.substr(pos, comma - pos))));
        pos = comma + 1;
      }
      continue;
    }
    argv[w++] = argv[r];
  }
  *argc = w;
  return found;
}

/// One thread-count sample of the parallel sweep.
struct ParallelSample {
  std::size_t threads = 1;
  double sec_per_query = 0;
  std::uint64_t rows = 0;
  std::uint64_t morsels = 0;
};

/// Times `sql` at each thread count (1 = serial execution; >1 = the
/// morsel-driven parallel engine). Aborts if
/// any thread count changes the answer — parallel output must be
/// bit-identical to serial.
inline std::vector<ParallelSample> MeasureParallelSweep(
    SoftDb* db, const std::string& sql,
    const std::vector<std::size_t>& thread_counts, int iterations = 40) {
  const std::size_t saved_threads = db->options().num_threads;

  std::vector<ParallelSample> samples;
  std::string reference;  // Serialized first-run rows, for bit-identity.
  for (const std::size_t threads : thread_counts) {
    db->options().num_threads = threads;
    db->plan_cache().Clear();
    QueryResult warm = MustExecute(db, sql);  // Warm: plan + scheduler.
    std::string rendered;
    for (const auto& row : warm.rows.rows) {
      for (const Value& v : row) rendered += v.ToString() + "|";
      rendered += "\n";
    }
    if (reference.empty()) {
      reference = rendered;
    } else if (rendered != reference) {
      std::fprintf(stderr, "parallel answer mismatch at %zu threads on %s\n",
                   threads, sql.c_str());
      std::abort();
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iterations; ++i) {
      volatile std::uint64_t sink = MustExecute(db, sql).rows.NumRows();
      (void)sink;
    }
    const auto t1 = std::chrono::steady_clock::now();
    ParallelSample s;
    s.threads = threads;
    s.sec_per_query =
        std::chrono::duration<double>(t1 - t0).count() / iterations;
    s.rows = warm.rows.NumRows();
    s.morsels = warm.exec_stats.morsels;
    samples.push_back(s);
  }
  db->options().num_threads = saved_threads;
  db->plan_cache().Clear();
  return samples;
}

/// Emits the BENCH_<tag>_PAR.json report for a parallel sweep over one or
/// two query shapes.
inline void WriteParallelJson(const std::string& tag, const std::string& sql,
                              const std::vector<ParallelSample>& samples) {
  JsonWriter j;
  j.Add("bench", tag + "_PAR");
  j.Add("query", sql);
  j.Add("host_threads",
        static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  double serial_sec = 0;
  for (const ParallelSample& s : samples) {
    const std::string prefix = "t" + std::to_string(s.threads);
    j.Add(prefix + "_sec_per_query", s.sec_per_query);
    j.Add(prefix + "_rows", s.rows);
    j.Add(prefix + "_morsels", s.morsels);
    if (s.threads == 1) serial_sec = s.sec_per_query;
    if (serial_sec > 0 && s.threads > 1) {
      j.Add(prefix + "_speedup_vs_serial",
            s.sec_per_query > 0 ? serial_sec / s.sec_per_query : 0.0);
    }
  }
  j.WriteFile("BENCH_" + tag + "_PAR.json");
}

}  // namespace softdb::bench

#endif  // SOFTDB_BENCH_BENCH_UTIL_H_
