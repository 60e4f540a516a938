// E2 — Join-hole range trimming ([8], §2, §4.3). Knowing the empty
// rectangles of the (o_totalprice, c_acctbal) joint distribution over
// orders ⋈ customer lets the optimizer prune the join entirely when the
// query rectangle falls inside a hole, and trim range predicates when it
// straddles one. Paper claim: "good optimization has been demonstrated
// through range restriction using the holes ... can reduce the number of
// pages that need to be scanned for the join."

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/str_util.h"

namespace softdb::bench {
namespace {

std::string HoleQuery(double a_lo, double a_hi, double b_lo, double b_hi) {
  return StrFormat(
      "SELECT o_orderkey FROM orders JOIN customer ON o_custkey = c_custkey "
      "WHERE o_totalprice BETWEEN %.0f AND %.0f "
      "AND c_acctbal BETWEEN %.0f AND %.0f",
      a_lo, a_hi, b_lo, b_hi);
}

void PrintExperimentTable() {
  Banner(
      "E2: join holes -- planted hole: o_totalprice in [8000,10000] x "
      "c_acctbal in [0,2000] is empty over orders JOIN customer");

  struct Scenario {
    const char* label;
    double a_lo, a_hi, b_lo, b_hi;
  };
  const Scenario scenarios[] = {
      {"inside hole", 8500, 9500, 500, 1500},
      {"straddles (high)", 9000, 12000, 500, 1500},
      {"straddles (low)", 6000, 9000, 500, 1500},
      {"spans hole", 7000, 11000, 500, 1500},
      {"outside hole", 12000, 15000, 500, 1500},
      {"B outside", 8500, 9500, 3000, 5000},
  };

  TablePrinter table({"query rect", "rows out", "pages base", "pages w/ SC",
                      "join input base", "join input w/SC", "rule"});
  for (const Scenario& s : scenarios) {
    auto db = MakeWorkloadDb();
    const std::string query = HoleQuery(s.a_lo, s.a_hi, s.b_lo, s.b_hi);

    auto base = MustExecute(db.get(), query);

    Status st = RegisterOrdersHoleSc(db.get()).status();
    if (!st.ok()) std::abort();
    db->plan_cache().Clear();
    auto with = MustExecute(db.get(), query);
    if (with.rows.NumRows() != base.rows.NumRows()) {
      std::fprintf(stderr, "E2: answer mismatch on %s\n", s.label);
      std::abort();
    }

    std::string rule = "-";
    for (const auto& r : with.applied_rules) {
      if (r.find("join-hole-prune") != std::string::npos) rule = "prune";
      if (r.find("join-hole-trim") != std::string::npos) rule = "trim";
    }
    table.PrintRow({s.label, FmtU(with.rows.NumRows()),
                    FmtU(base.exec_stats.pages_read),
                    FmtU(with.exec_stats.pages_read),
                    FmtU(base.exec_stats.rows_emitted),
                    FmtU(with.exec_stats.rows_emitted), rule});
  }
  table.PrintRule();
  std::puts(
      "shape check: in-hole queries answer from metadata alone (no scan); "
      "straddling queries trim the range, shrinking the rows feeding the "
      "join; disjoint queries are untouched (no degradation). Mid-range "
      "holes (the 'spans hole' row) would need range splitting, which [8] "
      "sketches and we note as future work.");
}

// --json: machine-readable report: latency of the two shapes this
// experiment exercises — a plain scan+filter over orders, and the
// orders ⋈ customer hash join the holes trim.
void EmitJson() {
  auto db = MakeWorkloadDb();
  const std::string kScanFilter =
      "SELECT o_orderkey, o_totalprice FROM orders "
      "WHERE o_custkey - 200 >= 0 AND o_totalprice * 2 < 16000 "
      "AND o_status = 'F'";
  const int kIterations = 40;
  const double scan_sec = SecondsPerQuery(db.get(), kScanFilter, kIterations);
  const std::string kJoin =
      "SELECT o_orderkey FROM orders JOIN customer ON o_custkey = c_custkey "
      "WHERE o_totalprice < 5000 AND c_acctbal < 2000";
  const double join_sec = SecondsPerQuery(db.get(), kJoin, kIterations);

  JsonWriter j;
  j.Add("bench", "E2");
  j.Add("scan_filter_query", kScanFilter);
  j.Add("batch_engine_sec_per_query", scan_sec);
  j.Add("join_query", kJoin);
  j.Add("join_batch_engine_sec_per_query", join_sec);
  j.Add("ab_iterations", kIterations);
  j.WriteFile("BENCH_E2.json");
}

// --threads 1,4: morsel-parallel sweep of the orders ⋈ customer hash join
// (partitioned parallel build + probe). Emits BENCH_E2_PAR.json.
void EmitParallelJson(const std::vector<std::size_t>& thread_counts) {
  auto db = MakeWorkloadDb();
  const std::string kJoin =
      "SELECT o_orderkey FROM orders JOIN customer ON o_custkey = c_custkey "
      "WHERE o_totalprice < 5000 AND c_acctbal < 2000";
  auto samples = MeasureParallelSweep(db.get(), kJoin, thread_counts);
  WriteParallelJson("E2", kJoin, samples);
}

void BM_E2_InHoleWithSc(::benchmark::State& state) {
  static auto db = [] {
    auto d = MakeWorkloadDb();
    if (!RegisterOrdersHoleSc(d.get()).ok()) std::abort();
    return d;
  }();
  const std::string query = HoleQuery(8500, 9500, 500, 1500);
  for (auto _ : state) {
    auto r = MustExecute(db.get(), query);
    ::benchmark::DoNotOptimize(r.rows.NumRows());
  }
}
BENCHMARK(BM_E2_InHoleWithSc);

void BM_E2_InHoleBaseline(::benchmark::State& state) {
  static auto db = MakeWorkloadDb();
  const std::string query = HoleQuery(8500, 9500, 500, 1500);
  for (auto _ : state) {
    auto r = MustExecute(db.get(), query);
    ::benchmark::DoNotOptimize(r.rows.NumRows());
  }
}
BENCHMARK(BM_E2_InHoleBaseline);

}  // namespace
}  // namespace softdb::bench

int main(int argc, char** argv) {
  const bool emit_json = softdb::bench::StripJsonFlag(&argc, argv);
  std::vector<std::size_t> thread_counts;
  const bool sweep_threads =
      softdb::bench::StripThreadsFlag(&argc, argv, &thread_counts);
  softdb::bench::PrintExperimentTable();
  if (emit_json) softdb::bench::EmitJson();
  if (sweep_threads) softdb::bench::EmitParallelJson(thread_counts);
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
