// E1 — Predicate introduction via linear-correlation / offset ASCs (§2
// [10], §3.3). An absolute SC lets the rewriter add a range predicate on an
// indexed column to a query that only constrains the un-indexed one; the
// win scales with the envelope's selectivity.
//
// Paper claim: "This allows for the potential use of the index on A"; the
// rewrite must be semantically equivalent (100% envelope only).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bench/bench_util.h"
#include "common/date.h"
#include "constraints/column_offset_sc.h"
#include "exec/kernels.h"

namespace softdb::bench {
namespace {

std::unique_ptr<SoftDb> MakeDbWithWindow(int window_days) {
  auto options = StandardScale();
  options.ship_conf = 1.0;  // Absolute: every row inside the window.
  options.ship_window = window_days;
  auto db = MakeWorkloadDb(options);
  auto sc = std::make_unique<ColumnOffsetSc>(
      "abs_ship", "purchase", WorkloadColumns::kPurchaseOrderDate,
      WorkloadColumns::kPurchaseShipDate, 0, window_days);
  Status st = db->scs().Add(std::move(sc), db->catalog());
  if (!st.ok()) std::abort();
  return db;
}

const char* kQuery =
    "SELECT * FROM purchase WHERE ship_date = DATE '1999-12-15'";

void PrintExperimentTable() {
  Banner(
      "E1: predicate introduction -- query on un-indexed ship_date; "
      "index on order_date; ASC ship_date-order_date in [0, W]");
  TablePrinter table({"window W (d)", "rows out", "pages base",
                      "pages rewritten", "page ratio", "rule fired"});
  for (int window : {7, 21, 60, 180, 420}) {
    auto db = MakeDbWithWindow(window);

    db->options().enable_predicate_introduction = false;
    auto base = MustExecute(db.get(), kQuery);
    db->options().enable_predicate_introduction = true;
    db->plan_cache().Clear();
    auto rewritten = MustExecute(db.get(), kQuery);

    if (base.rows.NumRows() != rewritten.rows.NumRows()) {
      std::fprintf(stderr, "E1: answer mismatch!\n");
      std::abort();
    }
    bool fired = false;
    for (const auto& rule : rewritten.applied_rules) {
      fired = fired || rule.find("predicate-introduction") != std::string::npos;
    }
    table.PrintRow(
        {FmtU(window), FmtU(rewritten.rows.NumRows()),
         FmtU(base.exec_stats.pages_read),
         FmtU(rewritten.exec_stats.pages_read),
         Fmt("%.1fx", static_cast<double>(base.exec_stats.pages_read) /
                          std::max<std::uint64_t>(
                              1, rewritten.exec_stats.pages_read)),
         fired ? "yes" : "no"});
  }
  table.PrintRule();
  std::puts(
      "shape check: tight windows (selective envelopes) give order-of-"
      "magnitude page savings; a window wider than the data range gives "
      "none (the introduced range stops being selective).");
}

// --json: machine-readable report. Alongside the rewrite page counts, the
// latency of the scan+filter shape this experiment stresses (full purchase
// scan, compute-heavy conjunctive predicate, no index applicable), with the
// comparison kernels on and off.
void EmitJson() {
  auto db = MakeWorkloadDb();
  const std::string kScanFilter =
      "SELECT pu_key, quantity, price FROM purchase "
      "WHERE ship_date - order_date <= 9 AND quantity < 25 "
      "AND price * discount > 40 AND receipt_date - ship_date >= 1";
  const int kIterations = 40;
  const double batch_sec = SecondsPerQuery(db.get(), kScanFilter, kIterations);
  // The same shape with the comparison kernels forced off: isolates how
  // much the branch-free mask path buys (bench_kernels has the full
  // scalar/kernel/zone-map sweep).
  db->options().use_kernels = false;
  const double no_kernel_sec =
      SecondsPerQuery(db.get(), kScanFilter, kIterations);
  db->options().use_kernels = true;

  auto windowed = MakeDbWithWindow(21);
  windowed->options().enable_predicate_introduction = false;
  auto base = MustExecute(windowed.get(), kQuery);
  windowed->options().enable_predicate_introduction = true;
  windowed->plan_cache().Clear();
  auto rewritten = MustExecute(windowed.get(), kQuery);

  // Certify-plans overhead: with certify_plans on, every cached rewrite
  // certificate is re-validated on each execution (epoch fast path, full
  // re-derivation on drift; translation validation, DESIGN.md §13). CI
  // gates the steady-state overhead on this introduction-heavy shape at
  // <= 5%.
  auto time_batch = [&](bool on) {
    windowed->options().certify_plans = on;
    const int iters = 50;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      volatile std::uint64_t sink =
          MustExecute(windowed.get(), kQuery).rows.NumRows();
      (void)sink;
    }
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count() / iters;
  };
  windowed->plan_cache().Clear();
  (void)MustExecute(windowed.get(), kQuery);  // Warm: plan + cache.
  // Paired rounds: each round times both modes back to back, so slow
  // machine drift cancels in the per-round ratio; the median ratio is the
  // reported overhead.
  std::vector<double> off_secs, on_secs, ratios;
  for (int round = 0; round < 16; ++round) {
    const double off = time_batch(false);
    const double on = time_batch(true);
    off_secs.push_back(off);
    on_secs.push_back(on);
    if (off > 0) ratios.push_back(on / off);
  }
  windowed->options().certify_plans = true;
  std::sort(ratios.begin(), ratios.end());
  const double median_ratio =
      ratios.empty() ? 1.0 : ratios[ratios.size() / 2];
  const double certify_off_sec =
      *std::min_element(off_secs.begin(), off_secs.end());
  const double certify_on_sec =
      *std::min_element(on_secs.begin(), on_secs.end());

  JsonWriter j;
  j.Add("bench", "E1");
  j.Add("scan_filter_query", kScanFilter);
  j.Add("batch_engine_sec_per_query", batch_sec);
  j.Add("ab_iterations", kIterations);
  j.Add("simd_capability", kernels::SimdCapability());
  j.Add("batch_no_kernel_sec_per_query", no_kernel_sec);
  j.Add("kernel_speedup_in_batch",
        batch_sec > 0 ? no_kernel_sec / batch_sec : 0.0);
  j.Add("introduction_pages_base", base.exec_stats.pages_read);
  j.Add("introduction_pages_rewritten", rewritten.exec_stats.pages_read);
  j.Add("certify_off_sec_per_query", certify_off_sec);
  j.Add("certify_on_sec_per_query", certify_on_sec);
  j.Add("certify_overhead_pct", (median_ratio - 1.0) * 100.0);
  j.WriteFile("BENCH_E1.json");
}

// --threads 1,4: morsel-parallel sweep of the scan+filter shape (the E1
// workload's compute-heavy full scan) — parallel output must stay
// bit-identical to serial at every thread count. Emits BENCH_E1_PAR.json.
void EmitParallelJson(const std::vector<std::size_t>& thread_counts) {
  auto db = MakeWorkloadDb();
  const std::string kScanFilter =
      "SELECT pu_key, quantity, price FROM purchase "
      "WHERE ship_date - order_date <= 9 AND quantity < 25 "
      "AND price * discount > 40 AND receipt_date - ship_date >= 1";
  auto samples = MeasureParallelSweep(db.get(), kScanFilter, thread_counts);
  WriteParallelJson("E1", kScanFilter, samples);
}

void BM_E1_WithIntroduction(::benchmark::State& state) {
  static auto db = MakeDbWithWindow(21);
  db->options().enable_predicate_introduction = true;
  db->plan_cache().Clear();
  for (auto _ : state) {
    auto r = MustExecute(db.get(), kQuery);
    ::benchmark::DoNotOptimize(r.rows.NumRows());
  }
}
BENCHMARK(BM_E1_WithIntroduction);

void BM_E1_WithoutIntroduction(::benchmark::State& state) {
  static auto db = MakeDbWithWindow(21);
  db->options().enable_predicate_introduction = false;
  db->plan_cache().Clear();
  for (auto _ : state) {
    auto r = MustExecute(db.get(), kQuery);
    ::benchmark::DoNotOptimize(r.rows.NumRows());
  }
}
BENCHMARK(BM_E1_WithoutIntroduction);

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
