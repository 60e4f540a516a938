// SIMD batch kernels + block zone maps on the E1 scan+filter shape.
//
// Two layers of measurement:
//  - google-benchmark microbenches of the raw mask kernels against
//    hand-rolled branchy scalar loops (same semantics), isolating the
//    per-element win of branch-free masks + bitmask compaction;
//  - a macro A/B over the purchase table (physically clustered on pu_key /
//    order_date, like real order tables): the same selective scan+filter
//    executed (1) on the batch engine with kernels disabled — the PR-1
//    vectorized baseline — (2) with kernels, and (3) with kernels plus
//    mined kBlockZoneMap SCs so the planner skips non-matching 1024-row
//    blocks outright. `--json` writes BENCH_E1_SIMD.json with the host's
//    actual SIMD capability recorded next to host_threads.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench/bench_util.h"
#include "exec/kernels.h"

namespace softdb::bench {
namespace {

// The selective scan+filter shape: a clustered-key range that overlaps one
// block in twenty, plus two compute conjuncts that keep the kernels busy
// on whatever survives. All conjuncts are statically error-free, so the
// zone-map gate admits the scan. pu_key is the PK (no secondary index), so
// the scan stays sequential — exactly the shape zone maps accelerate.
const char* kSelective =
    "SELECT pu_key, quantity, price FROM purchase "
    "WHERE pu_key BETWEEN 10000 AND 10999 AND quantity < 25 "
    "AND price > 100.0";

struct ConfigSample {
  double sec_per_query = 0;
  QueryResult warm;
};

ConfigSample TimeConfig(SoftDb* db, const std::string& sql, bool kernels_on,
                        bool zone_maps_on, int iterations = 60) {
  db->options().use_kernels = kernels_on;
  db->options().enable_zone_maps = zone_maps_on;
  db->plan_cache().Clear();
  ConfigSample out;
  out.warm = MustExecute(db, sql);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) {
    volatile std::uint64_t sink = MustExecute(db, sql).rows.NumRows();
    (void)sink;
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.sec_per_query =
      std::chrono::duration<double>(t1 - t0).count() / iterations;
  return out;
}

void PrintExperimentTable() {
  Banner(
      "SIMD kernels + zone maps -- selective scan+filter on purchase "
      "(clustered pu_key range, compute conjuncts); capability: " +
      kernels::SimdCapability());
  auto db = MakeWorkloadDb();

  auto scalar = TimeConfig(db.get(), kSelective, /*kernels=*/false,
                           /*zone_maps=*/false);
  auto kernel = TimeConfig(db.get(), kSelective, /*kernels=*/true,
                           /*zone_maps=*/false);
  Status mined = db->MineZoneMaps("purchase");
  if (!mined.ok()) std::abort();
  auto zoned = TimeConfig(db.get(), kSelective, /*kernels=*/true,
                          /*zone_maps=*/true);

  if (scalar.warm.rows.NumRows() != kernel.warm.rows.NumRows() ||
      scalar.warm.rows.NumRows() != zoned.warm.rows.NumRows()) {
    std::fprintf(stderr, "kernel/zone-map A/B answer mismatch!\n");
    std::abort();
  }

  TablePrinter table({"config", "sec/query", "speedup", "rows scanned",
                      "blocks skipped"});
  auto row = [&](const char* name, const ConfigSample& s) {
    table.PrintRow(
        {name, Fmt("%.6f", s.sec_per_query),
         Fmt("%.2fx", s.sec_per_query > 0
                          ? scalar.sec_per_query / s.sec_per_query
                          : 0.0),
         FmtU(s.warm.exec_stats.rows_scanned),
         FmtU(s.warm.exec_stats.blocks_skipped) + "/" +
             FmtU(s.warm.exec_stats.blocks_total)});
  };
  row("batch scalar", scalar);
  row("batch kernel", kernel);
  row("kernel+zonemap", zoned);
  table.PrintRule();
  std::puts(
      "shape check: kernels shave the per-row filter cost; zone maps "
      "remove 18 of 20 blocks before any row is touched (the key range "
      "straddles one block boundary), so the combined config wins by "
      "block elimination times kernel throughput.");
}

void EmitJson() {
  auto db = MakeWorkloadDb();

  auto scalar = TimeConfig(db.get(), kSelective, false, false);
  auto kernel = TimeConfig(db.get(), kSelective, true, false);
  if (!db->MineZoneMaps("purchase").ok()) std::abort();
  auto zoned = TimeConfig(db.get(), kSelective, true, true);
  if (scalar.warm.rows.NumRows() != zoned.warm.rows.NumRows()) std::abort();

  JsonWriter j;
  j.Add("bench", "E1_SIMD");
  j.Add("query", kSelective);
  j.Add("host_threads",
        static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  j.Add("simd_capability", kernels::SimdCapability());
  j.Add("rows", scalar.warm.rows.NumRows());
  j.Add("batch_scalar_sec_per_query", scalar.sec_per_query);
  j.Add("batch_kernel_sec_per_query", kernel.sec_per_query);
  j.Add("kernel_zonemap_sec_per_query", zoned.sec_per_query);
  j.Add("kernel_speedup_vs_scalar",
        kernel.sec_per_query > 0
            ? scalar.sec_per_query / kernel.sec_per_query
            : 0.0);
  j.Add("kernel_zonemap_speedup_vs_scalar",
        zoned.sec_per_query > 0 ? scalar.sec_per_query / zoned.sec_per_query
                                : 0.0);
  j.Add("blocks_skipped", zoned.warm.exec_stats.blocks_skipped);
  j.Add("blocks_total", zoned.warm.exec_stats.blocks_total);
  j.Add("rows_scanned_scalar", scalar.warm.exec_stats.rows_scanned);
  j.Add("rows_scanned_zonemap", zoned.warm.exec_stats.rows_scanned);
  j.WriteFile("BENCH_E1_SIMD.json");
}

// ------------------------------------------------ kernel microbenches

constexpr std::size_t kN = 1024;

struct MaskFixture {
  std::vector<std::int64_t> i64;
  std::vector<double> f64;
  std::vector<std::uint8_t> nulls;
  std::vector<std::uint8_t> mask;
  std::vector<SelIdx> sel;

  MaskFixture() : i64(kN), f64(kN), nulls(kN, 0), mask(kN), sel(kN) {
    for (std::size_t i = 0; i < kN; ++i) {
      i64[i] = static_cast<std::int64_t>((i * 2654435761u) % 1000);
      f64[i] = static_cast<double>((i * 40503u) % 1000);
      if (i % 31 == 0) nulls[i] = 1;
    }
  }
  void ResetSel() {
    for (std::size_t i = 0; i < kN; ++i) sel[i] = static_cast<SelIdx>(i);
  }
};

void BM_CompareMaskI64_Kernel(::benchmark::State& state) {
  MaskFixture fx;
  for (auto _ : state) {
    fx.ResetSel();
    kernels::CompareMaskI64(fx.i64.data(), fx.nulls.data(), kN, CompareOp::kLt,
                            500, fx.mask.data());
    const std::size_t n =
        kernels::FilterSelByMask(fx.mask.data(), fx.sel.data(), kN);
    ::benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kN);
}
BENCHMARK(BM_CompareMaskI64_Kernel);

// The branchy per-row formulation the kernels replace (value test and
// selection append fused, one branch per element).
void BM_CompareMaskI64_Branchy(::benchmark::State& state) {
  MaskFixture fx;
  for (auto _ : state) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < kN; ++i) {
      if (!fx.nulls[i] && fx.i64[i] < 500) {
        fx.sel[n++] = static_cast<SelIdx>(i);
      }
    }
    ::benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kN);
}
BENCHMARK(BM_CompareMaskI64_Branchy);

void BM_CompareMaskF64_Kernel(::benchmark::State& state) {
  MaskFixture fx;
  for (auto _ : state) {
    fx.ResetSel();
    kernels::CompareMaskF64(fx.f64.data(), fx.nulls.data(), kN, CompareOp::kGt,
                            250.0, fx.mask.data());
    const std::size_t n =
        kernels::FilterSelByMask(fx.mask.data(), fx.sel.data(), kN);
    ::benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kN);
}
BENCHMARK(BM_CompareMaskF64_Kernel);

void BM_CompareMaskF64_Branchy(::benchmark::State& state) {
  MaskFixture fx;
  for (auto _ : state) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < kN; ++i) {
      if (!fx.nulls[i] && fx.f64[i] > 250.0) {
        fx.sel[n++] = static_cast<SelIdx>(i);
      }
    }
    ::benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kN);
}
BENCHMARK(BM_CompareMaskF64_Branchy);

void BM_AndMask(::benchmark::State& state) {
  MaskFixture fx;
  std::vector<std::uint8_t> other(kN, 1);
  kernels::CompareMaskI64(fx.i64.data(), fx.nulls.data(), kN, CompareOp::kLt,
                          500, fx.mask.data());
  for (auto _ : state) {
    kernels::AndMask(other.data(), kN, fx.mask.data());
    ::benchmark::DoNotOptimize(fx.mask.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kN);
}
BENCHMARK(BM_AndMask);

}  // namespace
}  // namespace softdb::bench

int main(int argc, char** argv) {
  const bool emit_json = softdb::bench::StripJsonFlag(&argc, argv);
  softdb::bench::PrintExperimentTable();
  if (emit_json) softdb::bench::EmitJson();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
