// bench_server: serving-layer throughput and tail latency (DESIGN.md §15).
//
// Closed-loop clients drive one shared engine through SessionManager at 1,
// 4 and 16 sessions, reporting per-statement throughput and p50/p99. A
// second run overloads a deliberately tiny admission queue (16 sessions,
// 2 execution slots, queue depth 8, retries off) and checks the two properties the
// dispatcher sells: every failure is a typed kResourceExhausted admission
// rejection (never a partial execution), and the p99 of *admitted* work
// stays a bounded multiple of the uncontended p99 — the queue bound, not
// the offered load, caps how much latency an admitted statement can absorb.
// CI gates both via BENCH_SERVER.json (--json). The JSON also records the
// serving handoff: 1-session probes run through a Session and directly
// through SoftDb::Execute, interleaved, and the difference of their p50s.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "server/session.h"

namespace softdb::bench {
namespace {

constexpr int kTableRows = 4000;
constexpr int kStatementsPerClient = 150;

std::unique_ptr<SoftDb> MakeServedDb() {
  auto db = std::make_unique<SoftDb>();
  MustExecute(db.get(), "CREATE TABLE t (id BIGINT NOT NULL, v BIGINT)");
  for (int i = 0; i < kTableRows; ++i) {
    MustExecute(db.get(), "INSERT INTO t VALUES (" + std::to_string(i) +
                              ", " + std::to_string(i % 997) + ")");
  }
  MustExecute(db.get(), "ANALYZE t");
  return db;
}

std::string ProbeSql(int i) {
  const int lo = (i * 37) % (kTableRows - 200);
  return "SELECT id, v FROM t WHERE id BETWEEN " + std::to_string(lo) +
         " AND " + std::to_string(lo + 50);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t idx = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(samples.size())));
  return samples[idx];
}

struct LoadResult {
  std::size_t sessions = 0;
  double wall_sec = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;   // Typed admission rejections.
  std::uint64_t untyped = 0;    // Anything else — must stay zero.
};

/// Closed loop: `sessions` clients each issue kStatementsPerClient probes
/// back-to-back, one outstanding statement per session. Latency samples
/// cover admitted (successful) statements only.
LoadResult RunClosedLoop(SoftDb* db, std::size_t sessions,
                         const ServerOptions& options) {
  SessionManager server(db, options);
  std::mutex mu;
  std::vector<double> latencies_ms;
  LoadResult out;
  out.sessions = sessions;
  std::atomic<std::uint64_t> ok{0}, rejected{0}, untyped{0};

  const auto wall0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < sessions; ++c) {
    clients.emplace_back([&, c] {
      auto session = server.OpenSession("bench-" + std::to_string(c));
      if (!session.ok()) {
        std::fprintf(stderr, "OpenSession failed: %s\n",
                     session.status().ToString().c_str());
        std::abort();
      }
      std::vector<double> local;
      local.reserve(kStatementsPerClient);
      for (int i = 0; i < kStatementsPerClient; ++i) {
        const std::string sql = ProbeSql(static_cast<int>(c) * 1000 + i);
        const auto t0 = std::chrono::steady_clock::now();
        auto r = (*session)->Execute(sql);
        const auto t1 = std::chrono::steady_clock::now();
        if (r.ok()) {
          ok.fetch_add(1);
          local.push_back(
              std::chrono::duration<double, std::milli>(t1 - t0).count());
        } else if (r.status().code() == StatusCode::kResourceExhausted) {
          rejected.fetch_add(1);
        } else {
          untyped.fetch_add(1);
          std::fprintf(stderr, "untyped serving failure: %s\n",
                       r.status().ToString().c_str());
        }
      }
      std::lock_guard<std::mutex> lk(mu);
      latencies_ms.insert(latencies_ms.end(), local.begin(), local.end());
    });
  }
  for (auto& t : clients) t.join();
  out.wall_sec = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - wall0)
                     .count();
  if (!server.Drain().ok()) {
    std::fprintf(stderr, "Drain failed\n");
    std::abort();
  }
  out.ok = ok.load();
  out.rejected = rejected.load();
  out.untyped = untyped.load();
  out.qps = out.wall_sec > 0 ? static_cast<double>(out.ok) / out.wall_sec : 0;
  out.p50_ms = Percentile(latencies_ms, 0.50);
  out.p99_ms = Percentile(latencies_ms, 0.99);
  return out;
}

struct HandoffResult {
  double served_p50_ms = 0;
  double direct_p50_ms = 0;
};

/// The serving layer's own cost: one client thread runs the 1-session
/// probes both through a Session and straight through SoftDb::Execute,
/// interleaved statement by statement (alternating which goes first) on
/// warm plan-cache entries. Pairing the two sides this way cancels the
/// warm-up and host drift that separate closed loops of 150 statements
/// are dominated by.
HandoffResult MeasureHandoff(SoftDb* db) {
  constexpr int kRounds = 20;
  SessionManager server(db, ServerOptions{});
  auto session = server.OpenSession("handoff");
  if (!session.ok()) std::abort();
  std::vector<double> served_ms, direct_ms;
  auto timed = [](std::vector<double>* out, auto&& run) {
    const auto t0 = std::chrono::steady_clock::now();
    Result<QueryResult> r = run();
    const auto t1 = std::chrono::steady_clock::now();
    if (!r.ok()) {
      std::fprintf(stderr, "handoff probe failed: %s\n",
                   r.status().ToString().c_str());
      std::abort();
    }
    if (out != nullptr) {
      out->push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
  };
  for (int round = 0; round <= kRounds; ++round) {
    // Round 0 only warms the plan cache.
    std::vector<double>* served = round == 0 ? nullptr : &served_ms;
    std::vector<double>* direct = round == 0 ? nullptr : &direct_ms;
    for (int i = 0; i < kStatementsPerClient; ++i) {
      const std::string sql = ProbeSql(i);
      auto via_session = [&] { return (*session)->Execute(sql); };
      auto via_engine = [&] { return db->Execute(sql); };
      if (i % 2 == 0) {
        timed(served, via_session);
        timed(direct, via_engine);
      } else {
        timed(direct, via_engine);
        timed(served, via_session);
      }
    }
  }
  if (!server.Drain().ok()) std::abort();
  return {Percentile(served_ms, 0.50), Percentile(direct_ms, 0.50)};
}

void PrintAndEmit(bool emit_json) {
  auto db = MakeServedDb();

  Banner("Serving throughput (closed loop, " +
         std::to_string(kStatementsPerClient) + " statements/session)");
  ServerOptions ample;
  ample.worker_threads = 4;
  ample.max_queue_depth = 256;
  ample.high_water_depth = 240;
  std::vector<LoadResult> sweep;
  for (const std::size_t sessions : {1u, 4u, 16u}) {
    sweep.push_back(RunClosedLoop(db.get(), sessions, ample));
  }

  TablePrinter table(
      {"sessions", "qps", "p50 ms", "p99 ms", "ok", "rejected"});
  for (const LoadResult& r : sweep) {
    table.PrintRow({std::to_string(r.sessions), Fmt("%.0f", r.qps),
                    Fmt("%.3f", r.p50_ms), Fmt("%.3f", r.p99_ms),
                    FmtU(r.ok), FmtU(r.rejected)});
  }
  table.PrintRule();
  for (const LoadResult& r : sweep) {
    // With an ample queue nothing is shed and nothing fails untyped.
    if (r.rejected != 0 || r.untyped != 0 ||
        r.ok != r.sessions * kStatementsPerClient) {
      std::fprintf(stderr, "ample-queue run lost statements\n");
      std::abort();
    }
  }
  const double uncontended_p99 = sweep.front().p99_ms;
  const HandoffResult handoff = MeasureHandoff(db.get());
  const double handoff_us =
      (handoff.served_p50_ms - handoff.direct_p50_ms) * 1000.0;
  std::printf("1 session, warm: served p50 %.4f ms, direct p50 %.4f ms, "
              "handoff %.2f us\n",
              handoff.served_p50_ms, handoff.direct_p50_ms, handoff_us);

  Banner("Overload: 16 sessions, 2 slots, queue depth 8, retries off");
  ServerOptions tight;
  tight.worker_threads = 2;
  tight.max_queue_depth = 8;
  tight.high_water_depth = 8;  // Reject, don't shed: equal priorities.
  tight.retry.max_attempts = 1;
  const LoadResult overload = RunClosedLoop(db.get(), 16, tight);
  TablePrinter otable(
      {"sessions", "qps", "p50 ms", "p99 ms", "ok", "rejected", "untyped"});
  otable.PrintRow({std::to_string(overload.sessions),
                   Fmt("%.0f", overload.qps), Fmt("%.3f", overload.p50_ms),
                   Fmt("%.3f", overload.p99_ms), FmtU(overload.ok),
                   FmtU(overload.rejected), FmtU(overload.untyped)});
  otable.PrintRule();

  // The dispatcher's overload contract, asserted loudly: failures are
  // typed rejections only, and admitted-tail latency is bounded by the
  // queue (depth/slots service times of wait), not by offered load.
  // 40x leaves generous headroom over the ~5x the queue math predicts.
  if (overload.untyped != 0) {
    std::fprintf(stderr, "overload produced untyped failures\n");
    std::abort();
  }
  if (uncontended_p99 > 0 && overload.p99_ms > 40.0 * uncontended_p99 &&
      overload.p99_ms > 50.0) {
    std::fprintf(stderr,
                 "admitted p99 %.3fms exceeds 40x uncontended %.3fms\n",
                 overload.p99_ms, uncontended_p99);
    std::abort();
  }

  if (!emit_json) return;
  JsonWriter j;
  j.Add("bench", "SERVER");
  j.Add("host_threads",
        static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  j.Add("table_rows", kTableRows);
  j.Add("statements_per_session", kStatementsPerClient);
  for (const LoadResult& r : sweep) {
    const std::string tag = "s" + std::to_string(r.sessions);
    j.Add(tag + "_qps", r.qps);
    j.Add(tag + "_p50_ms", r.p50_ms);
    j.Add(tag + "_p99_ms", r.p99_ms);
    j.Add(tag + "_ok", r.ok);
    j.Add(tag + "_rejected", r.rejected);
  }
  j.Add("s1_served_warm_p50_ms", handoff.served_p50_ms);
  j.Add("s1_direct_p50_ms", handoff.direct_p50_ms);
  j.Add("s1_handoff_us", handoff_us);
  j.Add("overload_sessions", static_cast<std::uint64_t>(overload.sessions));
  j.Add("overload_qps", overload.qps);
  j.Add("overload_p50_ms", overload.p50_ms);
  j.Add("overload_p99_ms", overload.p99_ms);
  j.Add("overload_ok", overload.ok);
  j.Add("overload_rejected_typed", overload.rejected);
  j.Add("overload_untyped", overload.untyped);
  j.Add("overload_p99_over_uncontended",
        uncontended_p99 > 0 ? overload.p99_ms / uncontended_p99 : 0.0);
  j.WriteFile("BENCH_SERVER.json");
}

void BM_ServedPointSelect(::benchmark::State& state) {
  static SoftDb* db = MakeServedDb().release();
  static SessionManager* server = new SessionManager(db);
  static Session* session = [] {
    auto s = server->OpenSession("bm");
    if (!s.ok()) std::abort();
    return *s;
  }();
  std::int64_t i = 0;
  for (auto _ : state) {
    auto r = session->Execute("SELECT v FROM t WHERE id = " +
                              std::to_string(i++ % kTableRows));
    if (!r.ok()) std::abort();
    ::benchmark::DoNotOptimize(r->rows.NumRows());
  }
}
BENCHMARK(BM_ServedPointSelect);

void BM_DirectPointSelect(::benchmark::State& state) {
  static SoftDb* db = MakeServedDb().release();
  std::int64_t i = 0;
  for (auto _ : state) {
    auto r = db->Execute("SELECT v FROM t WHERE id = " +
                         std::to_string(i++ % kTableRows));
    if (!r.ok()) std::abort();
    ::benchmark::DoNotOptimize(r->rows.NumRows());
  }
}
BENCHMARK(BM_DirectPointSelect);

}  // namespace
}  // namespace softdb::bench

int main(int argc, char** argv) {
  const bool emit_json = softdb::bench::StripJsonFlag(&argc, argv);
  softdb::bench::PrintAndEmit(emit_json);
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
