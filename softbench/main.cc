// softbench: SoftDB's end-to-end and per-layer benchmark.
//
//   softbench --workload serve_point|sc_analytic|ingest_wal --seed N
//             --seconds S --trace 0|1 [--workdir DIR]
//
// Sets the engine up several times (setup_s is the median), then drives
// the workload's closed-loop sessions through SessionManager for the timed
// phase. With --trace 1 the time is split three ways: the served phase,
// the same stream through SoftDb::Execute directly (engine.execute_us,
// server.handoff_us), and a traced replay through the layers' public
// functions (per-layer self times; see replay.h). Output checks run
// outside every timed window. The last stdout line is one JSON object:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// README.md documents workloads, metrics and the layer map.

#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/str_util.h"
#include "exec/kernels.h"
#include "replay.h"
#include "server/session.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace softbench {
namespace {

using softdb::ExecStats;
using softdb::QueryResult;
using softdb::Result;
using softdb::SoftDb;
using softdb::StrFormat;

constexpr int kSetupRepeats = 3;
constexpr std::size_t kPointSampleEvery = 64;  // serve_point row checks.
constexpr std::size_t kAnalyticSamples = 63;   // sc_analytic reference.

const std::vector<std::string> kEndToEnd = {
    "setup_s", "stmt_per_s", "read_p50_us", "read_p99_us", "peak_rss_mb"};

const std::vector<std::string> kPerLayer = {
    "server.handoff_us",
    "sql.parse_us",
    "sql.bind_us",
    "optimizer.cache_lookup_us",
    "optimizer.cache_hit_ratio",
    "optimizer.cache_entries",
    "optimizer.rewrite_us",
    "optimizer.rewrite_backup_us",
    "optimizer.physical_plan_us",
    "optimizer.estimate_us",
    "optimizer.q_error",
    "optimizer.q_error_max",
    "analysis.verify_us",
    "analysis.certify_us",
    "analysis.certificates_per_stmt",
    "analysis.impact_us",
    "exec.run_us",
    "exec.rows_scanned_per_row_out",
    "exec.pages_per_stmt",
    "exec.blocks_skipped_ratio",
    "exec.degraded_retries",
    "constraints.ic_check_us",
    "constraints.sc_maintenance_us",
    "constraints.row_checks_per_insert",
    "constraints.scoped_skips_per_insert",
    "constraints.arm_s",
    "mv.exception_ast_us",
    "storage.append_us",
    "storage.wal_append_us",
    "storage.wal_append_p99_us",
    "storage.fsyncs_per_1k_inserts",
    "storage.checkpoint_s",
    "engine.execute_us",
    "engine.unattributed_us",
    "trace.overhead_pct",
    "write_p50_us",
    "write_p99_us",
    "recover_s",
    "wal_bytes_per_insert",
    "failed_ratio",
};

struct Args {
  Workload workload = Workload::kServePoint;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string workdir = ".bench_build/softbench-work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      const std::optional<Workload> w = ParseWorkload(value);
      if (!w) return false;
      args->workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     args->seconds > 0.0 && args->seconds <= 120.0;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
      have_trace = true;
    } else if (key == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

double Since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// What one client saw during one phase.
struct ClientLog {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;  // Replay rows != SoftDb::Execute rows.
  std::uint64_t inserts = 0;
  std::vector<double> read_us;
  std::vector<double> write_us;
  ExecStats stats;  // Summed over successful statements.
  std::vector<std::pair<Stmt, softdb::RowSet>> samples;
  std::uint64_t acked_purchases = 0;  // Acknowledged INSERTs, by table.
  std::uint64_t acked_orders = 0;
  std::string first_error;

  void Merge(ClientLog&& other) {
    attempted += other.attempted;
    failed += other.failed;
    mismatches += other.mismatches;
    inserts += other.inserts;
    read_us.insert(read_us.end(), other.read_us.begin(), other.read_us.end());
    write_us.insert(write_us.end(), other.write_us.begin(),
                    other.write_us.end());
    stats.Accumulate(other.stats);
    for (auto& s : other.samples) samples.push_back(std::move(s));
    acked_purchases += other.acked_purchases;
    acked_orders += other.acked_orders;
    if (first_error.empty()) first_error = other.first_error;
  }
};

enum class Path { kServed, kDirect, kReplay };

struct Phase {
  double wall_s = 0.0;
  ClientLog log;
  std::vector<std::unique_ptr<Tracer>> tracers;  // kReplay only.
  ReplayCounters counters;                        // kReplay only.
};

/// Runs every client of `workload` closed-loop for `seconds` along `path`.
/// Streams persist across phases, so texts and keys never restart.
Phase RunPhase(Path path, Workload workload, SoftDb* db,
               std::vector<std::unique_ptr<StatementStream>>* streams,
               double seconds) {
  Phase phase;
  std::unique_ptr<softdb::SessionManager> server;
  if (path == Path::kServed) {
    softdb::ServerOptions options;
    // ingest_wal measures recovery of the log itself, so the end of the
    // phase is a hard shutdown: no drain, no checkpoint.
    options.checkpoint_on_drain = false;
    server = std::make_unique<softdb::SessionManager>(db, options);
  }
  const auto epoch = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < streams->size(); ++c) {
    phase.tracers.push_back(std::make_unique<Tracer>(epoch));
  }
  std::vector<ClientLog> logs(streams->size());
  std::vector<ReplayCounters> counters(streams->size());
  const auto deadline =
      epoch + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < streams->size(); ++c) {
    clients.emplace_back([&, c] {
      ClientLog& log = logs[c];
      StatementStream& stream = *(*streams)[c];
      softdb::Session* session = nullptr;
      if (server != nullptr) {
        Result<softdb::Session*> opened =
            server->OpenSession(StrFormat("client-%zu", c));
        if (!opened.ok()) {
          log.failed = log.attempted = 1;
          log.first_error = opened.status().ToString();
          return;
        }
        session = *opened;
      }
      Replay replay(db, phase.tracers[c].get());
      while (std::chrono::steady_clock::now() < deadline) {
        Stmt stmt = stream.Next();
        const auto t0 = std::chrono::steady_clock::now();
        Result<QueryResult> r =
            path == Path::kServed   ? session->Execute(stmt.sql)
            : path == Path::kDirect ? db->Execute(stmt.sql)
                                    : replay.Execute(stmt.sql,
                                                     (c << 40) | log.attempted);
        const double us =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - t0)
                .count();
        ++log.attempted;
        if (!r.ok()) {
          ++log.failed;
          if (log.first_error.empty()) {
            log.first_error = r.status().ToString() + " in: " + stmt.sql;
          }
          continue;
        }
        log.stats.Accumulate(r->exec_stats);
        if (stmt.kind == StmtKind::kInsert) {
          log.write_us.push_back(us);
          ++log.inserts;
          ++(stmt.table == "purchase" ? log.acked_purchases
                                      : log.acked_orders);
          continue;
        }
        log.read_us.push_back(us);
        if (path == Path::kReplay) {
          // Outside the statement's spans: the engine must agree.
          Result<QueryResult> engine = db->Execute(stmt.sql);
          if (!engine.ok() || !SameRows(engine->rows, r->rows)) {
            ++log.mismatches;
          }
        }
        if ((workload == Workload::kServePoint &&
             (log.attempted % kPointSampleEvery == 0 ||
              r->rows.NumRows() != 1)) ||
            (workload == Workload::kScAnalytic &&
             log.samples.size() < kAnalyticSamples &&
             log.attempted % 5 == 1)) {
          log.samples.emplace_back(std::move(stmt), std::move(r->rows));
        }
      }
      counters[c] = replay.counters();
    });
  }
  for (std::thread& t : clients) t.join();
  phase.wall_s = Since(epoch);
  server.reset();  // Hard shutdown (the dispatcher never drained).
  for (std::size_t c = 0; c < logs.size(); ++c) {
    phase.log.Merge(std::move(logs[c]));
    ReplayCounters& rc = counters[c];
    phase.counters.selects += rc.selects;
    phase.counters.inserts += rc.inserts;
    phase.counters.cache_lookups += rc.cache_lookups;
    phase.counters.cache_hits += rc.cache_hits;
    phase.counters.exec.Accumulate(rc.exec);
    phase.counters.q_errors.insert(phase.counters.q_errors.end(),
                                   rc.q_errors.begin(), rc.q_errors.end());
  }
  return phase;
}

std::string Count(const char* label, std::size_t n) {
  return StrFormat("%s=%zu", label, n);
}

void AddLatency(MetricSet* m, const std::string& p50_name,
                const std::string& p99_name, const std::vector<double>& us) {
  const std::vector<Percentile> ps = Percentiles(us, {50.0, 99.0});
  m->Add(p50_name, ps[0].value, "us", Count("samples", ps[0].samples));
  m->Add(p99_name, ps[1].value, "us",
         Count("samples", ps[1].samples) + " " +
             Count("beyond_p99", ps[1].beyond));
}

void AddRatio(MetricSet* m, const std::string& name, const Ratio& r,
              const std::string& unit = "ratio") {
  m->Add(name, r.value(), unit, "base " + r.ToString());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: softbench --workload serve_point|sc_analytic|"
                 "ingest_wal --seed N --seconds S --trace 0|1 "
                 "[--workdir DIR]\n");
    return 2;
  }
  const Workload workload = args.workload;
  const WorkloadShape shape = ShapeOf(workload);
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  const std::string wal_dir =
      args.workdir + "/wal-" + WorkloadName(workload);

  std::printf("softbench workload=%s seed=%llu seconds=%g trace=%d\n",
              WorkloadName(workload),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("host_threads=%u build_type=%s simd=%s\n",
              std::thread::hardware_concurrency(), SOFTBENCH_BUILD_TYPE,
              softdb::kernels::SimdCapability().c_str());
  std::printf(
      "closed loop: sessions=%zu serving_workers=%zu engine_threads=%zu "
      "wal=%s\n",
      shape.sessions, softdb::ServerOptions{}.worker_threads,
      shape.engine_threads,
      shape.wal_sync_every_n > 0
          ? StrFormat("on sync_every_n=%zu", shape.wal_sync_every_n).c_str()
          : "off");

  // ---- Set-up, several times; the last engine is the one measured. ----
  // Freed memory stays in the heap, so repeated set-ups time the engine's
  // work rather than the kernel faulting in ~200 MB of fresh pages, whose
  // cost swings with the host's memory pressure.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::vector<double> setup_s, arm_s, checkpoint_s;
  SetupResult setup;
  for (int k = 0; k < kSetupRepeats; ++k) {
    setup.db.reset();
    std::filesystem::remove_all(wal_dir, ec);
    Result<SetupResult> r = SetUp(workload, args.seed, wal_dir);
    if (!r.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    setup = std::move(*r);
    setup_s.push_back(setup.total_s);
    arm_s.push_back(setup.arm_s);
    checkpoint_s.push_back(setup.checkpoint_s);
  }
  SoftDb* db = setup.db.get();
  for (const std::string& sql : WarmupStatements(workload, args.seed)) {
    if (!db->Execute(sql).ok()) {
      std::fprintf(stderr, "warm-up failed: %s\n", sql.c_str());
      return 1;
    }
  }

  // ---- Timed phases. ----
  std::vector<std::unique_ptr<StatementStream>> streams;
  for (std::size_t c = 0; c < shape.sessions; ++c) {
    streams.push_back(MakeStream(workload, args.seed, c));
  }
  const double served_s = args.trace ? 0.4 * args.seconds : args.seconds;
  const softdb::ScMaintenanceStats& sc_stats = db->scs().stats();
  Phase served = RunPhase(Path::kServed, workload, db, &streams, served_s);
  const double peak_rss_mb = PeakRssMiB();
  Phase direct, replay;
  std::uint64_t row_checks = 0, scoped_skips = 0;
  if (args.trace) {
    direct = RunPhase(Path::kDirect, workload, db, &streams,
                      0.2 * args.seconds);
    const std::uint64_t checks0 = sc_stats.row_checks.load();
    const std::uint64_t skips0 = sc_stats.scoped_skips.load();
    replay = RunPhase(Path::kReplay, workload, db, &streams,
                      0.4 * args.seconds);
    row_checks = sc_stats.row_checks.load() - checks0;
    scoped_skips = sc_stats.scoped_skips.load() - skips0;
  }
  const std::size_t cache_entries = db->plan_cache().size();

  // ---- Output checks (untimed). ----
  std::vector<std::string> problems;
  ClientLog all;
  all.Merge(std::move(served.log));
  const std::uint64_t served_ok = all.attempted - all.failed;
  const std::vector<double> served_read_us = all.read_us;
  const std::vector<double> served_write_us = all.write_us;
  const ExecStats served_stats = all.stats;
  const std::uint64_t served_inserts = all.inserts;
  std::vector<double> served_all_us = all.read_us;
  served_all_us.insert(served_all_us.end(), all.write_us.begin(),
                       all.write_us.end());
  std::vector<double> direct_all_us = direct.log.read_us;
  direct_all_us.insert(direct_all_us.end(), direct.log.write_us.begin(),
                       direct.log.write_us.end());
  all.Merge(std::move(direct.log));
  all.Merge(std::move(replay.log));
  if (all.failed > 0) {
    problems.push_back(StrFormat("%llu statements failed; first: %s",
                                 static_cast<unsigned long long>(all.failed),
                                 all.first_error.c_str()));
  }
  if (all.mismatches > 0) {
    problems.push_back(StrFormat(
        "%llu replayed SELECTs disagree with SoftDb::Execute",
        static_cast<unsigned long long>(all.mismatches)));
  }
  if (all.stats.certificates_failed > 0) {
    problems.push_back(StrFormat(
        "certificates_failed=%llu",
        static_cast<unsigned long long>(all.stats.certificates_failed)));
  }
  if (workload == Workload::kServePoint) {
    for (const auto& [stmt, rows] : all.samples) {
      const softdb::Status st = CheckPointLookup(db, stmt, rows);
      if (!st.ok()) {
        problems.push_back(st.ToString());
        break;
      }
    }
  }
  if (workload == Workload::kScAnalytic) {
    // The same SQL with every SC rewrite off must give the same answers.
    const softdb::EngineOptions saved = db->options();
    DisableScRewrites(&db->options());
    db->plan_cache().Clear();
    for (const auto& [stmt, rows] : all.samples) {
      Result<QueryResult> ref = db->Execute(stmt.sql);
      if (!ref.ok() || !SameRows(ref->rows, rows)) {
        problems.push_back("SC rewrite changed the answer of: " + stmt.sql);
        break;
      }
    }
    db->options() = saved;
    db->plan_cache().Clear();
  }
  std::printf("checks: %zu sampled results, %llu acknowledged inserts\n",
              all.samples.size(),
              static_cast<unsigned long long>(all.acked_purchases +
                                              all.acked_orders));
  double recover_s = 0.0;
  if (workload == Workload::kIngestWal) {
    setup.db.reset();  // Hard shutdown: no drain, no checkpoint.
    const auto t0 = std::chrono::steady_clock::now();
    Result<std::unique_ptr<SoftDb>> recovered = SoftDb::Recover(
        wal_dir, EngineOptionsFor(workload, wal_dir));
    recover_s = Since(t0);
    if (!recovered.ok()) {
      problems.push_back("recovery failed: " +
                         recovered.status().ToString());
    } else {
      const softdb::Status st =
          CheckRecovered(recovered->get(), args.seed, all.acked_purchases,
                         all.acked_orders);
      if (!st.ok()) problems.push_back(st.ToString());
    }
  }
  setup.db.reset();
  std::filesystem::remove_all(wal_dir, ec);

  // ---- Metrics. ----
  MetricSet m;
  m.Add("setup_s", Median(setup_s), "s",
        Count("setups", setup_s.size()));
  m.Add("stmt_per_s",
        served.wall_s > 0 ? static_cast<double>(served_ok) / served.wall_s
                          : 0.0,
        "stmt/s",
        StrFormat("completed=%llu wall_s=%.3f",
                  static_cast<unsigned long long>(served_ok), served.wall_s));
  AddLatency(&m, "read_p50_us", "read_p99_us", served_read_us);
  m.Add("peak_rss_mb", peak_rss_mb, "MiB");
  AddLatency(&m, "write_p50_us", "write_p99_us", served_write_us);
  m.Add("recover_s", recover_s, "s");
  AddRatio(&m, "wal_bytes_per_insert",
           {static_cast<double>(served_stats.wal_bytes),
            static_cast<double>(served_inserts)},
           "B/row");
  AddRatio(&m, "failed_ratio",
           {static_cast<double>(all.failed),
            static_cast<double>(all.attempted)},
           "fraction");

  if (args.trace) {
    std::vector<const Tracer*> tracers;
    for (const auto& t : replay.tracers) tracers.push_back(t.get());
    const TraceSummary summary = Summarize(tracers);
    const auto self = [&](const std::string& metric, SpanName name) {
      const auto it = summary.self_us.find(name);
      const std::vector<double> empty;
      const std::vector<double>& us =
          it == summary.self_us.end() ? empty : it->second;
      m.Add(metric, Median(us), "us", Count("statements", us.size()));
    };
    const double served_p50 = Median(served_all_us);
    const double direct_p50 = Median(direct_all_us);
    m.Add("server.handoff_us", served_p50 - direct_p50, "us",
          StrFormat("served_p50=%.3f direct_p50=%.3f", served_p50,
                    direct_p50));
    self("sql.parse_us", SpanName::kParse);
    self("sql.bind_us", SpanName::kBind);
    self("optimizer.cache_lookup_us", SpanName::kCacheLookup);
    const ReplayCounters& rc = replay.counters;
    AddRatio(&m, "optimizer.cache_hit_ratio",
             {static_cast<double>(rc.cache_hits),
              static_cast<double>(rc.cache_lookups)});
    m.Add("optimizer.cache_entries", static_cast<double>(cache_entries),
          "count");
    self("optimizer.rewrite_us", SpanName::kRewrite);
    self("optimizer.rewrite_backup_us", SpanName::kRewriteBackup);
    self("optimizer.physical_plan_us", SpanName::kPhysicalPlan);
    self("optimizer.estimate_us", SpanName::kEstimate);
    double q_max = 0.0;
    for (double q : rc.q_errors) q_max = std::max(q_max, q);
    m.Add("optimizer.q_error", Median(rc.q_errors), "ratio",
          Count("selects", rc.q_errors.size()));
    m.Add("optimizer.q_error_max", q_max, "ratio",
          Count("selects", rc.q_errors.size()));
    self("analysis.verify_us", SpanName::kVerify);
    self("analysis.certify_us", SpanName::kCertify);
    AddRatio(&m, "analysis.certificates_per_stmt",
             {static_cast<double>(rc.exec.certificates_checked),
              static_cast<double>(rc.selects)},
             "count");
    self("analysis.impact_us", SpanName::kImpact);
    self("exec.run_us", SpanName::kExec);
    AddRatio(&m, "exec.rows_scanned_per_row_out",
             {static_cast<double>(rc.exec.rows_scanned),
              static_cast<double>(rc.exec.rows_output)});
    AddRatio(&m, "exec.pages_per_stmt",
             {static_cast<double>(rc.exec.pages_read),
              static_cast<double>(rc.selects)},
             "count");
    AddRatio(&m, "exec.blocks_skipped_ratio",
             {static_cast<double>(rc.exec.blocks_skipped),
              static_cast<double>(rc.exec.blocks_total)});
    m.Add("exec.degraded_retries",
          static_cast<double>(all.stats.degraded_retries +
                              rc.exec.degraded_retries),
          "count");
    self("constraints.ic_check_us", SpanName::kIcCheck);
    self("constraints.sc_maintenance_us", SpanName::kScMaintenance);
    AddRatio(&m, "constraints.row_checks_per_insert",
             {static_cast<double>(row_checks),
              static_cast<double>(rc.inserts)},
             "count");
    AddRatio(&m, "constraints.scoped_skips_per_insert",
             {static_cast<double>(scoped_skips),
              static_cast<double>(rc.inserts)},
             "count");
    m.Add("constraints.arm_s", Median(arm_s), "s");
    self("mv.exception_ast_us", SpanName::kExceptionAst);
    self("storage.append_us", SpanName::kAppend);
    {
      const auto it = summary.self_us.find(SpanName::kWalAppend);
      const std::vector<double> us =
          it == summary.self_us.end() ? std::vector<double>{} : it->second;
      AddLatency(&m, "storage.wal_append_us", "storage.wal_append_p99_us",
                 us);
    }
    AddRatio(&m, "storage.fsyncs_per_1k_inserts",
             {1000.0 * static_cast<double>(served_stats.wal_fsyncs),
              static_cast<double>(served_inserts)},
             "count");
    m.Add("storage.checkpoint_s", Median(checkpoint_s), "s");
    m.Add("engine.execute_us", direct_p50, "us",
          Count("statements", direct_all_us.size()));
    const double layer_p50 = Median(summary.layer_us);
    m.Add("engine.unattributed_us", direct_p50 - layer_p50, "us",
          StrFormat("replayed_layers_p50=%.3f", layer_p50));
    const double traced_p50 = Median(summary.statement_us);
    m.Add("trace.overhead_pct",
          direct_p50 > 0 ? 100.0 * (traced_p50 - direct_p50) / direct_p50
                         : 0.0,
          "%", StrFormat("traced_p50=%.3f untraced_p50=%.3f", traced_p50,
                         direct_p50));
    const std::string spans_path =
        args.workdir + "/spans-" + WorkloadName(workload) + ".tsv";
    if (WriteSpans(spans_path, tracers)) {
      std::printf("spans: %s (%zu statements)\n", spans_path.c_str(),
                  summary.statements);
    }
  }

  for (const MetricSet::Metric& metric : m.metrics()) {
    std::printf("%-36s %16.6g %-8s %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.note.c_str());
  }
  for (const std::string& p : problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }
  const bool correct = problems.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(all.attempted),
              static_cast<unsigned long long>(all.failed),
              m.ToJson(args.trace ? kPerLayer : kEndToEnd).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace softbench

int main(int argc, char** argv) { return softbench::Main(argc, argv); }
