// softdb_serve: multi-session load drill for one served engine.
//
// Usage: softdb_serve [--sessions N] [--rounds N] [--workers N]
//                     [--queue-depth N] [--high-water N]
//                     [--deadline-ms N] [--wal-dir DIR] [--json]
//                     <catalog.sdl> [workload.sql ...]
//
// Loads the catalog script into a fresh engine (optionally WAL-backed),
// then opens N concurrent sessions that sweep the workload statements
// round-robin for the requested number of rounds, exercising the full
// serving path: admission control, shedding, per-session retry/backoff,
// and a graceful drain (WAL checkpoint included) at the end. The report
// is the exported ServerStats plus per-session rollups — the same
// counters the overload drill in tests/server_test.cc asserts on.
//
// Exit codes: 0 = drill completed and drained, 1 = statements failed with
// non-retryable/untyped errors, 2 = usage or input error.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "analysis/sc_lint.h"
#include "engine/softdb.h"
#include "server/session.h"

namespace {

constexpr int kExitClean = 0;
constexpr int kExitFailures = 1;
constexpr int kExitUsage = 2;

void PrintUsage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: softdb_serve [--sessions N] [--rounds N] [--workers N]\n"
      "                    [--queue-depth N] [--high-water N]\n"
      "                    [--deadline-ms N] [--wal-dir DIR] [--json]\n"
      "                    <catalog.sdl> [workload.sql ...]\n"
      "\n"
      "Serves the workload to N concurrent sessions through the\n"
      "admission-controlled dispatcher, then drains gracefully (WAL\n"
      "checkpoint included when --wal-dir is set) and reports ServerStats.\n"
      "Statements rejected under overload retry inside their session; a\n"
      "run is clean when every failure (if any) was typed retryable.\n"
      "\n"
      "--workers N sets the dispatcher's execution slots: how many\n"
      "statements run at once, each on its own session's thread; the\n"
      "rest queue. Default 2.\n"
      "\n"
      "exit codes: 0 clean, 1 non-retryable failures, 2 usage/input error\n");
}

bool ParseCount(const char* text, std::size_t* out) {
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == nullptr || *end != '\0' || v < 0) return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

void EmitJson(const softdb::ServerStats& stats, std::size_t sessions,
              std::size_t rounds, std::uint64_t non_retryable,
              double wall_sec) {
  std::printf("{\n");
  std::printf("  \"sessions\": %zu,\n", sessions);
  std::printf("  \"rounds\": %zu,\n", rounds);
  std::printf("  \"wall_sec\": %.6f,\n", wall_sec);
  std::printf("  \"non_retryable_failures\": %llu,\n",
              static_cast<unsigned long long>(non_retryable));
  auto field = [](const char* key, std::uint64_t v, bool last = false) {
    std::printf("  \"%s\": %llu%s\n", key,
                static_cast<unsigned long long>(v), last ? "" : ",");
  };
  field("submitted", stats.submitted.load());
  field("admitted", stats.admitted.load());
  field("executed", stats.executed.load());
  field("succeeded", stats.succeeded.load());
  field("failed", stats.failed.load());
  field("rejected_queue_full", stats.rejected_queue_full.load());
  field("rejected_expired_deadline", stats.rejected_expired_deadline.load());
  field("rejected_draining", stats.rejected_draining.load());
  field("shed", stats.shed.load());
  field("expired_in_queue", stats.expired_in_queue.load());
  field("deadline_tightened", stats.deadline_tightened.load());
  field("retries", stats.retries.load());
  field("backoff_ms_total", stats.backoff_ms_total.load());
  field("queue_depth_high_water", stats.queue_depth_high_water.load());
  field("rows_output", stats.rows_output.load());
  field("wal_records", stats.wal_records.load());
  field("drains", stats.drains.load(), /*last=*/true);
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t sessions = 4;
  std::size_t rounds = 3;
  std::size_t deadline_ms = 0;
  bool json = false;
  softdb::ServerOptions server_options;
  softdb::EngineOptions engine_options;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_count = [&](std::size_t* out) {
      if (i + 1 >= argc || !ParseCount(argv[++i], out)) {
        std::fprintf(stderr, "softdb_serve: %s needs a count\n", arg.c_str());
        return false;
      }
      return true;
    };
    if (arg == "--json") {
      json = true;
    } else if (arg == "--sessions") {
      if (!next_count(&sessions)) return kExitUsage;
    } else if (arg == "--rounds") {
      if (!next_count(&rounds)) return kExitUsage;
    } else if (arg == "--workers") {
      if (!next_count(&server_options.worker_threads)) return kExitUsage;
    } else if (arg == "--queue-depth") {
      if (!next_count(&server_options.max_queue_depth)) return kExitUsage;
      // Shedding engages in the top quarter unless --high-water overrides.
      server_options.high_water_depth = server_options.max_queue_depth -
                                        server_options.max_queue_depth / 4;
    } else if (arg == "--high-water") {
      if (!next_count(&server_options.high_water_depth)) return kExitUsage;
    } else if (arg == "--deadline-ms") {
      if (!next_count(&deadline_ms)) return kExitUsage;
    } else if (arg == "--wal-dir") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "softdb_serve: --wal-dir needs a path\n");
        return kExitUsage;
      }
      engine_options.wal_dir = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return kExitClean;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "softdb_serve: unknown flag %s\n", arg.c_str());
      PrintUsage(stderr);
      return kExitUsage;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    PrintUsage(stderr);
    return kExitUsage;
  }
  if (sessions == 0 || rounds == 0) {
    std::fprintf(stderr, "softdb_serve: --sessions and --rounds must be > 0\n");
    return kExitUsage;
  }

  std::string catalog_script;
  if (!softdb::ReadFileToString(paths[0], &catalog_script)) {
    std::fprintf(stderr, "softdb_serve: cannot read %s\n", paths[0].c_str());
    return kExitUsage;
  }
  softdb::SoftDb db(engine_options);
  softdb::Status loaded = softdb::LoadCatalogScript(&db, catalog_script);
  if (!loaded.ok()) {
    std::fprintf(stderr, "softdb_serve: catalog load failed: %s\n",
                 loaded.ToString().c_str());
    return kExitUsage;
  }

  // Workload statements: explicit files, or a default probe sweep over the
  // catalog's tables when none were given.
  std::vector<std::string> statements;
  if (paths.size() > 1) {
    auto files = softdb::LoadWorkloadFiles(
        std::vector<std::string>(paths.begin() + 1, paths.end()));
    if (!files.ok()) {
      std::fprintf(stderr, "softdb_serve: %s\n",
                   files.status().ToString().c_str());
      return kExitUsage;
    }
    statements = *std::move(files);
  } else {
    for (const std::string& table : db.catalog().TableNames()) {
      statements.push_back("SELECT * FROM " + table);
    }
  }
  if (statements.empty()) {
    std::fprintf(stderr, "softdb_serve: nothing to serve\n");
    return kExitUsage;
  }

  softdb::SessionManager server(&db, server_options);
  std::atomic<std::uint64_t> non_retryable{0};
  const auto wall0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < sessions; ++c) {
    clients.emplace_back([&, c] {
      auto session = server.OpenSession("serve-" + std::to_string(c));
      if (!session.ok()) {
        non_retryable.fetch_add(1);
        return;
      }
      for (std::size_t round = 0; round < rounds; ++round) {
        for (std::size_t s = 0; s < statements.size(); ++s) {
          const std::string& sql =
              statements[(s + c) % statements.size()];
          softdb::QueryContext ctx;
          if (deadline_ms > 0) {
            ctx.SetDeadlineAfter(std::chrono::milliseconds(
                static_cast<std::int64_t>(deadline_ms)));
          }
          softdb::Result<softdb::QueryResult> r =
              (*session)->Execute(sql, deadline_ms > 0 ? &ctx : nullptr);
          // Retryable failures already ran the session's backoff arc;
          // anything still failing non-retryably is a real problem
          // (unless the caller armed deadlines, which make
          // kDeadlineExceeded an expected outcome).
          if (!r.ok() && !softdb::IsRetryableStatus(r.status()) &&
              !(deadline_ms > 0 && r.status().code() ==
                                       softdb::StatusCode::kDeadlineExceeded)) {
            non_retryable.fetch_add(1);
            std::fprintf(stderr, "softdb_serve: %s\n  %s\n",
                         r.status().ToString().c_str(), sql.c_str());
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double wall_sec = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall0)
                              .count();

  softdb::Status drained = server.Drain();
  if (!drained.ok()) {
    std::fprintf(stderr, "softdb_serve: drain failed: %s\n",
                 drained.ToString().c_str());
    return kExitFailures;
  }

  const softdb::ServerStats& stats = server.stats();
  if (json) {
    EmitJson(stats, sessions, rounds, non_retryable.load(), wall_sec);
  } else {
    std::printf(
        "served %llu statements from %zu sessions in %.3fs "
        "(%llu succeeded, %llu failed, %llu retries, %llu shed, "
        "%llu queue-full rejections, queue high-water %llu)\n",
        static_cast<unsigned long long>(stats.submitted.load()), sessions,
        wall_sec, static_cast<unsigned long long>(stats.succeeded.load()),
        static_cast<unsigned long long>(stats.failed.load()),
        static_cast<unsigned long long>(stats.retries.load()),
        static_cast<unsigned long long>(stats.shed.load()),
        static_cast<unsigned long long>(stats.rejected_queue_full.load()),
        static_cast<unsigned long long>(
            stats.queue_depth_high_water.load()));
  }
  return non_retryable.load() == 0 ? kExitClean : kExitFailures;
}
