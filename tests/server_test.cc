// Serving-layer battery (DESIGN.md §15): SessionManager + Dispatcher
// admission control (bounded queue, typed rejections with structured
// details), load shedding and overload backpressure, deadline-aware
// queueing (doomed work never executes), the session retry/backoff arc
// with deterministic jitter, graceful drain with in-flight cancellation
// and WAL checkpoint, and crash-during-serve recovery against an
// uncrashed control.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/query_context.h"
#include "engine/softdb.h"
#include "server/session.h"

namespace softdb {
namespace {

namespace fs = std::filesystem;

Failpoints& FP() { return Failpoints::Instance(); }

Failpoints::Policy Always() {
  Failpoints::Policy p;
  p.trigger = Failpoints::Trigger::kAlways;
  return p;
}

Failpoints::Policy EveryNth(std::uint64_t n) {
  Failpoints::Policy p;
  p.trigger = Failpoints::Trigger::kEveryNth;
  p.n = n;
  return p;
}

struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/softdb_server_XXXXXX";
    const char* d = ::mkdtemp(tmpl);
    EXPECT_NE(d, nullptr);
    path = d == nullptr ? "/tmp/softdb_server_fallback" : d;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

/// Rendered + sorted rows for order-insensitive state comparison.
std::vector<std::string> SortedRows(SoftDb* db, const std::string& sql) {
  Result<QueryResult> r = db->Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  std::vector<std::string> out;
  if (!r.ok()) return out;
  for (const std::vector<Value>& row : r->rows.rows) {
    std::string s;
    for (const Value& v : row) {
      s += v.ToString();
      s += "|";
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Spins until `pred` holds (bounded); serving-layer state transitions are
/// asynchronous but fast.
template <typename Pred>
bool WaitFor(Pred pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FP().DisableAll();
    ASSERT_TRUE(
        db_.Execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                              ", " + std::to_string(i * 2) + ")")
                      .ok());
    }
  }
  void TearDown() override { FP().DisableAll(); }

  SoftDb db_;
};

// ------------------------------------------------------------ basic serving

TEST_F(ServerTest, SessionExecuteMatchesDirectExecution) {
  const std::string sql = "SELECT id, v FROM t WHERE id < 10";
  const std::vector<std::string> direct = SortedRows(&db_, sql);

  SessionManager server(&db_);
  auto session = server.OpenSession("client-a");
  ASSERT_TRUE(session.ok());
  Result<QueryResult> r = (*session)->Execute(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<std::string> served;
  for (const std::vector<Value>& row : r->rows.rows) {
    std::string s;
    for (const Value& v : row) s += v.ToString() + "|";
    served.push_back(s);
  }
  std::sort(served.begin(), served.end());
  EXPECT_EQ(served, direct);
  EXPECT_EQ(server.stats().executed.load(), 1u);
  EXPECT_EQ(server.stats().succeeded.load(), 1u);
  EXPECT_EQ((*session)->stats().succeeded.load(), 1u);
}

TEST_F(ServerTest, SessionsGetDistinctIdsAndDefaultNames) {
  SessionManager server(&db_);
  auto a = server.OpenSession();
  auto b = server.OpenSession("named", /*priority=*/3);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE((*a)->id(), (*b)->id());
  EXPECT_EQ((*a)->name(), "session-" + std::to_string((*a)->id()));
  EXPECT_EQ((*b)->name(), "named");
  EXPECT_EQ((*b)->priority(), 3);
  EXPECT_EQ(server.session_count(), 2u);
  EXPECT_TRUE(server.CloseSession((*a)->id()).ok());
  EXPECT_EQ(server.session_count(), 1u);
  EXPECT_EQ(server.CloseSession(12345).code(), StatusCode::kNotFound);
}

TEST_F(ServerTest, ConcurrentSessionsAllComplete) {
  ServerOptions options;
  options.worker_threads = 4;
  SessionManager server(&db_, options);
  constexpr int kSessions = 8;
  constexpr int kStatements = 20;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int s = 0; s < kSessions; ++s) {
    clients.emplace_back([&server, &failures, s] {
      auto session = server.OpenSession("c" + std::to_string(s));
      if (!session.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kStatements; ++i) {
        auto r = (*session)->Execute("SELECT id FROM t WHERE id = " +
                                     std::to_string((s * 7 + i) % 50));
        if (!r.ok() || r->rows.NumRows() != 1) ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.stats().succeeded.load(),
            static_cast<std::uint64_t>(kSessions * kStatements));
  EXPECT_EQ(server.stats().rejected_queue_full.load(), 0u);
}

// ------------------------------------------------------- admission control

TEST_F(ServerTest, QueueFullRejectionIsTypedWithDetails) {
  ServerOptions options;
  options.worker_threads = 1;
  options.max_queue_depth = 3;
  options.high_water_depth = 3;
  options.retry.max_attempts = 1;  // Surface the rejection, don't heal it.
  SessionManager server(&db_, options);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());

  server.dispatcher().PauseWorkers();
  std::vector<std::future<Result<QueryResult>>> pending;
  for (int i = 0; i < 3; ++i) {
    pending.push_back(std::async(std::launch::async, [&session] {
      return (*session)->Execute("SELECT * FROM t");
    }));
  }
  ASSERT_TRUE(WaitFor([&server] {
    return server.dispatcher().queue_depth() == 3;
  }));

  Result<QueryResult> rejected = (*session)->Execute("SELECT * FROM t");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(StatusDetail(rejected.status(), "queue_depth"), 3);
  EXPECT_TRUE(StatusDetail(rejected.status(), "retry_after_ms").has_value());
  EXPECT_EQ(server.stats().rejected_queue_full.load(), 1u);
  EXPECT_EQ(server.stats().queue_depth_high_water.load(), 3u);

  server.dispatcher().ResumeWorkers();
  for (auto& f : pending) EXPECT_TRUE(f.get().ok());
}

TEST_F(ServerTest, ShedsLowestPriorityNewestFirstUnderOverload) {
  ServerOptions options;
  options.worker_threads = 1;
  options.max_queue_depth = 8;
  options.high_water_depth = 2;
  options.retry.max_attempts = 1;
  SessionManager server(&db_, options);
  auto low = server.OpenSession("low", /*priority=*/0);
  auto high = server.OpenSession("high", /*priority=*/5);
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());

  server.dispatcher().PauseWorkers();
  std::vector<std::future<Result<QueryResult>>> lows;
  for (int i = 0; i < 2; ++i) {
    lows.push_back(std::async(std::launch::async, [&low] {
      return (*low)->Execute("SELECT * FROM t");
    }));
  }
  ASSERT_TRUE(WaitFor([&server] {
    return server.dispatcher().queue_depth() == 2;
  }));

  // Queue is at the high-water mark: admitting high-priority work sheds
  // the newest lowest-priority request.
  std::future<Result<QueryResult>> high_f =
      std::async(std::launch::async, [&high] {
        return (*high)->Execute("SELECT id FROM t WHERE id = 1");
      });
  ASSERT_TRUE(WaitFor([&server] {
    return server.stats().shed.load() == 1;
  }));
  EXPECT_EQ(server.dispatcher().queue_depth(), 2u);

  // Exactly one low-priority request was evicted with a typed, detailed
  // status; the high-priority one is queued, not rejected.
  int shed_count = 0;
  server.dispatcher().ResumeWorkers();
  for (auto& f : lows) {
    Result<QueryResult> r = f.get();
    if (r.ok()) continue;
    ++shed_count;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(StatusDetail(r.status(), "shed"), 1);
    EXPECT_TRUE(IsRetryableStatus(r.status()));
  }
  EXPECT_EQ(shed_count, 1);
  EXPECT_TRUE(high_f.get().ok());
}

TEST_F(ServerTest, HighPrioritySessionDispatchedFirst) {
  ServerOptions options;
  options.worker_threads = 1;
  SessionManager server(&db_, options);
  auto low = server.OpenSession("low", 0);
  auto high = server.OpenSession("high", 9);
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());

  server.dispatcher().PauseWorkers();
  // Each reply carries its dequeue order; the order in which the client
  // threads wake after their replies says nothing about dispatch.
  auto submit = [&](Session* s, int tag) {
    return std::async(std::launch::async, [s, tag]() -> std::uint64_t {
      auto r = s->Execute("SELECT id FROM t WHERE id = " +
                          std::to_string(tag));
      return r.ok() ? r->dequeue_seq : 0;
    });
  };
  auto f1 = submit(*low, 1);
  ASSERT_TRUE(WaitFor([&server] {
    return server.dispatcher().queue_depth() == 1;
  }));
  auto f2 = submit(*low, 2);
  auto f3 = submit(*high, 3);
  ASSERT_TRUE(WaitFor([&server] {
    return server.dispatcher().queue_depth() == 3;
  }));
  server.dispatcher().ResumeWorkers();
  const std::uint64_t seq1 = f1.get();
  const std::uint64_t seq2 = f2.get();
  const std::uint64_t seq3 = f3.get();
  EXPECT_GT(seq1, 0u);
  EXPECT_GT(seq2, 0u);
  EXPECT_GT(seq3, 0u);
  // The high-priority statement (tag 3) is dequeued before the same-aged
  // low-priority one (tag 2); tag 1 vs 3 order depends on dequeue timing.
  EXPECT_LT(seq3, seq2);
}

// --------------------------------------------------- deadline-aware queueing

TEST_F(ServerTest, ExpiredDeadlineRejectedAtAdmission) {
  SessionManager server(&db_);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());

  QueryContext ctx;
  ctx.has_deadline = true;
  ctx.deadline = std::chrono::steady_clock::now() -
                 std::chrono::milliseconds(50);
  Result<QueryResult> r = (*session)->Execute("SELECT * FROM t", &ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(StatusDetail(r.status(), "deadline_lag_ms").value_or(-1), 0);
  EXPECT_EQ(server.stats().rejected_expired_deadline.load(), 1u);
  EXPECT_EQ(server.stats().executed.load(), 0u);
  EXPECT_FALSE(IsRetryableStatus(r.status()));
}

TEST_F(ServerTest, EngineRejectsExpiredDeadlineBeforeDispatch) {
  QueryContext ctx;
  ctx.has_deadline = true;
  ctx.deadline = std::chrono::steady_clock::now() -
                 std::chrono::milliseconds(10);
  // Defensive engine-side copy of the admission rule: no parse, no
  // dispatch, and crucially no side effects for DML.
  Result<QueryResult> r =
      db_.Execute("INSERT INTO t VALUES (999, 999)", &ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(StatusDetail(r.status(), "deadline_lag_ms").has_value());
  auto count = db_.Execute("SELECT * FROM t WHERE id = 999");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows.NumRows(), 0u);
}

TEST_F(ServerTest, DoomedQueuedStatementNeverExecutes) {
  ServerOptions options;
  options.worker_threads = 1;
  SessionManager server(&db_, options);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());

  server.dispatcher().PauseWorkers();
  QueryContext ctx;
  ctx.SetDeadlineAfter(std::chrono::milliseconds(30));
  std::future<Result<QueryResult>> doomed =
      std::async(std::launch::async, [&session, &ctx] {
        return (*session)->Execute("SELECT * FROM t", &ctx);
      });
  ASSERT_TRUE(WaitFor([&server] {
    return server.dispatcher().queue_depth() == 1;
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  server.dispatcher().ResumeWorkers();

  Result<QueryResult> r = doomed.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(StatusDetail(r.status(), "queued_ms").value_or(0), 0);
  EXPECT_EQ(server.stats().expired_in_queue.load(), 1u);
  // The defining property: the statement never reached the engine.
  EXPECT_EQ(server.stats().executed.load(), 0u);
}

TEST_F(ServerTest, OverloadTightensEffectiveDeadline) {
  ServerOptions options;
  options.worker_threads = 1;
  options.max_queue_depth = 8;
  options.high_water_depth = 1;
  options.overload_deadline_ms = 20;
  options.retry.max_attempts = 1;
  SessionManager server(&db_, options);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());

  server.dispatcher().PauseWorkers();
  // First statement fills the queue to the high-water mark; the second is
  // admitted under backpressure with a 20ms effective deadline even
  // though the client asked for none.
  auto first = std::async(std::launch::async, [&session] {
    return (*session)->Execute("SELECT * FROM t");
  });
  ASSERT_TRUE(WaitFor([&server] {
    return server.dispatcher().queue_depth() == 1;
  }));
  auto capped = std::async(std::launch::async, [&session] {
    return (*session)->Execute("SELECT * FROM t");
  });
  ASSERT_TRUE(WaitFor([&server] {
    return server.stats().deadline_tightened.load() == 1;
  }));
  // Let the capped deadline lapse in queue, then serve.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  server.dispatcher().ResumeWorkers();
  EXPECT_TRUE(first.get().ok());
  Result<QueryResult> r = capped.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server.stats().expired_in_queue.load(), 1u);
}

// --------------------------------------------------------- retry / backoff

TEST_F(ServerTest, RetryHealsTransientExecutionFault) {
  ServerOptions options;
  options.retry.max_attempts = 3;
  options.retry.base_backoff = std::chrono::milliseconds(1);
  SessionManager server(&db_, options);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());

  // One-shot fault: fires on the first execution, then disarms itself.
  FP().Enable("server.session_execute", Always());
  FP().SetAction("server.session_execute",
                 [] { FP().Disable("server.session_execute"); });

  Result<QueryResult> r = (*session)->Execute("SELECT id FROM t WHERE id = 7");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.NumRows(), 1u);
  EXPECT_EQ((*session)->stats().retries.load(), 1u);
  EXPECT_EQ(server.stats().retries.load(), 1u);
  EXPECT_EQ((*session)->stats().statements.load(), 1u);
  EXPECT_EQ((*session)->stats().succeeded.load(), 1u);
}

TEST_F(ServerTest, BackoffScheduleIsDeterministicFromSeed) {
  ServerOptions options;
  options.retry.max_attempts = 4;
  options.retry.base_backoff = std::chrono::milliseconds(2);
  options.retry.max_backoff = std::chrono::milliseconds(40);
  options.retry.jitter_seed = 0xFEEDULL;
  SessionManager server(&db_, options);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());

  FP().Enable("server.session_execute", Always());
  Result<QueryResult> r = (*session)->Execute("SELECT * FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ((*session)->stats().retries.load(), 3u);

  // Mirror the session's jitter stream: policy seed xor session id, and
  // the injected status's retry_after_ms hint (= base backoff) floors
  // each wait.
  Rng rng(options.retry.jitter_seed ^
          ((*session)->id() * 0x9E3779B97F4A7C15ULL));
  std::uint64_t expected_total = 0;
  for (std::size_t attempt = 1; attempt <= 3; ++attempt) {
    auto backoff = ComputeBackoff(options.retry, attempt, &rng);
    backoff = std::max(backoff, options.retry.base_backoff);
    expected_total += static_cast<std::uint64_t>(backoff.count());
  }
  EXPECT_EQ((*session)->stats().backoff_ms_total.load(), expected_total);
  EXPECT_EQ(server.stats().backoff_ms_total.load(), expected_total);
}

TEST_F(ServerTest, SemanticErrorsAreNeverRetried) {
  SessionManager server(&db_);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());
  Result<QueryResult> r = (*session)->Execute("SELECT zap FROM nowhere");
  ASSERT_FALSE(r.ok());
  EXPECT_FALSE(IsRetryableStatus(r.status()));
  EXPECT_EQ((*session)->stats().retries.load(), 0u);
  EXPECT_EQ((*session)->stats().failed.load(), 1u);
}

TEST_F(ServerTest, BackoffNeverSleepsPastCallerDeadline) {
  ServerOptions options;
  options.retry.max_attempts = 10;
  options.retry.base_backoff = std::chrono::milliseconds(50);
  options.retry.max_backoff = std::chrono::milliseconds(50);
  SessionManager server(&db_, options);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());

  FP().Enable("server.session_execute", Always());
  QueryContext ctx;
  ctx.SetDeadlineAfter(std::chrono::milliseconds(25));
  const auto t0 = std::chrono::steady_clock::now();
  Result<QueryResult> r = (*session)->Execute("SELECT * FROM t", &ctx);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(r.ok());
  // The transient error returns once the remaining budget cannot cover
  // the next 50ms wait — long before ten 50ms backoffs.
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            200);
  EXPECT_EQ((*session)->stats().retries.load(), 0u);
}

// ------------------------------------------------------------------- drain

TEST_F(ServerTest, DrainRejectsQueuedAndFinishesInFlight) {
  ServerOptions options;
  options.worker_threads = 1;
  options.retry.max_attempts = 1;
  SessionManager server(&db_, options);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());

  // Block the worker mid-statement at the drain chaos site.
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<bool> blocked{false};
  FP().Enable("exec.drain", EveryNth(1));
  FP().SetAction("exec.drain", [&] {
    blocked.store(true);
    std::unique_lock<std::mutex> lk(gate_mu);
    gate_cv.wait(lk, [&] { return gate_open; });
  });

  auto in_flight = std::async(std::launch::async, [&session] {
    return (*session)->Execute("SELECT id FROM t WHERE id = 3");
  });
  ASSERT_TRUE(WaitFor([&blocked] { return blocked.load(); }));

  auto queued = std::async(std::launch::async, [&session] {
    return (*session)->Execute("SELECT id FROM t WHERE id = 4");
  });
  ASSERT_TRUE(WaitFor([&server] {
    return server.dispatcher().queue_depth() == 1;
  }));

  auto drain = std::async(std::launch::async,
                          [&server] { return server.Drain(); });
  // Queued work is rejected promptly; the in-flight statement keeps
  // running until we open the gate.
  Result<QueryResult> rq = queued.get();
  ASSERT_FALSE(rq.ok());
  EXPECT_EQ(rq.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(StatusDetail(rq.status(), "draining"), 1);
  EXPECT_EQ(server.stats().drain_rejected.load(), 1u);

  {
    std::lock_guard<std::mutex> lk(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  FP().DisableAll();

  EXPECT_TRUE(drain.get().ok());
  Result<QueryResult> rf = in_flight.get();
  ASSERT_TRUE(rf.ok()) << rf.status().ToString();
  EXPECT_EQ(rf->rows.NumRows(), 1u);
  EXPECT_EQ(server.stats().drain_cancelled.load(), 0u);
  EXPECT_EQ(server.stats().drains.load(), 1u);

  // Post-drain: admissions and new sessions are closed, typed.
  Result<QueryResult> post = (*session)->Execute("SELECT * FROM t");
  ASSERT_FALSE(post.ok());
  EXPECT_EQ(post.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(StatusDetail(post.status(), "draining"), 1);
  EXPECT_FALSE(server.OpenSession().ok());
}

TEST_F(ServerTest, DrainCancelsStragglersAtDeadline) {
  ServerOptions options;
  options.worker_threads = 1;
  options.drain_deadline_ms = 10;
  options.retry.max_attempts = 1;
  SessionManager server(&db_, options);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());

  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<bool> blocked{false};
  FP().Enable("exec.drain", EveryNth(1));
  FP().SetAction("exec.drain", [&] {
    blocked.store(true);
    std::unique_lock<std::mutex> lk(gate_mu);
    gate_cv.wait(lk, [&] { return gate_open; });
  });

  auto straggler = std::async(std::launch::async, [&session] {
    return (*session)->Execute("SELECT * FROM t");
  });
  ASSERT_TRUE(WaitFor([&blocked] { return blocked.load(); }));

  auto drain = std::async(std::launch::async,
                          [&server] { return server.Drain(); });
  // The drain grace (10ms) lapses against a blocked statement; the
  // dispatcher cancels it through its token.
  ASSERT_TRUE(WaitFor([&server] {
    return server.stats().drain_cancelled.load() == 1;
  }));
  {
    std::lock_guard<std::mutex> lk(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  FP().DisableAll();

  EXPECT_TRUE(drain.get().ok());
  Result<QueryResult> r = straggler.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST_F(ServerTest, DrainIsIdempotentAndConcurrent) {
  SessionManager server(&db_);
  std::vector<std::future<Status>> drains;
  for (int i = 0; i < 4; ++i) {
    drains.push_back(std::async(std::launch::async,
                                [&server] { return server.Drain(); }));
  }
  for (auto& f : drains) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(server.stats().drains.load(), 1u);
}

// ---------------------------------------------------------- failpoint sites

TEST_F(ServerTest, AdmitFailpointRejectsTyped) {
  ServerOptions options;
  options.retry.max_attempts = 1;
  SessionManager server(&db_, options);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());
  FP().Enable("server.admit", Always());
  Result<QueryResult> r = (*session)->Execute("SELECT * FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(IsRetryableStatus(r.status()));
  EXPECT_EQ(server.stats().rejected_injected.load(), 1u);
  EXPECT_EQ(server.stats().admitted.load(), 0u);
}

TEST_F(ServerTest, DequeueFailpointIsRetryableTransient) {
  ServerOptions options;
  options.retry.max_attempts = 2;
  options.retry.base_backoff = std::chrono::milliseconds(1);
  SessionManager server(&db_, options);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());
  // Fires once (first dequeue), self-disarms; the session's retry heals.
  FP().Enable("server.dequeue", Always());
  FP().SetAction("server.dequeue", [] { FP().Disable("server.dequeue"); });
  Result<QueryResult> r = (*session)->Execute("SELECT id FROM t WHERE id = 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*session)->stats().retries.load(), 1u);
  // The faulted dequeue never reached the engine.
  EXPECT_EQ(server.stats().executed.load(), 1u);
}

TEST_F(ServerTest, DrainFailpointSiteFires) {
  SessionManager server(&db_);
  std::atomic<int> drain_hits{0};
  FP().Enable("server.drain", Always());
  FP().SetAction("server.drain", [&drain_hits] { ++drain_hits; });
  EXPECT_TRUE(server.Drain().ok());
  EXPECT_EQ(drain_hits.load(), 1);
  EXPECT_GE(FP().Fires("server.drain"), 1u);
}

// ------------------------------------------------------ stats & cancellation

TEST_F(ServerTest, SessionCancelAbortsOutstandingAndFutureWork) {
  ServerOptions options;
  options.worker_threads = 1;
  SessionManager server(&db_, options);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());

  server.dispatcher().PauseWorkers();
  auto pending = std::async(std::launch::async, [&session] {
    return (*session)->Execute("SELECT * FROM t");
  });
  ASSERT_TRUE(WaitFor([&server] {
    return server.dispatcher().queue_depth() == 1;
  }));
  (*session)->Cancel();
  server.dispatcher().ResumeWorkers();
  Result<QueryResult> r = pending.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  // Future statements fail fast on the sticky token.
  Result<QueryResult> next = (*session)->Execute("SELECT * FROM t");
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kCancelled);
}

TEST_F(ServerTest, WalActivityRollsUpPerSessionAndServer) {
  TempDir dir;
  EngineOptions engine_options;
  engine_options.wal_dir = dir.path;
  SoftDb db(engine_options);
  ASSERT_TRUE(db.Execute("CREATE TABLE w (id INT, v INT)").ok());

  SessionManager server(&db);
  auto a = server.OpenSession("a");
  auto b = server.OpenSession("b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*a)->Execute("INSERT INTO w VALUES (" + std::to_string(i) +
                              ", 1)")
                    .ok());
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*b)->Execute("INSERT INTO w VALUES (" +
                              std::to_string(100 + i) + ", 2)")
                    .ok());
  }
  EXPECT_GT((*a)->stats().wal_records.load(), 0u);
  EXPECT_GT((*b)->stats().wal_records.load(), 0u);
  EXPECT_EQ(server.stats().wal_records.load(),
            (*a)->stats().wal_records.load() +
                (*b)->stats().wal_records.load());
  EXPECT_EQ(server.stats().rows_output.load(), 0u);  // DML outputs no rows.
}

// ------------------------------------------------- drain + WAL + recovery

TEST_F(ServerTest, DrainCheckpointsWalAndStateRecoversBitIdentical) {
  TempDir dir;
  std::vector<std::string> control_rows;
  {
    SoftDb control;
    ASSERT_TRUE(
        control.Execute("CREATE TABLE s (id INT PRIMARY KEY, v INT)").ok());
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(control
                      .Execute("INSERT INTO s VALUES (" + std::to_string(i) +
                               ", " + std::to_string(i * 3) + ")")
                      .ok());
    }
    ASSERT_TRUE(control.Execute("UPDATE s SET v = 0 WHERE id = 5").ok());
    control_rows = SortedRows(&control, "SELECT * FROM s");
  }

  {
    EngineOptions engine_options;
    engine_options.wal_dir = dir.path;
    SoftDb db(engine_options);
    ASSERT_TRUE(
        db.Execute("CREATE TABLE s (id INT PRIMARY KEY, v INT)").ok());
    ServerOptions options;
    options.worker_threads = 4;
    SessionManager server(&db, options);
    // Four sessions insert disjoint key ranges concurrently, then one
    // runs the update; the end state is order-independent.
    std::vector<std::thread> clients;
    for (int s = 0; s < 4; ++s) {
      clients.emplace_back([&server, s] {
        auto session = server.OpenSession();
        ASSERT_TRUE(session.ok());
        for (int i = s; i < 30; i += 4) {
          auto r = (*session)->Execute("INSERT INTO s VALUES (" +
                                       std::to_string(i) + ", " +
                                       std::to_string(i * 3) + ")");
          EXPECT_TRUE(r.ok()) << r.status().ToString();
        }
      });
    }
    for (auto& t : clients) t.join();
    auto session = server.OpenSession();
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE((*session)->Execute("UPDATE s SET v = 0 WHERE id = 5").ok());

    // Drain checkpoints: the log is truncated into checkpoint.bin.
    ASSERT_TRUE(server.Drain().ok());
    EXPECT_TRUE(fs::exists(fs::path(dir.path) / "checkpoint.bin"));
  }

  auto recovered = SoftDb::Recover(dir.path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(SortedRows(recovered->get(), "SELECT * FROM s"), control_rows);
}

TEST_F(ServerTest, CrashMidServeRecoversServedStateExactly) {
  TempDir dir;
  std::vector<std::string> control_rows;
  {
    SoftDb control;
    ASSERT_TRUE(
        control.Execute("CREATE TABLE c (id INT PRIMARY KEY, v INT)").ok());
    for (int i = 0; i < 24; ++i) {
      ASSERT_TRUE(control
                      .Execute("INSERT INTO c VALUES (" + std::to_string(i) +
                               ", " + std::to_string(i) + ")")
                      .ok());
    }
    control_rows = SortedRows(&control, "SELECT * FROM c");
  }

  {
    EngineOptions engine_options;
    engine_options.wal_dir = dir.path;
    SoftDb db(engine_options);
    ASSERT_TRUE(
        db.Execute("CREATE TABLE c (id INT PRIMARY KEY, v INT)").ok());
    ServerOptions options;
    options.worker_threads = 3;
    SessionManager server(&db, options);
    std::vector<std::thread> clients;
    for (int s = 0; s < 3; ++s) {
      clients.emplace_back([&server, s] {
        auto session = server.OpenSession();
        ASSERT_TRUE(session.ok());
        for (int i = s; i < 24; i += 3) {
          auto r = (*session)->Execute("INSERT INTO c VALUES (" +
                                       std::to_string(i) + ", " +
                                       std::to_string(i) + ")");
          EXPECT_TRUE(r.ok()) << r.status().ToString();
        }
      });
    }
    for (auto& t : clients) t.join();
    // "Crash": the server dies without Drain — no checkpoint, the WAL
    // tail is all there is. (Destruction cancels, it does not flush
    // state beyond what each acked statement already logged.)
  }

  auto recovered = SoftDb::Recover(dir.path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(SortedRows(recovered->get(), "SELECT * FROM c"), control_rows);
}

// --------------------------------------------------------- overload drill

TEST_F(ServerTest, OverloadDrillTypedRejectionsAndExactRecovery) {
  TempDir dir;
  EngineOptions engine_options;
  engine_options.wal_dir = dir.path;
  SoftDb db(engine_options);
  ASSERT_TRUE(
      db.Execute("CREATE TABLE o (id INT PRIMARY KEY, v INT)").ok());

  ServerOptions options;
  options.worker_threads = 2;
  options.max_queue_depth = 4;
  options.high_water_depth = 3;
  options.retry.max_attempts = 1;  // Rejections must surface, not heal.
  SessionManager server(&db, options);

  // 8 clients hammer a 4-deep queue with single-row inserts (unique keys
  // per client). Every failure must be a typed admission rejection —
  // never a partial write — so the acked set fully determines state.
  std::mutex acked_mu;
  std::vector<int> acked;
  std::atomic<int> bad_status{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      auto session = server.OpenSession("load-" + std::to_string(c));
      ASSERT_TRUE(session.ok());
      for (int i = 0; i < 40; ++i) {
        const int key = c * 1000 + i;
        auto r = (*session)->Execute("INSERT INTO o VALUES (" +
                                     std::to_string(key) + ", 1)");
        if (r.ok()) {
          std::lock_guard<std::mutex> lk(acked_mu);
          acked.push_back(key);
        } else if (r.status().code() != StatusCode::kResourceExhausted) {
          ++bad_status;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(bad_status.load(), 0);
  EXPECT_GT(server.stats().succeeded.load(), 0u);
  ASSERT_TRUE(server.Drain().ok());

  // Recovery reproduces exactly the acked set.
  std::vector<std::string> expected;
  {
    SoftDb control;
    ASSERT_TRUE(
        control.Execute("CREATE TABLE o (id INT PRIMARY KEY, v INT)").ok());
    std::vector<int> keys;
    {
      std::lock_guard<std::mutex> lk(acked_mu);
      keys = acked;
    }
    std::sort(keys.begin(), keys.end());
    for (int key : keys) {
      ASSERT_TRUE(control
                      .Execute("INSERT INTO o VALUES (" +
                               std::to_string(key) + ", 1)")
                      .ok());
    }
    expected = SortedRows(&control, "SELECT * FROM o");
  }
  auto recovered = SoftDb::Recover(dir.path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(SortedRows(recovered->get(), "SELECT * FROM o"), expected);
}

}  // namespace
}  // namespace softdb
