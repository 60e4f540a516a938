// Tests for the morsel-driven parallel execution layer: morsel splitting,
// the work-stealing TaskScheduler (group barrier, deterministic failure
// selection, exception capture, observable steals), and the end-to-end
// guarantee that parallel query execution merges morsel results in
// deterministic order — bit-identical to serial execution.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/softdb.h"
#include "exec/morsel.h"
#include "exec/scheduler.h"

namespace softdb {
namespace {

// ---------------------------------------------------------------- morsels

TEST(SplitMorselsTest, EmptyInputYieldsNoMorsels) {
  EXPECT_TRUE(SplitMorsels(0, 64).empty());
}

TEST(SplitMorselsTest, ExactMultiple) {
  const auto morsels = SplitMorsels(128, 64);
  ASSERT_EQ(morsels.size(), 2u);
  EXPECT_EQ(morsels[0].base, 0u);
  EXPECT_EQ(morsels[0].rows, 64u);
  EXPECT_EQ(morsels[0].index, 0u);
  EXPECT_EQ(morsels[1].base, 64u);
  EXPECT_EQ(morsels[1].rows, 64u);
  EXPECT_EQ(morsels[1].index, 1u);
}

TEST(SplitMorselsTest, LastMorselIsShort) {
  const auto morsels = SplitMorsels(100, 33);
  ASSERT_EQ(morsels.size(), 4u);
  std::size_t total = 0;
  for (std::size_t i = 0; i < morsels.size(); ++i) {
    EXPECT_EQ(morsels[i].index, i);
    EXPECT_EQ(morsels[i].base, i * 33);
    total += morsels[i].rows;
  }
  EXPECT_EQ(morsels.back().rows, 1u);
  EXPECT_EQ(total, 100u);
}

TEST(SplitMorselsTest, ZeroMorselRowsTreatedAsOne) {
  const auto morsels = SplitMorsels(3, 0);
  ASSERT_EQ(morsels.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(morsels[i].base, i);
    EXPECT_EQ(morsels[i].rows, 1u);
  }
}

TEST(MorselSourceTest, HandsOutEachMorselOnceInOrder) {
  MorselSource source(10, 3);
  EXPECT_EQ(source.NumMorsels(), 4u);
  MorselRange m;
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(source.Next(&m));
    EXPECT_EQ(m.index, i);
  }
  EXPECT_FALSE(source.Next(&m));
  EXPECT_FALSE(source.Next(&m));  // Stays exhausted.
}

TEST(ExecPoolTest, SequentialLeasesReuseOneResource) {
  ExecPool<int> pool([] { return std::make_unique<int>(0); });
  for (int i = 0; i < 5; ++i) {
    auto lease = pool.Acquire();
    *lease.get() += 1;
  }
  EXPECT_EQ(pool.created(), 1u);
}

// -------------------------------------------------------------- scheduler

TEST(TaskSchedulerTest, RunsEveryTaskExactlyOnce) {
  TaskScheduler scheduler(4);
  EXPECT_EQ(scheduler.num_threads(), 4u);
  std::vector<std::atomic<int>> counts(64);
  std::vector<TaskScheduler::Task> tasks;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    tasks.push_back([&counts, i]() {
      counts[i].fetch_add(1);
      return Status::OK();
    });
  }
  ASSERT_TRUE(scheduler.Run(std::move(tasks)).ok());
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(TaskSchedulerTest, RunIsABarrier) {
  // Run must not return before slow tasks finish, regardless of which
  // worker executes them.
  TaskScheduler scheduler(3);
  std::atomic<int> done{0};
  std::vector<TaskScheduler::Task> tasks;
  for (int i = 0; i < 12; ++i) {
    tasks.push_back([&done, i]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(i % 4));
      done.fetch_add(1);
      return Status::OK();
    });
  }
  ASSERT_TRUE(scheduler.Run(std::move(tasks)).ok());
  EXPECT_EQ(done.load(), 12);
}

TEST(TaskSchedulerTest, EmptyGroupReturnsOk) {
  TaskScheduler scheduler(2);
  EXPECT_TRUE(scheduler.Run({}).ok());
}

TEST(TaskSchedulerTest, LowestIndexedFailureWins) {
  TaskScheduler scheduler(4);
  for (int round = 0; round < 8; ++round) {
    std::vector<TaskScheduler::Task> tasks;
    for (int i = 0; i < 16; ++i) {
      tasks.push_back([i]() -> Status {
        if (i == 3) return Status::InvalidArgument("failure at 3");
        if (i == 11) return Status::Internal("failure at 11");
        return Status::OK();
      });
    }
    const Status status = scheduler.Run(std::move(tasks));
    ASSERT_FALSE(status.ok());
    // Whichever task happens to finish first, the reported failure is the
    // lowest-indexed one — parallel error reporting is deterministic.
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("failure at 3"), std::string::npos);
  }
}

TEST(TaskSchedulerTest, ExceptionsBecomeInternalErrors) {
  TaskScheduler scheduler(2);
  std::vector<TaskScheduler::Task> tasks;
  tasks.push_back([]() { return Status::OK(); });
  tasks.push_back([]() -> Status { throw std::runtime_error("boom"); });
  const Status status = scheduler.Run(std::move(tasks));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("boom"), std::string::npos);
}

TEST(TaskSchedulerTest, IdleWorkersStealQueuedTasks) {
  // Deterministic steal setup on a fresh 2-worker pool: round-robin deals
  // t0 -> queue 0, t1 -> queue 1, t2 -> queue 0. Worker 0 blocks inside t0
  // until t2 has run; worker 0 cannot reach t2 (it is behind the blocked
  // t0), so the only way the group finishes is worker 1 stealing t2.
  TaskScheduler scheduler(2);
  std::promise<void> t2_done;
  std::shared_future<void> t2_done_future = t2_done.get_future().share();
  std::vector<TaskScheduler::Task> tasks;
  tasks.push_back([t2_done_future]() {
    t2_done_future.wait();
    return Status::OK();
  });
  tasks.push_back([]() { return Status::OK(); });
  tasks.push_back([&t2_done]() {
    t2_done.set_value();
    return Status::OK();
  });
  ASSERT_TRUE(scheduler.Run(std::move(tasks)).ok());
  EXPECT_GE(scheduler.steals(), 1u);
}

TEST(TaskSchedulerTest, ConcurrentRunCallsShareThePool) {
  TaskScheduler scheduler(4);
  std::atomic<int> total{0};
  auto submit = [&]() {
    std::vector<TaskScheduler::Task> tasks;
    for (int i = 0; i < 32; ++i) {
      tasks.push_back([&total]() {
        total.fetch_add(1);
        return Status::OK();
      });
    }
    return scheduler.Run(std::move(tasks));
  };
  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  for (int i = 0; i < 4; ++i) {
    callers.emplace_back([&]() {
      if (!submit().ok()) failures.fetch_add(1);
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(total.load(), 4 * 32);
}

// --------------------------------------------------- end-to-end parallel

class ParallelExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        db_.Execute("CREATE TABLE t (a BIGINT NOT NULL, b BIGINT, e VARCHAR)")
            .ok());
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(db_.InsertRow("t", {Value::Int64(i % 97),
                                      i % 13 == 0 ? Value::Null()
                                                  : Value::Int64(i),
                                      Value::String(i % 2 ? "odd" : "even")})
                      .ok());
    }
    ASSERT_TRUE(
        db_.Execute("CREATE TABLE s (k BIGINT NOT NULL, w BIGINT)").ok());
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(db_.InsertRow("s", {Value::Int64(i % 97),
                                      Value::Int64(i * 10)})
                      .ok());
    }
    ASSERT_TRUE(db_.Execute("ANALYZE t").ok());
    ASSERT_TRUE(db_.Execute("ANALYZE s").ok());
    db_.options().verify_plans = true;
  }

  QueryResult Run(const std::string& sql, std::size_t threads,
                  std::size_t morsel_rows = 64) {
    db_.options().num_threads = threads;
    db_.options().parallel_morsel_rows = morsel_rows;
    db_.plan_cache().Clear();
    auto result = db_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    return std::move(*result);
  }

  static void ExpectIdentical(const QueryResult& serial,
                              const QueryResult& parallel,
                              const std::string& sql) {
    ASSERT_EQ(serial.rows.NumRows(), parallel.rows.NumRows()) << sql;
    for (std::size_t i = 0; i < serial.rows.NumRows(); ++i) {
      const auto& sr = serial.rows.rows[i];
      const auto& pr = parallel.rows.rows[i];
      ASSERT_EQ(sr.size(), pr.size()) << sql << " row " << i;
      for (std::size_t c = 0; c < sr.size(); ++c) {
        ASSERT_EQ(sr[c].ToString(), pr[c].ToString())
            << sql << " row " << i << " col " << c;
        ASSERT_EQ(sr[c].type(), pr[c].type())
            << sql << " row " << i << " col " << c;
      }
    }
    EXPECT_EQ(serial.exec_stats.rows_scanned, parallel.exec_stats.rows_scanned)
        << sql;
    EXPECT_EQ(serial.exec_stats.rows_emitted, parallel.exec_stats.rows_emitted)
        << sql;
    EXPECT_EQ(serial.exec_stats.pages_read, parallel.exec_stats.pages_read)
        << sql;
    EXPECT_EQ(serial.exec_stats.rows_joined, parallel.exec_stats.rows_joined)
        << sql;
  }

  SoftDb db_;
};

TEST_F(ParallelExecTest, ScanActuallySplitsIntoMorsels) {
  const QueryResult parallel = Run("SELECT a, b FROM t WHERE a < 50", 4);
  // 1000 slots at 64 rows per morsel: the plan really went parallel.
  EXPECT_GE(parallel.exec_stats.morsels, 15u);
  const QueryResult serial = Run("SELECT a, b FROM t WHERE a < 50", 1);
  EXPECT_EQ(serial.exec_stats.morsels, 0u);
}

TEST_F(ParallelExecTest, MergeOrderIsDeterministicAndSerialIdentical) {
  const std::string queries[] = {
      "SELECT * FROM t",
      "SELECT a, b FROM t WHERE a < 50 AND b IS NOT NULL",
      "SELECT a + 1, b - a FROM t WHERE e = 'odd'",
      "SELECT a, w FROM t JOIN s ON a = k WHERE w > 100",
      "SELECT a, b FROM t WHERE a BETWEEN 10 AND 60 ORDER BY a",
  };
  for (const std::string& sql : queries) {
    const QueryResult serial = Run(sql, 1);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      // Repeat runs guard against schedule-dependent merge order: every
      // execution must produce the same byte-identical output.
      for (int repeat = 0; repeat < 3; ++repeat) {
        const QueryResult parallel = Run(sql, threads);
        ExpectIdentical(serial, parallel, sql);
      }
    }
  }
}

TEST_F(ParallelExecTest, LimitSubtreeStaysSerial) {
  const QueryResult limited = Run("SELECT a FROM t WHERE a < 50 LIMIT 5", 8);
  // The planner must keep LIMIT subtrees serial; the
  // kParallelSafety invariant (verify_plans is on) double-checks it.
  EXPECT_EQ(limited.exec_stats.morsels, 0u);
  EXPECT_EQ(limited.rows.NumRows(), 5u);
}

TEST_F(ParallelExecTest, JoinBuildSidesAgreeAcrossThreadCounts) {
  // Duplicate build keys: per-key row order in the parallel join must fold
  // morsels in table order, reproducing serial build insertion order.
  const std::string sql = "SELECT a, b, w FROM t JOIN s ON a = k";
  const QueryResult serial = Run(sql, 1);
  const QueryResult parallel = Run(sql, 8, 32);
  ExpectIdentical(serial, parallel, sql);
  EXPECT_GT(parallel.exec_stats.morsels, 0u);
}

TEST_F(ParallelExecTest, SchedulerIsReusedAcrossQueries) {
  db_.options().num_threads = 4;
  TaskScheduler* first = db_.scheduler();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->num_threads(), 4u);
  EXPECT_EQ(db_.scheduler(), first);  // Same pool while the size holds.
  db_.options().num_threads = 1;
  EXPECT_EQ(db_.scheduler(), nullptr);  // Serial mode has no pool.
}

}  // namespace
}  // namespace softdb
