// Concurrency stress battery for the shared engine state (DESIGN.md §8):
// N reader threads run SC-rewritten (and morsel-parallel) queries against a
// static table while one writer thread hammers the maintenance path —
// ScRegistry::OnInsert violations firing the plan-cache listener, repair
// queue drains, full re-verification, and CREATE/DROP TABLE churn that
// evicts cached packages. Readers must never see a wrong answer, a torn SC
// lifecycle, or a freed plan (evicted entries are held via shared_ptr).
//
// The tables the readers scan are never mutated, so every SC "violation"
// the writer injects is synthetic: both the SC-rewritten primary plan and
// the ASC-free backup plan remain correct answers at every instant, which
// is what makes exact-count assertions valid mid-flip.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "constraints/column_offset_sc.h"
#include "constraints/domain_sc.h"
#include "constraints/zone_map_sc.h"
#include "engine/softdb.h"
#include "server/session.h"

namespace softdb {
namespace {

class ConcurrencyStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Static read table: a in [0, 97), b = a + delta with delta in [0, 10].
    ASSERT_TRUE(
        db_.Execute("CREATE TABLE r (a BIGINT NOT NULL, b BIGINT)").ok());
    for (int i = 0; i < 600; ++i) {
      ASSERT_TRUE(db_.InsertRow("r", {Value::Int64(i % 97),
                                      Value::Int64(i % 97 + i % 11)})
                      .ok());
    }
    // Writer-owned table (per-table single-writer contract: only the
    // writer thread touches w's data).
    ASSERT_TRUE(
        db_.Execute("CREATE TABLE w (x BIGINT NOT NULL, y BIGINT)").ok());
    ASSERT_TRUE(db_.Execute("ANALYZE r").ok());

    // SCs the optimizer uses on r, one per maintenance policy the writer
    // exercises. All are true of r's (immutable) data.
    auto drop_sc = std::make_unique<ColumnOffsetSc>("r_off", "r", 0, 1, 0, 10);
    drop_sc->set_policy(ScMaintenancePolicy::kDropOnViolation);
    ASSERT_TRUE(db_.scs().Add(std::move(drop_sc), db_.catalog()).ok());
    auto async_sc =
        std::make_unique<DomainSc>("r_dom", "r", 0, Value::Int64(0),
                                   Value::Int64(100));
    async_sc->set_policy(ScMaintenancePolicy::kAsyncRepair);
    ASSERT_TRUE(db_.scs().Add(std::move(async_sc), db_.catalog()).ok());
    auto tol_sc = std::make_unique<ColumnOffsetSc>("r_tol", "r", 0, 1, 0, 11);
    tol_sc->set_policy(ScMaintenancePolicy::kTolerate);
    ASSERT_TRUE(db_.scs().Add(std::move(tol_sc), db_.catalog()).ok());

    db_.options().enable_predicate_introduction = true;
  }

  SoftDb db_;
};

TEST_F(ConcurrencyStressTest, ReadersSurviveMaintenanceAndCacheChurn) {
  // Fixed thread count for the whole test: resizing the pool mid-query is
  // out of contract.
  db_.options().num_threads = 2;
  db_.options().parallel_morsel_rows = 64;

  struct Probe {
    std::string sql;
    std::size_t expected;
  };
  std::vector<Probe> probes;
  for (const char* sql :
       {"SELECT a, b FROM r WHERE b - a <= 5",
        "SELECT a FROM r WHERE a BETWEEN 10 AND 40",
        "SELECT a, b FROM r WHERE b - a <= 8 ORDER BY a",
        "SELECT a FROM r WHERE a < 50 AND b IS NOT NULL"}) {
    auto baseline = db_.Execute(sql);
    ASSERT_TRUE(baseline.ok()) << sql;
    probes.push_back(Probe{sql, baseline->rows.NumRows()});
  }

  std::atomic<bool> done{false};
  std::atomic<int> reader_errors{0};
  std::atomic<std::uint64_t> reads{0};

  auto reader = [&](int id) {
    // Each reader sweeps the probe set; one of them also re-Gets cached
    // packages for the writer's scratch tables and renders the plan after
    // eviction, which would be a use-after-free without shared_ptr pins.
    std::vector<std::shared_ptr<CachedPlan>> pinned;
    for (int iter = 0; !done.load(std::memory_order_acquire); ++iter) {
      const Probe& probe = probes[(id + iter) % probes.size()];
      auto result = db_.Execute(probe.sql);
      if (!result.ok() || result->rows.NumRows() != probe.expected) {
        reader_errors.fetch_add(1);
        ADD_FAILURE() << probe.sql << " -> "
                      << (result.ok()
                              ? "wrong count " +
                                    std::to_string(result->rows.NumRows()) +
                                    " (want " +
                                    std::to_string(probe.expected) + ")"
                              : result.status().ToString());
        break;
      }
      reads.fetch_add(1);
      if (id == 0) {
        std::shared_ptr<CachedPlan> entry =
            db_.plan_cache().Get("SELECT x, y FROM scratch WHERE x >= 0");
        if (entry != nullptr) pinned.push_back(std::move(entry));
        if (pinned.size() > 8) pinned.erase(pinned.begin());
      }
      // SC lifecycle must never tear, whatever the writer is doing.
      for (const SoftConstraint* sc : db_.scs().All()) {
        const double conf = sc->confidence();
        if (conf < 0.0 || conf > 1.0) {
          reader_errors.fetch_add(1);
          ADD_FAILURE() << sc->name() << " confidence " << conf;
        }
        const ScState state = sc->state();
        if (state != ScState::kActive && state != ScState::kViolated &&
            state != ScState::kRepairQueued && state != ScState::kDropped) {
          reader_errors.fetch_add(1);
          ADD_FAILURE() << sc->name() << " torn state "
                        << static_cast<int>(state);
        }
      }
    }
    // Evicted-but-pinned packages must still render: the plan tree is
    // alive for as long as any session holds the entry.
    for (const auto& entry : pinned) {
      EXPECT_FALSE(entry->ActivePlan().ToString().empty());
    }
  };

  auto writer = [&]() {
    const std::vector<Value> violating_offset{Value::Int64(50),
                                              Value::Int64(90)};
    const std::vector<Value> violating_domain{Value::Int64(500),
                                              Value::Int64(505)};
    const std::vector<Value> complying{Value::Int64(5), Value::Int64(9)};
    for (int iter = 0; iter < 120; ++iter) {
      // DML on the writer's own table (full engine path: impact analysis,
      // IC checks, SC hooks).
      ASSERT_TRUE(db_.InsertRow("w", {Value::Int64(iter),
                                      Value::Int64(iter * 2)})
                      .ok());
      // Synthetic violations against r's SCs: kDropOnViolation flips
      // dependent packages, kAsyncRepair queues work, kTolerate decays
      // confidence. r's data never changes, so readers stay correct.
      ASSERT_TRUE(db_.scs()
                      .OnInsert(db_.catalog(), "r",
                                iter % 2 ? violating_offset
                                         : violating_domain)
                      .ok());
      ASSERT_TRUE(db_.scs().OnInsert(db_.catalog(), "r", complying).ok());
      if (iter % 3 == 0) {
        // Drain repairs and re-arm flipped packages.
        ASSERT_TRUE(db_.RunMaintenance().ok());
      }
      if (iter % 5 == 0) {
        // Re-baseline every SC against the (compliant) data: they all
        // return to kActive with confidence 1.0.
        ASSERT_TRUE(db_.scs().VerifyAll(db_.catalog()).ok());
      }
      // Catalog + plan-cache churn: a scratch table is created, queried
      // (caching a package readers pin), then dropped (evicting it).
      ASSERT_TRUE(
          db_.Execute("CREATE TABLE scratch (x BIGINT NOT NULL, y BIGINT)")
              .ok());
      ASSERT_TRUE(db_.InsertRow("scratch", {Value::Int64(iter),
                                            Value::Int64(iter)})
                      .ok());
      auto scratch_read =
          db_.Execute("SELECT x, y FROM scratch WHERE x >= 0");
      ASSERT_TRUE(scratch_read.ok());
      EXPECT_EQ(scratch_read->rows.NumRows(), 1u);
      ASSERT_TRUE(db_.Execute("DROP TABLE scratch").ok());
    }
    done.store(true, std::memory_order_release);
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) threads.emplace_back(reader, i);
  std::thread writer_thread(writer);
  writer_thread.join();
  for (auto& t : threads) t.join();

  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_GT(reads.load(), 0u);

  // Final maintenance pass returns the world to a clean state: every SC
  // re-verifies absolute against the untouched data.
  ASSERT_TRUE(db_.scs().VerifyAll(db_.catalog()).ok());
  ASSERT_TRUE(db_.RunMaintenance().ok());
  for (const SoftConstraint* sc : db_.scs().All()) {
    EXPECT_TRUE(sc->active()) << sc->name();
    EXPECT_EQ(sc->confidence(), 1.0) << sc->name();
  }

  // Counter sanity: the writer's synthetic violations were observed and
  // scoped invalidation did real work.
  const ScMaintenanceStats& stats = db_.scs().stats();
  EXPECT_GT(stats.row_checks.load(), 0u);
  EXPECT_GT(stats.violations.load(), 0u);
  EXPECT_GT(stats.async_enqueued.load(), 0u);
  EXPECT_GT(db_.plan_cache().invalidations(), 0u);
  EXPECT_GT(db_.plan_cache().hits() + db_.plan_cache().misses(), 0u);
}

// Zone-map skip sets under concurrent lifecycle churn: readers hammer
// block-skipping scans of a static clustered table while the writer (a)
// loosens the maps' envelopes and bumps their epochs — answer-preserving
// churn that forces in-flight queries through RunPlan's zone-map
// degraded-retry path — (b) re-verifies and exactly re-mines them, and
// (c) grows its own zone-mapped table from empty via the incremental
// append folds, checking exact counts after every insert. Readers must
// see exact counts at every instant; the maps must end absolute + tight.
TEST_F(ConcurrencyStressTest, ZoneMapSkipsStayExactUnderLifecycleChurn) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE zr (v BIGINT)").ok());
  const std::size_t kRows = 3 * kZoneMapBlockRows;  // 3 full blocks.
  for (std::size_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(
        db_.InsertRow("zr", {Value::Int64(static_cast<std::int64_t>(i))})
            .ok());
  }
  ASSERT_TRUE(db_.Execute("ANALYZE zr").ok());
  ASSERT_TRUE(db_.MineZoneMaps("zr").ok());
  auto* zr_map = static_cast<ZoneMapSc*>(db_.scs().Find("zm_zr_v"));
  ASSERT_NE(zr_map, nullptr);
  ASSERT_TRUE(zr_map->IsAbsolute());

  // Writer-owned zone-mapped table, grown from empty through the
  // incremental append folds.
  ASSERT_TRUE(db_.Execute("CREATE TABLE z (v BIGINT NOT NULL)").ok());
  ASSERT_TRUE(db_.MineZoneMaps("z").ok());

  db_.options().num_threads = 2;
  db_.options().parallel_morsel_rows = 500;  // Morsels straddle blocks.

  struct Probe {
    const char* sql;
    std::size_t expected;
  };
  const Probe probes[] = {
      {"SELECT v FROM zr WHERE v BETWEEN 1024 AND 2047", kZoneMapBlockRows},
      {"SELECT v FROM zr WHERE v < 0", 0},
      {"SELECT v FROM zr WHERE v >= 3000", kRows - 3000},
      {"SELECT v FROM zr WHERE v IS NULL", 0},
  };

  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> reads_with_skips{0};

  auto reader = [&](int id) {
    for (int iter = 0; !done.load(std::memory_order_acquire); ++iter) {
      const Probe& probe = probes[(id + iter) % std::size(probes)];
      auto result = db_.Execute(probe.sql);
      if (!result.ok() || result->rows.NumRows() != probe.expected) {
        errors.fetch_add(1);
        ADD_FAILURE() << probe.sql << " -> "
                      << (result.ok()
                              ? "wrong count " +
                                    std::to_string(result->rows.NumRows())
                              : result.status().ToString());
        break;
      }
      reads.fetch_add(1);
      if (result->exec_stats.blocks_skipped > 0) reads_with_skips.fetch_add(1);
    }
  };

  auto writer = [&]() {
    for (int iter = 0; iter < 120; ++iter) {
      // Incremental growth of z's map: every append folds, and the count
      // is exact immediately (the pruning query never reads stale data).
      ASSERT_TRUE(db_.InsertRow("z", {Value::Int64(iter * 3)}).ok());
      auto all = db_.Execute("SELECT v FROM z WHERE v >= 0");
      ASSERT_TRUE(all.ok());
      EXPECT_EQ(all->rows.NumRows(), static_cast<std::size_t>(iter + 1));
      auto none = db_.Execute("SELECT v FROM z WHERE v < 0");
      ASSERT_TRUE(none.ok());
      EXPECT_EQ(none->rows.NumRows(), 0u);

      // Answer-preserving churn on the readers' map: loosen one block's
      // envelope (still a sound over-approximation of the static data)
      // and bump the epoch, so racing queries that consumed the map take
      // RunPlan's zone-map-free retry. Every 5th round re-verify (stays
      // absolute: the loose envelope has no violations) and re-mine the
      // exact bounds back.
      const auto blocks = zr_map->SnapshotBlocks();
      const std::size_t b = static_cast<std::size_t>(iter) % blocks.size();
      zr_map->CorruptBlockForTest(b, blocks[b].min - 50.0,
                                  blocks[b].max + 50.0,
                                  blocks[b].null_count + 3);
      zr_map->BumpEpoch();
      if (iter % 5 == 0) {
        ASSERT_TRUE(db_.scs().VerifyAll(db_.catalog()).ok());
        EXPECT_TRUE(zr_map->IsAbsolute());
        ASSERT_TRUE(zr_map->RepairFull(db_.catalog()).ok());
      }
    }
    done.store(true, std::memory_order_release);
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) threads.emplace_back(reader, i);
  std::thread writer_thread(writer);
  writer_thread.join();
  for (auto& t : threads) t.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(reads_with_skips.load(), 0u);

  // The world settles exact: re-mined tight envelopes, absolute, and the
  // skip accounting agrees with the block math on a final serial scan.
  ASSERT_TRUE(zr_map->RepairFull(db_.catalog()).ok());
  EXPECT_TRUE(zr_map->IsAbsolute());
  db_.options().num_threads = 1;
  db_.plan_cache().Clear();
  auto final_probe = db_.Execute(probes[0].sql);
  ASSERT_TRUE(final_probe.ok());
  EXPECT_EQ(final_probe->rows.NumRows(), probes[0].expected);
  EXPECT_EQ(final_probe->exec_stats.blocks_total, 3u);
  EXPECT_EQ(final_probe->exec_stats.blocks_skipped, 2u);
}

TEST_F(ConcurrencyStressTest, ParallelReadersShareOneScheduler) {
  // Many threads running morsel-parallel queries against one pool: the
  // scheduler's Run barrier must keep concurrent groups isolated.
  db_.options().num_threads = 4;
  db_.options().parallel_morsel_rows = 32;
  auto baseline = db_.Execute("SELECT a, b FROM r WHERE a < 80");
  ASSERT_TRUE(baseline.ok());
  const std::size_t expected = baseline->rows.NumRows();

  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 40; ++i) {
        auto result = db_.Execute("SELECT a, b FROM r WHERE a < 80");
        if (!result.ok() || result->rows.NumRows() != expected) {
          errors.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
}

// Serving-layer stress (DESIGN.md §15): N client sessions drive one shared
// engine through the SessionManager/Dispatcher — readers sweep SC-rewritten
// probes with exact-count assertions, writer sessions append to their own
// tables through the full served-DML path, and a maintenance thread injects
// synthetic SC violations plus repair drains underneath them all. The
// admission queue is sized so transient rejections (if any) heal inside the
// session retry loop; every statement must ultimately succeed.
TEST_F(ConcurrencyStressTest, SessionsRaceWritersAndRepairChurn) {
  db_.options().num_threads = 2;
  db_.options().parallel_morsel_rows = 64;
  ASSERT_TRUE(
      db_.Execute("CREATE TABLE w1 (x BIGINT NOT NULL, y BIGINT)").ok());
  ASSERT_TRUE(
      db_.Execute("CREATE TABLE w2 (x BIGINT NOT NULL, y BIGINT)").ok());

  struct Probe {
    std::string sql;
    std::size_t expected;
  };
  std::vector<Probe> probes;
  for (const char* sql :
       {"SELECT a, b FROM r WHERE b - a <= 5",
        "SELECT a FROM r WHERE a BETWEEN 10 AND 40",
        "SELECT a FROM r WHERE a < 50 AND b IS NOT NULL"}) {
    auto baseline = db_.Execute(sql);
    ASSERT_TRUE(baseline.ok()) << sql;
    probes.push_back(Probe{sql, baseline->rows.NumRows()});
  }

  ServerOptions options;
  options.worker_threads = 4;
  options.max_queue_depth = 256;
  options.high_water_depth = 240;
  options.retry.base_backoff = std::chrono::milliseconds(1);
  SessionManager server(&db_, options);

  constexpr int kWriterRounds = 60;
  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::atomic<std::uint64_t> served_reads{0};

  // Per-table single-writer contract holds: each writer session owns its
  // table, and a session's client issues statements sequentially.
  auto served_writer = [&](const std::string& table) {
    auto session = server.OpenSession("writer-" + table);
    ASSERT_TRUE(session.ok());
    for (int i = 0; i < kWriterRounds; ++i) {
      auto r = (*session)->Execute("INSERT INTO " + table + " VALUES (" +
                                   std::to_string(i) + ", " +
                                   std::to_string(i * 2) + ")");
      if (!r.ok()) {
        errors.fetch_add(1);
        ADD_FAILURE() << table << ": " << r.status().ToString();
        break;
      }
    }
  };

  auto served_reader = [&](int id) {
    auto session = server.OpenSession("reader-" + std::to_string(id));
    ASSERT_TRUE(session.ok());
    for (int iter = 0; !done.load(std::memory_order_acquire); ++iter) {
      const Probe& probe = probes[(id + iter) % probes.size()];
      auto result = (*session)->Execute(probe.sql);
      if (!result.ok() || result->rows.NumRows() != probe.expected) {
        errors.fetch_add(1);
        ADD_FAILURE() << probe.sql << " -> "
                      << (result.ok()
                              ? "wrong count " +
                                    std::to_string(result->rows.NumRows())
                              : result.status().ToString());
        break;
      }
      served_reads.fetch_add(1);
    }
  };

  // Maintenance churn runs beside the server, not through it: synthetic
  // violations flip/queue/decay r's SCs while served statements race.
  auto maintenance = [&]() {
    const std::vector<Value> violating{Value::Int64(50), Value::Int64(90)};
    const std::vector<Value> complying{Value::Int64(5), Value::Int64(9)};
    for (int iter = 0; iter < kWriterRounds; ++iter) {
      ASSERT_TRUE(db_.scs().OnInsert(db_.catalog(), "r", violating).ok());
      ASSERT_TRUE(db_.scs().OnInsert(db_.catalog(), "r", complying).ok());
      if (iter % 3 == 0) {
        ASSERT_TRUE(db_.RunMaintenance().ok());
      }
      if (iter % 5 == 0) {
        ASSERT_TRUE(db_.scs().VerifyAll(db_.catalog()).ok());
      }
    }
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) threads.emplace_back(served_reader, i);
  std::thread writer1(served_writer, "w1");
  std::thread writer2(served_writer, "w2");
  std::thread churn(maintenance);
  writer1.join();
  writer2.join();
  churn.join();
  done.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(served_reads.load(), 0u);

  // Drain is clean even after churn, and the served writes all landed.
  ASSERT_TRUE(server.Drain().ok());
  for (const char* table : {"w1", "w2"}) {
    auto rows = db_.Execute(std::string("SELECT x FROM ") + table);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->rows.NumRows(), static_cast<std::size_t>(kWriterRounds))
        << table;
  }
  EXPECT_EQ(server.stats().failed.load(), 0u);
  EXPECT_GE(server.stats().succeeded.load(),
            static_cast<std::uint64_t>(2 * kWriterRounds));
  // The world settles: every SC re-verifies absolute.
  ASSERT_TRUE(db_.scs().VerifyAll(db_.catalog()).ok());
  ASSERT_TRUE(db_.RunMaintenance().ok());
  for (const SoftConstraint* sc : db_.scs().All()) {
    EXPECT_TRUE(sc->active()) << sc->name();
  }
}

}  // namespace
}  // namespace softdb
