// Block zone maps as a skippable SC class (DESIGN.md §10): mining, the
// plan-time skip sets, incremental widen-only DML folding, the epoch
// protocol on out-of-envelope updates, and detection + repair of corrupted
// maps through the standard VerifyAll / RepairFull machinery.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "constraints/zone_map_sc.h"
#include "engine/softdb.h"
#include "storage/table.h"

namespace softdb {
namespace {

// Four full 1024-row blocks of clustered data: v = row id (so block b's
// envelope is exactly [1024b, 1024b + 1023]), w is NULL throughout block 0
// and non-NULL elsewhere, s is a string column (never zone-mapped).
class ZoneMapTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kRows = 4 * kZoneMapBlockRows;

  void SetUp() override {
    ASSERT_TRUE(
        db_.Execute("CREATE TABLE m (v BIGINT NOT NULL, w DOUBLE, s VARCHAR)")
            .ok());
    for (std::size_t i = 0; i < kRows; ++i) {
      std::vector<Value> row;
      row.push_back(Value::Int64(static_cast<std::int64_t>(i)));
      row.push_back(i < kZoneMapBlockRows
                        ? Value::Null()
                        : Value::Double(static_cast<double>(i) * 0.5));
      row.push_back(Value::String(i % 2 == 0 ? "even" : "odd"));
      ASSERT_TRUE(db_.InsertRow("m", row).ok());
    }
    ASSERT_TRUE(db_.Execute("ANALYZE m").ok());
    ASSERT_TRUE(db_.MineZoneMaps("m").ok());
  }

  ZoneMapSc* Map(const std::string& name) {
    SoftConstraint* sc = db_.scs().Find(name);
    EXPECT_NE(sc, nullptr) << name;
    EXPECT_EQ(sc->kind(), ScKind::kBlockZoneMap) << name;
    return static_cast<ZoneMapSc*>(sc);
  }

  QueryResult Run(const std::string& sql) {
    db_.plan_cache().Clear();
    auto result = db_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  SoftDb db_;
};

TEST_F(ZoneMapTest, MiningBuildsTightPerBlockEnvelopes) {
  ZoneMapSc* v = Map("zm_m_v");
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->IsAbsolute());
  const auto blocks = v->SnapshotBlocks();
  ASSERT_EQ(blocks.size(), 4u);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    EXPECT_TRUE(blocks[b].has_value);
    EXPECT_EQ(blocks[b].min, static_cast<double>(b * kZoneMapBlockRows));
    EXPECT_EQ(blocks[b].max,
              static_cast<double>(b * kZoneMapBlockRows +
                                  kZoneMapBlockRows - 1));
    EXPECT_EQ(blocks[b].null_count, 0u);
  }

  const auto w_blocks = Map("zm_m_w")->SnapshotBlocks();
  ASSERT_EQ(w_blocks.size(), 4u);
  EXPECT_FALSE(w_blocks[0].has_value);  // Block 0 of w is all NULL.
  EXPECT_EQ(w_blocks[0].null_count, kZoneMapBlockRows);
  for (std::size_t b = 1; b < 4; ++b) {
    EXPECT_TRUE(w_blocks[b].has_value);
    EXPECT_EQ(w_blocks[b].null_count, 0u);
  }

  // VARCHAR columns are never zone-mapped.
  EXPECT_EQ(db_.scs().Find("zm_m_s"), nullptr);
}

TEST_F(ZoneMapTest, SelectiveScanSkipsNonMatchingBlocks) {
  const QueryResult r = Run("SELECT * FROM m WHERE v BETWEEN 2048 AND 2100");
  EXPECT_EQ(r.rows.NumRows(), 53u);
  EXPECT_EQ(r.exec_stats.blocks_total, 4u);
  EXPECT_EQ(r.exec_stats.blocks_skipped, 3u);  // Only block 2 overlaps.
  // Skipped blocks are never touched: the scan reads one block's rows.
  EXPECT_EQ(r.exec_stats.rows_scanned, kZoneMapBlockRows);

  // Identical answer with zone maps off, at full scan cost.
  db_.options().enable_zone_maps = false;
  const QueryResult off = Run("SELECT * FROM m WHERE v BETWEEN 2048 AND 2100");
  EXPECT_EQ(off.rows.NumRows(), 53u);
  EXPECT_EQ(off.exec_stats.blocks_total, 0u);
  EXPECT_EQ(off.exec_stats.blocks_skipped, 0u);
  EXPECT_EQ(off.exec_stats.rows_scanned, kRows);
  db_.options().enable_zone_maps = true;

  // A contradiction with every envelope skips the whole table.
  const QueryResult none = Run("SELECT * FROM m WHERE v > 99999999");
  EXPECT_EQ(none.rows.NumRows(), 0u);
  EXPECT_EQ(none.exec_stats.blocks_skipped, 4u);
  EXPECT_EQ(none.exec_stats.rows_scanned, 0u);
}

TEST_F(ZoneMapTest, NullCountAndHasValuePruning) {
  // Blocks 1..3 carry null_count == 0, so `w IS NULL` only reads block 0.
  const QueryResult nulls = Run("SELECT * FROM m WHERE w IS NULL");
  EXPECT_EQ(nulls.rows.NumRows(), kZoneMapBlockRows);
  EXPECT_EQ(nulls.exec_stats.blocks_skipped, 3u);

  // Block 0 of w has no value at all, so any comparison on w prunes it.
  const QueryResult cmp = Run("SELECT * FROM m WHERE w >= 0");
  EXPECT_EQ(cmp.rows.NumRows(), kRows - kZoneMapBlockRows);
  EXPECT_EQ(cmp.exec_stats.blocks_skipped, 1u);

  // ... and so does IS NOT NULL.
  const QueryResult notnull = Run("SELECT * FROM m WHERE w IS NOT NULL");
  EXPECT_EQ(notnull.rows.NumRows(), kRows - kZoneMapBlockRows);
  EXPECT_EQ(notnull.exec_stats.blocks_skipped, 1u);
}

TEST_F(ZoneMapTest, ErrorReachablePredicateDisablesSkippingForTheScan) {
  // The arithmetic conjunct could (in general) raise, so no block of this
  // scan may be skipped even though `v > 99999999` alone prunes them all:
  // a skipped block would silently swallow the error evaluation
  // raises. The scan falls back to reading everything.
  const QueryResult r =
      Run("SELECT * FROM m WHERE v > 99999999 AND v + 1 > 0");
  EXPECT_EQ(r.rows.NumRows(), 0u);
  EXPECT_EQ(r.exec_stats.blocks_total, 0u);
  EXPECT_EQ(r.exec_stats.blocks_skipped, 0u);
  EXPECT_EQ(r.exec_stats.rows_scanned, kRows);
}

TEST_F(ZoneMapTest, SkipsAreAttributedThroughRecordScUse) {
  const std::uint64_t before = db_.scs().UseCount("zm_m_v");
  const double benefit_before = db_.scs().TotalBenefit("zm_m_v");
  Run("SELECT * FROM m WHERE v < 100");
  EXPECT_EQ(db_.scs().UseCount("zm_m_v"), before + 1);
  EXPECT_GT(db_.scs().TotalBenefit("zm_m_v"), benefit_before);
  // A scan the map cannot help is not billed as a use.
  Run("SELECT * FROM m WHERE s = 'even'");
  EXPECT_EQ(db_.scs().UseCount("zm_m_v"), before + 1);
}

TEST_F(ZoneMapTest, AppendsWidenIncrementallyWithoutEpochBump) {
  ZoneMapSc* v = Map("zm_m_v");
  const std::uint64_t epoch0 = v->epoch();

  // Appending starts block 4; the envelope grows, the epoch does not (a
  // loosened envelope cannot invalidate an in-flight skip decision).
  ASSERT_TRUE(db_.Execute("INSERT INTO m VALUES (999999, 1.5, 'big')").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO m VALUES (-7, NULL, 'neg')").ok());
  EXPECT_EQ(v->epoch(), epoch0);
  EXPECT_TRUE(v->IsAbsolute());

  const auto blocks = v->SnapshotBlocks();
  ASSERT_EQ(blocks.size(), 5u);
  EXPECT_EQ(blocks[4].min, -7.0);
  EXPECT_EQ(blocks[4].max, 999999.0);
  EXPECT_EQ(blocks[4].null_count, 0u);
  EXPECT_EQ(Map("zm_m_w")->SnapshotBlocks()[4].null_count, 1u);

  // The freshly appended rows are found; old blocks still prune.
  const QueryResult r = Run("SELECT * FROM m WHERE v > 100000");
  EXPECT_EQ(r.rows.NumRows(), 1u);
  EXPECT_EQ(r.exec_stats.blocks_total, 5u);
  EXPECT_EQ(r.exec_stats.blocks_skipped, 4u);
}

TEST_F(ZoneMapTest, OutOfEnvelopeUpdateWidensAndBumpsEpoch) {
  ZoneMapSc* v = Map("zm_m_v");
  const std::uint64_t epoch0 = v->epoch();

  // Out-of-envelope update: widen + epoch bump (in-flight skip sets that
  // consumed this map are now stale; RunPlan degrades them once).
  ASSERT_TRUE(db_.Execute("UPDATE m SET v = 500000 WHERE v = 10").ok());
  EXPECT_GT(v->epoch(), epoch0);
  EXPECT_TRUE(v->IsAbsolute());  // Still sound: widen-only.
  const auto blocks = v->SnapshotBlocks();
  EXPECT_EQ(blocks[0].max, 500000.0);
  const QueryResult r = Run("SELECT * FROM m WHERE v = 500000");
  EXPECT_EQ(r.rows.NumRows(), 1u);
  EXPECT_EQ(r.exec_stats.blocks_skipped, 3u);  // Blocks 1..3 still prune.

  // In-envelope update: no widening, no epoch bump.
  const std::uint64_t epoch1 = v->epoch();
  ASSERT_TRUE(db_.Execute("UPDATE m SET v = 11 WHERE v = 500000").ok());
  EXPECT_EQ(v->epoch(), epoch1);

  // NULL transition on w raises the block's null bound and bumps w's map.
  ZoneMapSc* w = Map("zm_m_w");
  const std::uint64_t w_epoch = w->epoch();
  const std::uint64_t nulls1 = w->SnapshotBlocks()[1].null_count;
  ASSERT_TRUE(db_.Execute("UPDATE m SET w = NULL WHERE v = 1500").ok());
  EXPECT_GT(w->epoch(), w_epoch);
  EXPECT_EQ(w->SnapshotBlocks()[1].null_count, nulls1 + 1);
  const QueryResult nr = Run("SELECT * FROM m WHERE w IS NULL");
  EXPECT_EQ(nr.rows.NumRows(), kZoneMapBlockRows + 1);
}

TEST_F(ZoneMapTest, MidQueryWideningDegradesOnceToTheBackup) {
  const std::string sql = "SELECT * FROM m WHERE v BETWEEN 2048 AND 2100";
  Failpoints& fp = Failpoints::Instance();
  Failpoints::Policy once;
  once.trigger = Failpoints::Trigger::kAlways;
  // Before the first output row, an out-of-envelope UPDATE moves a row of
  // a block the running plan skips into the queried range: the map widens
  // and bumps its epoch, so the plan's skip set is stale. The guard must
  // notice and re-run the SC-free backup, without zone maps, exactly once.
  const auto move_into_range = [&](const std::string& update) {
    fp.Enable("exec.drain", once);
    fp.SetAction("exec.drain", [&fp, this, update] {
      fp.Disable("exec.drain");
      EXPECT_TRUE(db_.Execute(update).ok()) << update;
    });
  };

  move_into_range("UPDATE m SET v = 2050 WHERE v = 10");
  const QueryResult fresh = Run(sql);
  EXPECT_FALSE(fresh.from_plan_cache);
  EXPECT_EQ(fresh.rows.NumRows(), 54u);  // 2048..2100 plus the moved row.
  EXPECT_EQ(fresh.exec_stats.degraded_retries, 1u);
  EXPECT_TRUE(fresh.used_backup_plan);
  EXPECT_EQ(fresh.exec_stats.blocks_total, 0u);  // Zone maps off.
  EXPECT_EQ(fresh.exec_stats.rows_scanned, kRows);

  // The same on a cache hit: block 0 now reaches 2050, so moving another
  // of its rows to 2051 widens it again.
  move_into_range("UPDATE m SET v = 2051 WHERE v = 11");
  auto hit = db_.Execute(sql);
  fp.DisableAll();
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_TRUE(hit->from_plan_cache);
  EXPECT_EQ(hit->rows.NumRows(), 55u);
  EXPECT_EQ(hit->exec_stats.degraded_retries, 1u);
  EXPECT_TRUE(hit->used_backup_plan);

  // Nothing moves during a clean run: the primary with its skips again.
  const QueryResult clean = Run(sql);
  EXPECT_EQ(clean.rows.NumRows(), 55u);
  EXPECT_EQ(clean.exec_stats.degraded_retries, 0u);
  EXPECT_FALSE(clean.used_backup_plan);
  EXPECT_EQ(clean.exec_stats.blocks_skipped, 2u);  // Blocks 1 and 3.
}

TEST_F(ZoneMapTest, DeletesLeaveTheEnvelopeLoose) {
  ZoneMapSc* v = Map("zm_m_v");
  const std::uint64_t epoch0 = v->epoch();
  ASSERT_TRUE(db_.Execute("DELETE FROM m WHERE v >= 1024 AND v < 2048").ok());
  // The envelope just stays loose: no epoch bump, still absolute, and the
  // (now row-free) block is simply scanned to no effect.
  EXPECT_EQ(v->epoch(), epoch0);
  EXPECT_TRUE(v->IsAbsolute());
  const QueryResult r = Run("SELECT * FROM m WHERE v BETWEEN 1024 AND 2047");
  EXPECT_EQ(r.rows.NumRows(), 0u);
  EXPECT_EQ(r.exec_stats.blocks_skipped, 3u);
}

TEST_F(ZoneMapTest, CorruptedMapIsCaughtByVerifyAndRepairedExactly) {
  ZoneMapSc* v = Map("zm_m_v");
  // Seed a lying envelope for block 0 (claims [5000, 6000], excludes every
  // actual value 0..1023). The map still *claims* to be absolute.
  v->CorruptBlockForTest(0, 5000.0, 6000.0, 0);
  EXPECT_TRUE(v->IsAbsolute());

  // Verification recounts the invariant against the data and demotes.
  ASSERT_TRUE(db_.scs().VerifyAll(db_.catalog()).ok());
  EXPECT_FALSE(v->IsAbsolute());
  EXPECT_LT(v->confidence(), 1.0);

  // A demoted map is no longer consulted: the scan reads everything and
  // the answer is right despite the corrupt envelope.
  const QueryResult r = Run("SELECT * FROM m WHERE v < 100");
  EXPECT_EQ(r.rows.NumRows(), 100u);
  EXPECT_EQ(r.exec_stats.blocks_total, 0u);

  // Exact repair re-mines the aggregates and re-arms the map.
  ASSERT_TRUE(v->RepairFull(db_.catalog()).ok());
  EXPECT_TRUE(v->IsAbsolute());
  const auto blocks = v->SnapshotBlocks();
  EXPECT_EQ(blocks[0].min, 0.0);
  EXPECT_EQ(blocks[0].max, static_cast<double>(kZoneMapBlockRows - 1));
  const QueryResult fixed = Run("SELECT * FROM m WHERE v < 100");
  EXPECT_EQ(fixed.rows.NumRows(), 100u);
  EXPECT_EQ(fixed.exec_stats.blocks_skipped, 3u);
}

TEST_F(ZoneMapTest, AllEnginesAgreeOnSkipsIncludingStraddlingMorsels) {
  const std::string sql = "SELECT * FROM m WHERE v BETWEEN 1000 AND 1100";

  const QueryResult serial = Run(sql);

  // Morsels of 500 slots straddle 1024-row block boundaries, exercising
  // the per-row drop path in SeqScanOp (a straddling batch keeps its
  // non-skipped rows only).
  db_.options().num_threads = 8;
  db_.options().parallel_morsel_rows = 500;
  const QueryResult parallel = Run(sql);
  db_.options().num_threads = 1;
  db_.options().parallel_morsel_rows = 4096;

  for (const QueryResult* r : {&serial, &parallel}) {
    EXPECT_EQ(r->rows.NumRows(), 101u);
    EXPECT_EQ(r->exec_stats.blocks_total, 4u);
    EXPECT_EQ(r->exec_stats.blocks_skipped, 2u);  // Blocks 2 and 3.
    EXPECT_EQ(r->exec_stats.rows_scanned, 2 * kZoneMapBlockRows);
    EXPECT_EQ(r->exec_stats.rows_emitted, 101u);
  }
  EXPECT_GT(parallel.exec_stats.morsels, 1u);
  for (std::size_t i = 0; i < serial.rows.NumRows(); ++i) {
    ASSERT_EQ(serial.rows.rows[i][0].ToString(),
              parallel.rows.rows[i][0].ToString());
  }
}

TEST_F(ZoneMapTest, MineZoneMapsIsIdempotentAndDescribes) {
  ASSERT_TRUE(db_.MineZoneMaps("m").ok());  // Existing maps left alone.
  ZoneMapSc* v = Map("zm_m_v");
  ASSERT_EQ(v->SnapshotBlocks().size(), 4u);
  const std::string desc = v->Describe();
  EXPECT_NE(desc.find("BLOCK ZONE MAP"), std::string::npos) << desc;
  EXPECT_NE(desc.find("4 blocks"), std::string::npos) << desc;
}

}  // namespace
}  // namespace softdb
