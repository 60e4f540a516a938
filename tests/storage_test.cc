#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "storage/catalog.h"
#include "storage/index.h"
#include "storage/table.h"

namespace softdb {
namespace {

Schema TwoColSchema() {
  Schema s;
  s.AddColumn({"id", TypeId::kInt64, false, "t"});
  s.AddColumn({"name", TypeId::kString, true, "t"});
  return s;
}

// ----------------------------------------------------------------- Schema

TEST(SchemaTest, ResolveUnqualified) {
  Schema s = TwoColSchema();
  EXPECT_EQ(*s.Resolve("id"), 0u);
  EXPECT_EQ(*s.Resolve("name"), 1u);
}

TEST(SchemaTest, ResolveQualified) {
  Schema s = TwoColSchema();
  EXPECT_EQ(*s.Resolve("t.id"), 0u);
  EXPECT_FALSE(s.Resolve("other.id").ok());
}

TEST(SchemaTest, ResolveIsCaseInsensitive) {
  Schema s = TwoColSchema();
  EXPECT_EQ(*s.Resolve("ID"), 0u);
  EXPECT_EQ(*s.Resolve("T.Name"), 1u);
}

TEST(SchemaTest, AmbiguityDetected) {
  Schema s;
  s.AddColumn({"id", TypeId::kInt64, false, "a"});
  s.AddColumn({"id", TypeId::kInt64, false, "b"});
  EXPECT_FALSE(s.Resolve("id").ok());
  EXPECT_EQ(*s.Resolve("a.id"), 0u);
  EXPECT_EQ(*s.Resolve("b.id"), 1u);
}

TEST(SchemaTest, ConcatKeepsQualifiers) {
  Schema joined = Schema::Concat(TwoColSchema(), TwoColSchema());
  EXPECT_EQ(joined.NumColumns(), 4u);
  EXPECT_FALSE(joined.Resolve("id").ok());  // Now ambiguous.
}

// ----------------------------------------------------------- ColumnVector

TEST(ColumnVectorTest, IntTypesShareBuffer) {
  ColumnVector col(TypeId::kDate);
  ASSERT_TRUE(col.Append(Value::Date(100)).ok());
  ASSERT_TRUE(col.Append(Value::Int64(200)).ok());  // Int widens into date.
  EXPECT_EQ(col.Get(0).type(), TypeId::kDate);
  EXPECT_EQ(col.Get(1).AsInt64(), 200);
}

TEST(ColumnVectorTest, RejectsWrongFamily) {
  ColumnVector col(TypeId::kInt64);
  EXPECT_FALSE(col.Append(Value::String("oops")).ok());
  EXPECT_EQ(col.size(), 0u);  // Failed append leaves no residue.
}

TEST(ColumnVectorTest, NullsTracked) {
  ColumnVector col(TypeId::kDouble);
  ASSERT_TRUE(col.Append(Value::Null()).ok());
  ASSERT_TRUE(col.Append(Value::Double(1.5)).ok());
  EXPECT_TRUE(col.IsNull(0));
  EXPECT_FALSE(col.IsNull(1));
  EXPECT_TRUE(col.Get(0).is_null());
}

TEST(ColumnVectorTest, SetOverwrites) {
  ColumnVector col(TypeId::kInt64);
  ASSERT_TRUE(col.Append(Value::Int64(1)).ok());
  ASSERT_TRUE(col.Set(0, Value::Int64(9)).ok());
  EXPECT_EQ(col.Get(0).AsInt64(), 9);
  ASSERT_TRUE(col.Set(0, Value::Null()).ok());
  EXPECT_TRUE(col.IsNull(0));
  EXPECT_FALSE(col.Set(5, Value::Int64(0)).ok());
}

// ------------------------------------------------------------------ Table

TEST(TableTest, AppendAndRead) {
  Table t("t", TwoColSchema());
  auto rid = t.Append({Value::Int64(1), Value::String("a")});
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(*rid, 0u);
  EXPECT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.Get(0, 1).AsString(), "a");
}

TEST(TableTest, ArityMismatchRejected) {
  Table t("t", TwoColSchema());
  EXPECT_FALSE(t.Append({Value::Int64(1)}).ok());
}

TEST(TableTest, NotNullEnforcedBySchema) {
  Table t("t", TwoColSchema());
  EXPECT_FALSE(t.Append({Value::Null(), Value::String("x")}).ok());
  EXPECT_TRUE(t.Append({Value::Int64(1), Value::Null()}).ok());
}

TEST(TableTest, TypeErrorLeavesColumnsConsistent) {
  Table t("t", TwoColSchema());
  EXPECT_FALSE(t.Append({Value::String("bad"), Value::String("x")}).ok());
  EXPECT_EQ(t.NumRows(), 0u);
  ASSERT_TRUE(t.Append({Value::Int64(1), Value::String("x")}).ok());
  EXPECT_EQ(t.NumRows(), 1u);
}

TEST(TableTest, DeleteIsTombstone) {
  Table t("t", TwoColSchema());
  ASSERT_TRUE(t.Append({Value::Int64(1), Value::String("a")}).ok());
  ASSERT_TRUE(t.Append({Value::Int64(2), Value::String("b")}).ok());
  ASSERT_TRUE(t.Delete(0).ok());
  EXPECT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.NumSlots(), 2u);
  EXPECT_FALSE(t.IsLive(0));
  EXPECT_TRUE(t.IsLive(1));
  // Row ids are never reused.
  auto rid = t.Append({Value::Int64(3), Value::String("c")});
  EXPECT_EQ(*rid, 2u);
}

TEST(TableTest, VersionTracksMutations) {
  Table t("t", TwoColSchema());
  const std::uint64_t v0 = t.version();
  ASSERT_TRUE(t.Append({Value::Int64(1), Value::String("a")}).ok());
  ASSERT_TRUE(t.Set(0, 1, Value::String("z")).ok());
  ASSERT_TRUE(t.Delete(0).ok());
  EXPECT_EQ(t.MutationsSince(v0), 3u);
}

TEST(TableTest, PageAccounting) {
  Table t("t", TwoColSchema());
  for (int i = 0; i < static_cast<int>(kRowsPerPage) + 1; ++i) {
    ASSERT_TRUE(t.Append({Value::Int64(i), Value::Null()}).ok());
  }
  EXPECT_EQ(t.NumPages(), 2u);
}

// ------------------------------------------------------------------ Index

class IndexTest : public ::testing::Test {
 protected:
  IndexTest() : table_("t", TwoColSchema()) {
    for (int i = 0; i < 100; ++i) {
      // Keys inserted in reverse so the index must sort.
      EXPECT_TRUE(
          table_.Append({Value::Int64(99 - i), Value::Null()}).ok());
    }
  }
  Table table_;
};

TEST_F(IndexTest, RangeScanInclusive) {
  Index idx("i", &table_, 0);
  auto rows = idx.RangeScan(Value::Int64(10), true, Value::Int64(20), true);
  EXPECT_EQ(rows.size(), 11u);
  // Results come back in key order.
  EXPECT_EQ(table_.Get(rows.front(), 0).AsInt64(), 10);
  EXPECT_EQ(table_.Get(rows.back(), 0).AsInt64(), 20);
}

TEST_F(IndexTest, RangeScanExclusiveBounds) {
  Index idx("i", &table_, 0);
  auto rows = idx.RangeScan(Value::Int64(10), false, Value::Int64(20), false);
  EXPECT_EQ(rows.size(), 9u);
}

TEST_F(IndexTest, UnboundedScans) {
  Index idx("i", &table_, 0);
  EXPECT_EQ(idx.RangeScan(std::nullopt, true, std::nullopt, true).size(),
            100u);
  EXPECT_EQ(idx.RangeScan(Value::Int64(95), true, std::nullopt, true).size(),
            5u);
  EXPECT_EQ(idx.RangeScan(std::nullopt, true, Value::Int64(4), true).size(),
            5u);
}

TEST_F(IndexTest, MinMaxKeys) {
  Index idx("i", &table_, 0);
  EXPECT_EQ(idx.MinKey()->AsInt64(), 0);
  EXPECT_EQ(idx.MaxKey()->AsInt64(), 99);
}

TEST_F(IndexTest, InsertAndRemoveMaintainOrder) {
  Index idx("i", &table_, 0);
  auto rid = table_.Append({Value::Int64(1000), Value::Null()});
  ASSERT_TRUE(idx.Insert(Value::Int64(1000), *rid).ok());
  EXPECT_EQ(idx.MaxKey()->AsInt64(), 1000);
  ASSERT_TRUE(idx.Remove(Value::Int64(1000), *rid).ok());
  EXPECT_EQ(idx.MaxKey()->AsInt64(), 99);
  EXPECT_FALSE(idx.Remove(Value::Int64(1000), *rid).ok());
}

TEST_F(IndexTest, DeletedRowsSkipped) {
  Index idx("i", &table_, 0);
  // Key 15 was inserted as row 99-15=84.
  ASSERT_TRUE(table_.Delete(84).ok());
  auto rows = idx.RangeScan(Value::Int64(15), true, Value::Int64(15), true);
  EXPECT_TRUE(rows.empty());
}

TEST_F(IndexTest, NullKeysSkipped) {
  Table t("t2", TwoColSchema());
  ASSERT_TRUE(t.Append({Value::Int64(1), Value::String("x")}).ok());
  Index idx("i2", &t, 1);
  ASSERT_TRUE(t.Append({Value::Int64(2), Value::Null()}).ok());
  ASSERT_TRUE(idx.Insert(Value::Null(), 1).ok());  // Silently skipped.
  EXPECT_EQ(idx.NumEntries(), 1u);
}

TEST(IndexDensityTest, ClusteredVsRandom) {
  Schema s;
  s.AddColumn({"v", TypeId::kInt64, false, "t"});
  Table clustered("c", s);
  Table random("r", s);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(clustered.Append({Value::Int64(i)}).ok());
    ASSERT_TRUE(random.Append({Value::Int64((i * 7919) % 1000)}).ok());
  }
  Index ci("ci", &clustered, 0);
  Index ri("ri", &random, 0);
  EXPECT_LT(ci.PageSwitchDensity(), 0.05);   // ~1/64.
  EXPECT_GT(ri.PageSwitchDensity(), 0.5);    // Nearly one page per row.
}

TEST(IndexDensityTest, IncrementalCountMatchesFullRecount) {
  Schema s;
  s.AddColumn({"v", TypeId::kInt64, false, "t"});
  Table t("t", s);
  Index idx("i", &t, 0);
  std::mt19937 rng(20011);
  std::vector<RowId> live;
  for (int step = 0; step < 1500; ++step) {
    const Value key = Value::Int64(static_cast<std::int64_t>(rng() % 500));
    const unsigned op = live.empty() ? 0 : rng() % 4;
    if (op <= 1) {  // INSERT.
      auto rid = t.Append({key});
      ASSERT_TRUE(rid.ok());
      ASSERT_TRUE(idx.Insert(key, *rid).ok());
      live.push_back(*rid);
    } else {
      const std::size_t pick = rng() % live.size();
      const RowId rid = live[pick];
      ASSERT_TRUE(idx.Remove(t.Get(rid, 0), rid).ok());
      if (op == 2) {  // DELETE.
        ASSERT_TRUE(t.Delete(rid).ok());
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {  // UPDATE: same entry count, different neighbours.
        ASSERT_TRUE(t.Set(rid, 0, key).ok());
        ASSERT_TRUE(idx.Insert(key, rid).ok());
      }
    }
    const Index recount("r", &t, 0);
    ASSERT_EQ(idx.NumEntries(), recount.NumEntries()) << step;
    ASSERT_EQ(idx.PageSwitchDensity(), recount.PageSwitchDensity()) << step;
  }
}

// ---------------------------------------------------------------- Catalog

TEST(CatalogTest, CreateGetDrop) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable("Foo", TwoColSchema()).ok());
  EXPECT_TRUE(cat.HasTable("foo"));
  EXPECT_TRUE(cat.HasTable("FOO"));  // Case-insensitive.
  EXPECT_FALSE(cat.CreateTable("foo", TwoColSchema()).ok());
  ASSERT_TRUE(cat.GetTable("foo").ok());
  ASSERT_TRUE(cat.DropTable("foo").ok());
  EXPECT_FALSE(cat.HasTable("foo"));
  EXPECT_FALSE(cat.DropTable("foo").ok());
}

TEST(CatalogTest, QualifiersStampedOnCreate) {
  Catalog cat;
  Table* t = *cat.CreateTable("orders", TwoColSchema());
  EXPECT_EQ(t->schema().Column(0).table, "orders");
}

TEST(CatalogTest, IndexLifecycle) {
  Catalog cat;
  Table* t = *cat.CreateTable("t", TwoColSchema());
  ASSERT_TRUE(t->Append({Value::Int64(5), Value::Null()}).ok());
  ASSERT_TRUE(cat.CreateIndex("idx", "t", "id").ok());
  EXPECT_FALSE(cat.CreateIndex("idx", "t", "id").ok());  // Duplicate name.
  EXPECT_NE(cat.FindIndex("t", "id"), nullptr);
  EXPECT_EQ(cat.FindIndex("t", "name"), nullptr);
  EXPECT_EQ(cat.IndexesOn("t").size(), 1u);
}

TEST(CatalogTest, NotifyKeepsIndexesInSync) {
  Catalog cat;
  Table* t = *cat.CreateTable("t", TwoColSchema());
  ASSERT_TRUE(cat.CreateIndex("idx", "t", "id").ok());
  auto rid = t->Append({Value::Int64(7), Value::Null()});
  cat.NotifyInsert(t, *rid);
  Index* idx = cat.FindIndex("t", "id");
  EXPECT_EQ(idx->NumEntries(), 1u);

  cat.NotifyUpdate(t, *rid, 0, Value::Int64(7), Value::Int64(8));
  ASSERT_TRUE(t->Set(*rid, 0, Value::Int64(8)).ok());
  EXPECT_EQ(idx->MinKey()->AsInt64(), 8);

  std::vector<Value> old_row = t->GetRow(*rid);
  ASSERT_TRUE(t->Delete(*rid).ok());
  cat.NotifyDelete(t, *rid, old_row);
  EXPECT_EQ(idx->NumEntries(), 0u);
}

}  // namespace
}  // namespace softdb
