#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/sql.h"
#include "db/segment/snapshot.h"
#include "db/table.h"
#include "scratch_dir.h"
#include "transform/warehouse_io.h"

namespace mscope::db {
namespace {

namespace fs = std::filesystem;

Value iv(std::int64_t v) { return Value{v}; }
Value dv(double v) { return Value{v}; }
Value tv(std::string s) { return Value{std::move(s)}; }

/// Every cell of both tables, compared through the canonical string form.
void expect_tables_equal(const Table& a, const Table& b) {
  ASSERT_EQ(a.schema(), b.schema()) << a.name();
  ASSERT_EQ(a.row_count(), b.row_count()) << a.name();
  RowCursor ca = a.scan();
  RowCursor cb = b.scan();
  while (ca.next()) {
    ASSERT_TRUE(cb.next());
    for (std::size_t c = 0; c < a.column_count(); ++c) {
      EXPECT_EQ(value_to_string(ca.row()[c]), value_to_string(cb.row()[c]))
          << a.name() << "[" << ca.row_id() << "][" << c << "]";
    }
  }
  EXPECT_FALSE(cb.next());
}

/// The rows of `t` that `keep` accepts, as a table with t's schema: the
/// row-at-a-time oracle for the columnar scans.
Table filter_rows(const Table& t,
                  const std::function<bool(const Table::Row&)>& keep) {
  Table out(t.name(), t.schema());
  for (RowCursor cur = t.scan(); cur.next();) {
    if (keep(cur.row())) out.insert(cur.row());
  }
  return out;
}

TEST(SegmentStore, NullRunsInDeltaColumns) {
  // Long NULL runs inside a delta+varint Int column: the encoder emits
  // delta-0 for masked rows, so decode position must stay aligned with the
  // row index across runs longer than a directory block (128 rows).
  Table t("ev", {{"ts_usec", DataType::kInt}, {"v", DataType::kInt}});
  t.set_storage_config({.seal_rows = 64, .partition_usec = 0});
  std::vector<Value> expect;
  for (std::int64_t r = 0; r < 1000; ++r) {
    // NULL runs of length 150 alternating with value runs of length 50.
    const bool null_run = (r % 200) < 150;
    Value v = null_run ? Value{} : iv(r * 7 - 3000);
    expect.push_back(v);
    t.insert({iv(r), v});
  }
  ASSERT_GT(t.storage().segments().size(), 1u);
  // Sequential scan and random access agree with the inserted values.
  for (RowCursor cur = t.scan(); cur.next();) {
    EXPECT_EQ(compare(cur.row()[1], expect[cur.row_id()]), 0) << cur.row_id();
  }
  for (std::size_t r = 0; r < expect.size(); r += 37) {
    EXPECT_EQ(compare(t.at(r, 1), expect[r]), 0) << r;
  }
  // A leading NULL (no previous value to repeat) also round-trips.
  Table lead("ev2", {{"v", DataType::kInt}});
  lead.set_storage_config({.seal_rows = 2, .partition_usec = 0});
  lead.insert({Value{}});
  lead.insert({iv(42)});
  EXPECT_TRUE(is_null(lead.at(0, 0)));
  EXPECT_EQ(as_int(lead.at(1, 0)), 42);
}

TEST(SegmentStore, SealBoundaryOnWindowEdge) {
  // Rows straddling whole-second partition boundaries of the anchor column.
  // The seal policy must cut segments exactly at partition multiples, and
  // windows whose edges coincide with those boundaries must see exactly the
  // same rows as in a never-sealed table.
  const Schema schema{{"ts_usec", DataType::kInt}, {"v", DataType::kInt}};
  Database db;
  Table& sealed = db.create_table("sealed", schema);
  // seal_rows above the per-partition row count (40), so seals trim to the
  // partition boundary instead of taking the whole tail.
  sealed.set_storage_config({.seal_rows = 48, .partition_usec = 1'000'000});
  Table& flat = db.create_table("flat", schema);
  flat.set_storage_config({.seal_rows = 0});
  for (std::int64_t r = 0; r < 130; ++r) {
    // 40 rows per second; every 40th row lands exactly on the boundary.
    const std::int64_t ts = r * 25'000;
    sealed.insert({iv(ts), iv(r)});
    flat.insert({iv(ts), iv(r)});
  }
  ASSERT_GE(sealed.storage().segments().size(), 2u);
  // Every sealed segment ends strictly before a partition boundary that the
  // next segment starts at or after.
  for (const auto& seg : sealed.storage().segments()) {
    const auto last = as_int(seg.column(0).cell(seg.row_count() - 1));
    ASSERT_TRUE(last.has_value());
    const std::int64_t boundary = (*last / 1'000'000 + 1) * 1'000'000;
    const std::size_t next = seg.base_row() + seg.row_count();
    if (next < sealed.row_count()) {
      const auto first_after = as_int(sealed.at(next, 0));
      ASSERT_TRUE(first_after.has_value());
      EXPECT_GE(*first_after, boundary);
    }
  }

  // Per-second buckets whose edges are the partition boundaries: identical
  // on both layouts.
  const auto per_second = [&db](const std::string& table) {
    return Sql::execute(db, "SELECT BUCKET(ts_usec, 1000000), COUNT(*), "
                            "MAX(v) FROM " + table +
                                " GROUP BY BUCKET(ts_usec, 1000000)");
  };
  expect_tables_equal(per_second("sealed"), per_second("flat"));

  // time ranges with lo/hi exactly on a boundary: zone-map skipping must
  // not change the result (boundary row belongs to the upper partition).
  for (std::int64_t s = 0; s <= 3; ++s) {
    const auto lo = util::sec(s), hi = util::sec(s + 1);
    const std::string where = " WHERE ts_usec >= " + std::to_string(lo) +
                              " AND ts_usec < " + std::to_string(hi);
    const Table want = filter_rows(flat, [lo, hi](const Table::Row& row) {
      const auto t = as_int(row[0]);
      return t && *t >= lo && *t < hi;
    });
    expect_tables_equal(Sql::execute(db, "SELECT * FROM sealed" + where), want);
    expect_tables_equal(Sql::execute(db, "SELECT * FROM flat" + where), want);
  }
}

TEST(SegmentStore, ColumnarScanMatchesRowScan) {
  Database db;
  Table& t = db.create_table("ev", {{"ts_usec", DataType::kInt},
                                    {"url", DataType::kText},
                                    {"dur", DataType::kDouble}});
  t.set_storage_config({.seal_rows = 32, .partition_usec = 0});
  for (std::int64_t r = 0; r < 500; ++r) {
    t.insert({iv(r * 100), tv(r % 3 == 0 ? "/a" : "/b"),
              r % 7 == 0 ? Value{} : dv(static_cast<double>(r) * 0.5)});
  }
  ASSERT_GT(t.storage().sealed_row_count(), 0u);
  ASSERT_LT(t.storage().sealed_row_count(), t.row_count());  // a live tail

  expect_tables_equal(
      Sql::execute(db, "SELECT * FROM ev WHERE url = '/a'"),
      filter_rows(t, [](const Table::Row& row) {
        return as_text(row[1]) == "/a";
      }));
  expect_tables_equal(
      Sql::execute(db, "SELECT * FROM ev WHERE dur >= 10 AND dur < 100 "
                       "AND ts_usec = 4000"),
      filter_rows(t, [](const Table::Row& row) {
        const auto d = as_double(row[2]);
        return d && *d >= 10 && *d < 100 && as_int(row[0]) == 4000;
      }));
  // A filter value outside every zone map matches nothing (and must not
  // crash on the skip path).
  EXPECT_EQ(Sql::execute(db, "SELECT * FROM ev WHERE ts_usec = -5").row_count(),
            0u);
}

TEST(SegmentStore, WidenWithSealedSegments) {
  const Schema narrow{{"ts_usec", DataType::kInt},
                      {"v", DataType::kInt},
                      {"maybe", DataType::kNull}};
  Table t("ev", narrow);
  t.set_storage_config({.seal_rows = 16, .partition_usec = 0});
  for (std::int64_t r = 0; r < 100; ++r) {
    t.insert({iv(r), iv(r * 3), Value{}});
  }
  ASSERT_GE(t.storage().segments().size(), 2u);
  const std::size_t segs_before = t.storage().segments().size();

  // Exact widening: Int -> Double, all-NULL -> Text, one appended column.
  const Schema wider{{"ts_usec", DataType::kInt},
                     {"v", DataType::kDouble},
                     {"maybe", DataType::kText},
                     {"extra", DataType::kInt}};
  ASSERT_TRUE(t.try_widen(wider));
  EXPECT_EQ(t.schema(), wider);
  // Sealed segments stayed sealed — no rebuild.
  EXPECT_EQ(t.storage().segments().size(), segs_before);
  for (std::int64_t r = 0; r < 100; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    EXPECT_EQ(as_double(t.at(ri, 1)), static_cast<double>(r * 3));
    EXPECT_TRUE(is_null(t.at(ri, 2)));
    EXPECT_TRUE(is_null(t.at(ri, 3)));
  }
  // The widened table accepts rows of the new schema into sealed storage.
  t.insert({iv(100), dv(1.5), tv("x"), iv(9)});
  EXPECT_EQ(as_text(t.at(100, 2)), "x");

  // Inexact changes refuse and leave the table untouched: a populated Int
  // column cannot become Text ("042" -> 42 would lose the leading zero),
  // and column renames are not widenings.
  Table u("ev2", {{"a", DataType::kInt}});
  u.set_storage_config({.seal_rows = 4, .partition_usec = 0});
  for (std::int64_t r = 0; r < 10; ++r) u.insert({iv(r)});
  EXPECT_FALSE(u.try_widen({{"a", DataType::kText}}));
  EXPECT_FALSE(u.try_widen({{"b", DataType::kInt}}));
  EXPECT_FALSE(u.try_widen({{"b", DataType::kInt}, {"a", DataType::kInt}}));
  EXPECT_EQ(u.schema(), (Schema{{"a", DataType::kInt}}));
  EXPECT_EQ(as_int(u.at(7, 0)), 7);
}

TEST(SegmentStore, SnapshotRoundTripMatchesCsv) {
  // One warehouse saved as a snapshot; every reloaded table must equal the
  // original cell for cell, including NULL positions.
  db::Database db;
  auto& ev = db.create_table("ev_apache_web1", {{"ts_usec", DataType::kInt},
                                                {"url", DataType::kText},
                                                {"dur", DataType::kDouble}});
  ev.set_storage_config({.seal_rows = 32, .partition_usec = 0});
  for (std::int64_t r = 0; r < 300; ++r) {
    ev.insert({r % 11 == 0 ? Value{} : iv(r * 1000),
               r % 5 == 0 ? Value{} : tv("/servlet/" + std::to_string(r % 4)),
               r % 3 == 0 ? Value{} : dv(static_cast<double>(r) / 3.0)});
  }
  db.record_node("web1", "apache", 2);
  db.record_load("web1/access.log", "ev_apache_web1", 300, 0, 299'000);

  const test::ScratchDir dir("segment");
  const fs::path& base = dir.path();
  transform::WarehouseIO::save_snapshot(db, base / "bin");
  EXPECT_TRUE(fs::exists(base / "bin" / "ev_apache_web1.mseg"));

  db::Database from_bin;
  const auto loaded =
      transform::WarehouseIO::load_snapshot(from_bin, base / "bin");
  EXPECT_EQ(loaded.size(), db.table_names().size());
  ASSERT_EQ(from_bin.table_names(), db.table_names());
  for (const auto& name : db.table_names()) {
    expect_tables_equal(from_bin.get(name), db.get(name));
  }

  // Version check: a bumped version byte is rejected, not misread.
  std::ostringstream out;
  segment::write_table(out, ev);
  std::string bytes = out.str();
  ASSERT_GT(bytes.size(), 5u);
  bytes[4] = static_cast<char>(segment::kSnapshotVersion + 1);
  std::istringstream in(bytes);
  EXPECT_THROW((void)segment::read_table(in), std::runtime_error);
}

TEST(SegmentStore, ClearReleasesMemory) {
  Table t("ev", {{"ts_usec", DataType::kInt}, {"s", DataType::kText}});
  for (std::int64_t r = 0; r < 20'000; ++r) {
    t.insert({iv(r), tv("payload_" + std::to_string(r % 100))});
  }
  const std::size_t loaded = t.storage().byte_size();
  ASSERT_GT(loaded, 100'000u);
  t.clear();
  EXPECT_EQ(t.row_count(), 0u);
  // clear() must swap storage away, not just .clear() the vectors.
  EXPECT_LT(t.storage().byte_size(), 1024u);
  // The table is immediately reusable.
  t.insert({iv(1), tv("x")});
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_EQ(as_text(t.at(0, 1)), "x");
}

}  // namespace
}  // namespace mscope::db
