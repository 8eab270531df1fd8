// Property tests of the TimeIndex and the mScopeSQL scan pushdown it feeds:
// with a warm index or without one, a range or equality predicate must
// select exactly the rows a brute-force RowCursor scan selects. The tables
// are randomized (unsorted timestamps, duplicates, NULL holes, doubles)
// precisely because the analyses' warehouses are not.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/index.h"
#include "db/sql.h"
#include "transform/streaming.h"
#include "util/rng.h"

namespace mscope {
namespace {

using db::DataType;
using db::Table;
using db::Value;

db::Schema event_schema() {
  return {{"ts", DataType::kInt},
          {"t2", DataType::kDouble},
          {"seq", DataType::kInt}};
}

// `rows` events with shuffled, duplicate-heavy timestamps: ts is Int, t2 is
// Double (to exercise as_int rounding in the index), and every seventh ts /
// fifth t2 cell is NULL. seq numbers the rows from `first_seq`.
std::vector<Table::Row> random_rows(util::Rng& rng, int rows,
                                    int first_seq = 0) {
  std::vector<Table::Row> out;
  for (int i = 0; i < rows; ++i) {
    const auto ts = static_cast<std::int64_t>(rng.next_below(200));
    const double t2 = static_cast<double>(rng.next_below(400)) / 2.0;
    out.push_back({(i % 7 == 6) ? Value{} : Value{ts},
                   (i % 5 == 4) ? Value{} : Value{t2},
                   Value{static_cast<std::int64_t>(first_seq + i)}});
  }
  return out;
}

// Column `out` of every row whose numeric `col` cell satisfies `keep`, in
// row order: the brute-force oracle.
std::vector<std::string> scan_select(const Table& t, const std::string& out,
                                     const std::string& col,
                                     const std::function<bool(double)>& keep) {
  const std::size_t c = *t.column_index(col);
  const std::size_t o = *t.column_index(out);
  std::vector<std::string> cells;
  for (db::RowCursor cur = t.scan(); cur.next();) {
    const auto v = db::as_double(cur.row()[c]);
    if (v && keep(*v)) cells.push_back(db::value_to_string(cur.row()[o]));
  }
  return cells;
}

// The same selection through mScopeSQL.
std::vector<std::string> sql_select(const db::Database& db,
                                    const std::string& table,
                                    const std::string& out,
                                    const std::string& where) {
  const Table r = db::Sql::execute(
      db, "SELECT " + out + " FROM " + table + " WHERE " + where);
  std::vector<std::string> cells;
  for (db::RowCursor cur = r.scan(); cur.next();) {
    cells.push_back(db::value_to_string(cur.row()[0]));
  }
  return cells;
}

std::string range_sql(const std::string& col, std::int64_t lo,
                      std::int64_t hi) {
  return col + " >= " + std::to_string(lo) + " AND " + col + " < " +
         std::to_string(hi);
}

std::function<bool(double)> in_range(std::int64_t lo, std::int64_t hi) {
  return [lo, hi](double v) {
    return v >= static_cast<double>(lo) && v < static_cast<double>(hi);
  };
}

TEST(DbIndex, IndexedTimeRangeMatchesScanOnRandomTables) {
  util::Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    // Twin tables: "ev" with warm indexes, "ev_cold" without, so SQL runs
    // once with the index pushdown and once on zone maps alone.
    db::Database db;
    Table& warm = db.create_table("ev", event_schema());
    Table& cold = db.create_table("ev_cold", event_schema());
    for (const auto& row :
         random_rows(rng, 200 + static_cast<int>(rng.next_below(200)))) {
      warm.insert(row);
      cold.insert(row);
    }
    (void)warm.time_index("ts");
    (void)warm.time_index("t2");
    for (int q = 0; q < 10; ++q) {
      const auto lo = static_cast<std::int64_t>(rng.next_below(220)) - 10;
      const auto hi = lo + static_cast<std::int64_t>(rng.next_below(120));
      for (const char* col : {"ts", "t2"}) {
        SCOPED_TRACE(std::string(col) + " [" + std::to_string(lo) + "," +
                     std::to_string(hi) + ")");
        const auto want = scan_select(warm, "seq", col, in_range(lo, hi));
        EXPECT_EQ(sql_select(db, "ev", "seq", range_sql(col, lo, hi)), want);
        EXPECT_EQ(sql_select(db, "ev_cold", "seq", range_sql(col, lo, hi)),
                  want);
      }
    }
  }
}

TEST(DbIndex, IndexStaysConsistentAcrossAppends) {
  util::Rng rng(7);
  db::Database db;
  Table& t = db.create_table("ev", event_schema());
  int seq = 0;
  for (const auto& row : random_rows(rng, 100, seq)) t.insert(row);
  seq += 100;
  // Warm the index; later inserts must maintain it (both the in-order fast
  // path and out-of-order sorted inserts).
  const db::TimeIndex* idx = t.time_index("ts");
  ASSERT_NE(idx, nullptr);
  for (int batch = 0; batch < 5; ++batch) {
    for (const auto& row : random_rows(rng, 50, seq)) t.insert(row);
    seq += 50;
    ASSERT_EQ(t.find_time_index(*t.column_index("ts")), idx);
    // Entries sorted by (time, row) — the invariant every range slice needs.
    const auto entries = idx->entries();
    for (std::size_t i = 1; i < entries.size(); ++i) {
      ASSERT_LT(entries[i - 1], entries[i]);
    }
    EXPECT_EQ(sql_select(db, "ev", "seq", range_sql("ts", 40, 160)),
              scan_select(t, "seq", "ts", in_range(40, 160)));
  }
}

TEST(DbIndex, EqualityFastPathsMatchGenericWhereEq) {
  util::Rng rng(21);
  db::Database db;
  Table& warm = db.create_table("ev", event_schema());
  Table& cold = db.create_table("ev_cold", event_schema());
  for (const auto& row : random_rows(rng, 300)) {
    warm.insert(row);
    cold.insert(row);
  }
  (void)warm.time_index("ts");
  for (std::int64_t v : {0, 50, 150, 199, 777}) {
    SCOPED_TRACE(v);
    // Generic oracle: db::compare against the literal.
    const auto want = scan_select(warm, "seq", "ts", [v](double x) {
      return db::compare(Value{x}, Value{v}) == 0;
    });
    const std::string where = "ts = " + std::to_string(v);
    EXPECT_EQ(sql_select(db, "ev", "seq", where), want);
    EXPECT_EQ(sql_select(db, "ev_cold", "seq", where), want);
  }
}

TEST(DbIndex, TimeIndexRangeHandlesDuplicatesAndBounds) {
  db::Database db;
  Table& t = db.create_table("ev", event_schema());
  for (std::int64_t ts : {5, 5, 5, 1, 9, 5}) {
    t.insert({Value{ts}, Value{}, Value{std::int64_t{0}}});
  }
  const db::TimeIndex* idx = t.time_index("ts");
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->size(), 6u);
  EXPECT_EQ(idx->min_time(), 1);
  EXPECT_EQ(idx->max_time(), 9);
  EXPECT_EQ(idx->range(5, 6).size(), 4u);
  EXPECT_EQ(idx->range(0, 100).size(), 6u);
  EXPECT_EQ(idx->range(6, 9).size(), 0u);   // hi exclusive
  EXPECT_EQ(idx->range(9, 10).size(), 1u);
  // Equal-time entries preserve insertion (row) order.
  const auto fives = idx->range(5, 6);
  for (std::size_t i = 1; i < fives.size(); ++i) {
    EXPECT_LT(fives[i - 1].row, fives[i].row);
  }
}

TEST(DbIndex, OrderByIsDeterministicOnTies) {
  db::Database db;
  Table& t = db.create_table("ev", event_schema());
  // All-equal sort keys: result must come back in insertion order, and in
  // insertion order descending too — on every standard library.
  for (int i = 0; i < 10; ++i) {
    t.insert({Value{std::int64_t{42}}, Value{},
              Value{static_cast<std::int64_t>(i)}});
  }
  for (const char* dir : {"ASC", "DESC"}) {
    const Table r = db::Sql::execute(
        db, std::string("SELECT seq FROM ev ORDER BY ts ") + dir);
    ASSERT_EQ(r.row_count(), 10u) << dir;
    for (std::size_t i = 0; i < r.row_count(); ++i) {
      EXPECT_EQ(std::get<std::int64_t>(r.at(i, 0)),
                static_cast<std::int64_t>(i))
          << dir;
    }
  }
}

// The streaming transformer's schema-widening rebuild drops and re-creates
// the table mid-stream; the time index must survive that (it is rebuilt and
// then maintained incrementally on the new table) and stay in lockstep with
// a brute-force scan.
TEST(DbIndex, StreamingWideningRebuildKeepsIndexConsistent) {
  db::Database db;
  transform::StreamingTransformer st(db);
  transform::Declaration d;
  d.parser_id = "token_lines";
  d.file_name = "widen.log";
  d.source = "test";
  d.table_prefix = "ev_widen";
  d.monitor_name = "widen";
  d.tokens.push_back({R"re(^(\S+) (\S+)$)re", {"name", "ts_usec"}});
  st.declarations().add(d);

  st.ingest("n1", "widen.log", "a 10\nb 30\nc 20\n");
  st.parse_all();
  ASSERT_TRUE(db.exists("ev_widen_n1"));
  {
    const Table& t = db.get("ev_widen_n1");
    ASSERT_EQ(t.schema()[1].type, DataType::kInt);
    const db::TimeIndex* idx = t.time_index("ts_usec");
    ASSERT_NE(idx, nullptr);
    EXPECT_EQ(idx->size(), 3u);  // prewarmed + maintained while streaming
    EXPECT_EQ(sql_select(db, "ev_widen_n1", "name",
                         range_sql("ts_usec", 15, 35)),
              scan_select(t, "name", "ts_usec", in_range(15, 35)));
  }

  // Widen ts_usec to Double: the table is rebuilt, rows re-typed, and the
  // fresh index must cover old and new rows alike.
  st.ingest("n1", "widen.log", "d 25.5\ne 5\n");
  st.parse_all();
  st.finalize();
  const Table& t = db.get("ev_widen_n1");
  ASSERT_EQ(t.schema()[1].type, DataType::kDouble);
  ASSERT_EQ(t.row_count(), 5u);
  const db::TimeIndex* idx = t.time_index("ts_usec");
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->size(), 5u);
  EXPECT_EQ(idx->min_time(), 5);
  EXPECT_EQ(idx->max_time(), 30);
  const auto in = scan_select(t, "name", "ts_usec", in_range(10, 27));
  EXPECT_EQ(in, (std::vector<std::string>{"a", "c", "d"}));
  EXPECT_EQ(sql_select(db, "ev_widen_n1", "name", range_sql("ts_usec", 10, 27)),
            in);
  // The load catalog's time range: the anchor column's span.
  const Table& cat = db.get(db::Database::kLoadCatalogTable);
  ASSERT_EQ(cat.row_count(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(cat.at(0, *cat.column_index("t_min_usec"))),
            5);
  EXPECT_EQ(std::get<std::int64_t>(cat.at(0, *cat.column_index("t_max_usec"))),
            30);
}

}  // namespace
}  // namespace mscope
