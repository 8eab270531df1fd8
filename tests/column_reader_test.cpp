// Property tests of the store and the analyses' read path. The tables are
// randomized — shuffled and duplicated timestamps, NULL holes, Double time
// columns, sealed segments plus a live tail, alternating runs of single-row
// inserts and Table::append batches (Int cells into Double columns among
// them), and three in-place widenings while the tail holds rows — and fill()
// keeps a row-major copy of every table. StoreMatchesRowMajorOracle checks
// every read path against that copy; the analysis tests check
// db::ColumnReader under core::pit_response_time_db_multi,
// queue_length_db_multi and resource_series against a brute-force RowCursor
// + std::stable_sort oracle cell for cell, including the order of equal
// timestamps.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "catalog_equal.h"
#include "core/metrics.h"
#include "db/column_batch.h"
#include "db/columns.h"
#include "db/database.h"
#include "db/segment/snapshot.h"
#include "db/sql.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mscope {
namespace {

using db::DataType;
using db::Value;
using util::Series;
using util::SimTime;

using Rows = std::vector<db::Table::Row>;

constexpr SimTime kBucket = 20;
constexpr SimTime kHorizon = 400;

// A time cell: NULL about one time in eight, otherwise a duplicate-heavy
// value in [0, 300). Once `dbl` is set the column has been widened to
// Double, and some cells land on .5 so as_int's rounding matters.
Value time_cell(util::Rng& rng, bool dbl) {
  if (rng.next_below(8) == 0) return Value{};
  const auto t = static_cast<std::int64_t>(rng.next_below(300));
  if (!dbl) return Value{t};
  return Value{static_cast<double>(t) + (rng.chance(0.5) ? 0.5 : 0.0)};
}

// ts_usec, ua_usec, ud_usec, duration_usec, val, tag, then `maybe` (all
// NULL until widened to Double) and, once widened, `extra`.
db::Schema schema() {
  return {{"ts_usec", DataType::kInt},       {"ua_usec", DataType::kInt},
          {"ud_usec", DataType::kInt},       {"duration_usec", DataType::kInt},
          {"val", DataType::kDouble},        {"tag", DataType::kText},
          {"maybe", DataType::kNull}};
}

db::Schema widened_schema() {
  db::Schema wider = schema();
  wider[0].type = DataType::kDouble;  // ts_usec: Int -> Double
  wider[2].type = DataType::kDouble;  // ud_usec: Int -> Double
  wider[6].type = DataType::kDouble;  // maybe: all-NULL retype
  wider.push_back({"extra", DataType::kInt});  // added column
  return wider;
}

// One row of cells. With `int_cells`, the widened Double columns carry Int
// cells (the table converts them).
db::Table::Row make_row(util::Rng& rng, bool widened, bool int_cells, int i) {
  const bool dbl = widened && !int_cells;
  db::Table::Row row{
      time_cell(rng, dbl), time_cell(rng, false), time_cell(rng, dbl),
      rng.next_below(10) == 0
          ? Value{}
          : Value{static_cast<std::int64_t>(rng.next_below(5000))},
      rng.next_below(9) == 0 ? Value{} : Value{rng.uniform(0, 100)},
      i % 7 == 3 ? Value{} : Value{std::string(i % 2 ? "a" : "b")},
      Value{}};
  if (widened) {
    row[6] = time_cell(rng, dbl);
    row.push_back(rng.next_below(4) == 0
                      ? Value{}
                      : Value{static_cast<std::int64_t>(i)});
  }
  return row;
}

// `row` as the table stores it: Int cells of Double columns converted.
db::Table::Row stored(db::Table::Row row, const db::Schema& s) {
  for (std::size_t c = 0; c < row.size(); ++c) {
    if (s[c].type == DataType::kDouble) {
      if (const auto* v = std::get_if<std::int64_t>(&row[c])) {
        row[c] = Value{static_cast<double>(*v)};
      }
    }
  }
  return row;
}

// `rows` in column form, each column typed as in `types`.
db::ColumnBatch batch_of(const db::Schema& types, const Rows& rows) {
  db::ColumnBatch b;
  b.schema = types;
  b.rows = rows.size();
  b.columns.resize(types.size());
  for (std::size_t c = 0; c < types.size(); ++c) {
    db::ColumnBatch::Column& col = b.columns[c];
    col.type = types[c].type;
    col.valid.assign(rows.size(), 0);
    col.ints.assign(rows.size(), 0);
    col.doubles.assign(rows.size(), 0.0);
    col.texts.resize(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const Value& v = rows[r][c];
      if (db::is_null(v)) continue;
      col.valid[r] = 1;
      switch (col.type) {
        case DataType::kInt: col.ints[r] = std::get<std::int64_t>(v); break;
        case DataType::kDouble: col.doubles[r] = std::get<double>(v); break;
        default: col.texts[r] = std::get<db::TextRef>(v); break;
      }
    }
  }
  return b;
}

// Appends `rows` to `t` and to its row-major copy `oracle`: every other run
// of rows as single-row inserts, the rest as one Table::append of a range
// of a batch (with a junk row on each side that must not land).
void add_rows(db::Table& t, util::Rng& rng, int n, bool widened, int& next_i,
              Rows& oracle) {
  for (int done = 0, run = 0; done < n; ++run) {
    const int len =
        std::min(n - done, 1 + static_cast<int>(rng.next_below(24)));
    const bool batch = run % 2 == 1;
    const bool int_cells = widened && batch && rng.chance(0.5);
    Rows rows;
    for (int k = 0; k < len + 2; ++k) {
      rows.push_back(make_row(rng, widened, int_cells, next_i + k - 1));
    }
    if (batch) {
      db::Schema types = t.schema();
      if (int_cells) {
        for (const std::size_t c : {0, 2, 6}) types[c].type = DataType::kInt;
      }
      t.append(batch_of(types, rows), 1, rows.size() - 1);
    } else {
      for (int k = 1; k <= len; ++k) t.insert(rows[k]);
    }
    for (int k = 1; k <= len; ++k) {
      oracle.push_back(stored(rows[k], t.schema()));
    }
    done += len;
    next_i += len;
  }
}

// One randomized event/resource table. Small seal_rows, with or without
// partition alignment, so prefix seals leave rows in the tail. Halfway,
// with rows in the tail, the schema widens in place three ways (Int ->
// Double on ts_usec and ud_usec, an all-NULL retype of `maybe`, an added
// `extra`), and later rows carry the wider types. `oracle` receives the
// table's rows in row-major form. ud_usec's time index is warm throughout.
void fill(db::Table& t, util::Rng& rng, int rows, Rows& oracle) {
  t.set_storage_config({.seal_rows = 8 + rng.next_below(40),
                        .partition_usec = rng.chance(0.5) ? 0 : 50});
  (void)t.time_index("ud_usec");
  int next_i = 0;
  add_rows(t, rng, rows / 2, false, next_i, oracle);
  while (t.storage().sealed_row_count() == t.row_count()) {
    add_rows(t, rng, 1, false, next_i, oracle);
  }
  ASSERT_TRUE(t.try_widen(widened_schema()));
  for (auto& row : oracle) {
    row = stored(std::move(row), t.schema());
    row.emplace_back();
  }
  add_rows(t, rng, rows - rows / 2, true, next_i, oracle);
}

// (as_int(time), as_double(value)) of every row where both are numeric, in
// row order.
void scan_samples(const db::Table& t, const std::string& time_col,
                  const std::string& value_col, Series& out) {
  const std::size_t tc = *t.column_index(time_col);
  const std::size_t vc = *t.column_index(value_col);
  for (db::RowCursor cur = t.scan(); cur.next();) {
    const auto time = db::as_int(cur.row()[tc]);
    const auto v = db::as_double(cur.row()[vc]);
    if (time && v) out.push_back({*time, *v});
  }
}

void stable_sort_by_time(Series& s) {
  std::stable_sort(s.begin(), s.end(), [](const auto& a, const auto& b) {
    return a.time < b.time;
  });
}

// Per bucket of [t_begin, t_end): the peak level reached, applying the
// sorted deltas one by one from the start of time.
Series brute_force_levels(const Series& sorted_deltas, SimTime bucket,
                          SimTime t_begin, SimTime t_end) {
  Series out;
  for (SimTime b = t_begin; b < t_end; b += bucket) {
    double level = 0;
    for (const auto& d : sorted_deltas) {
      if (d.time < b) level += d.value;
    }
    double peak = level;
    for (const auto& d : sorted_deltas) {
      if (d.time < b || d.time >= b + bucket) continue;
      level += d.value;
      peak = std::max(peak, level);
    }
    out.push_back({b, peak});
  }
  return out;
}

std::vector<std::pair<SimTime, double>> cells(const Series& s) {
  std::vector<std::pair<SimTime, double>> out;
  for (const auto& p : s) out.emplace_back(p.time, p.value);
  return out;
}

// (as_int(cell), row) of every numeric cell of column `c`, sorted: the
// entries a TimeIndex over the column must hold.
std::vector<std::pair<std::int64_t, std::uint32_t>> index_of(
    const Rows& oracle, std::size_t c) {
  std::vector<std::pair<std::int64_t, std::uint32_t>> out;
  for (std::size_t r = 0; r < oracle.size(); ++r) {
    if (const auto t = db::as_int(oracle[r][c])) {
      out.emplace_back(*t, static_cast<std::uint32_t>(r));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::int64_t, std::uint32_t>> entries(
    const db::TimeIndex& idx) {
  std::vector<std::pair<std::int64_t, std::uint32_t>> out;
  for (const auto& e : idx.entries()) out.emplace_back(e.time, e.row);
  return out;
}

void expect_cells(const db::Table& t, const Rows& oracle) {
  ASSERT_EQ(t.row_count(), oracle.size());
  for (std::size_t r = 0; r < oracle.size(); ++r) {
    ASSERT_EQ(oracle[r].size(), t.column_count());
    for (std::size_t c = 0; c < t.column_count(); ++c) {
      ASSERT_TRUE(test::same_value(t.at(r, c), oracle[r][c]))
          << t.name() << " at(" << r << ", " << c << ")";
    }
  }
}

// Every read path of `t` (a widened table of `db`) against its row-major
// copy: at(), RowCursor, ColumnReader, SELECT *, anchor_span(), cold and
// warm time indexes, and a snapshot round trip.
void expect_matches(const db::Database& db, const db::Table& t,
                    const Rows& oracle) {
  expect_cells(t, oracle);

  std::size_t n = 0;
  for (db::RowCursor cur = t.scan(); cur.next(); ++n) {
    ASSERT_EQ(cur.row_id(), n);
    ASSERT_LT(n, oracle.size());
    for (std::size_t c = 0; c < t.column_count(); ++c) {
      ASSERT_TRUE(test::same_value(cur.row()[c], oracle[n][c]))
          << "RowCursor row " << n << " col " << c;
    }
  }
  EXPECT_EQ(n, oracle.size());

  db::ColumnReader reader(t, {"ts_usec", "ua_usec", "ud_usec",
                              "duration_usec", "val", "tag", "maybe",
                              "extra"});
  for (std::size_t r = 0; r < oracle.size(); ++r) {
    ASSERT_TRUE(reader.next());
    for (std::size_t c = 0; c < oracle[r].size(); ++c) {
      ASSERT_EQ(reader.as_int(c), db::as_int(oracle[r][c])) << r << "," << c;
      ASSERT_EQ(reader.as_double(c), db::as_double(oracle[r][c]));
    }
  }
  EXPECT_FALSE(reader.next());

  expect_cells(db::Sql::execute(db, "SELECT * FROM " + t.name()), oracle);

  db::segment::ZoneMap span;
  for (const auto& row : oracle) {
    if (const auto v = db::as_int(row[0])) span.add(*v);
  }
  const db::segment::ZoneMap got = t.anchor_span();
  EXPECT_EQ(got.has_value, span.has_value);
  EXPECT_EQ(got.min, span.min);
  EXPECT_EQ(got.max, span.max);

  for (const std::size_t c : {0, 1, 2, 3, 4, 6, 7}) {
    EXPECT_EQ(entries(db::TimeIndex::build(t, c)), index_of(oracle, c)) << c;
  }
  if (const db::TimeIndex* warm = t.find_time_index(2)) {
    EXPECT_EQ(entries(*warm), index_of(oracle, 2));
  }

  // The snapshot keeps the layout: the loaded table saves byte-identically.
  std::ostringstream saved;
  db::segment::write_table(saved, t);
  std::istringstream in(saved.str());
  const db::Table loaded = db::segment::read_table(in);
  EXPECT_EQ(loaded.schema(), t.schema());
  expect_cells(loaded, oracle);
  EXPECT_EQ(loaded.storage().sealed_row_count(),
            t.storage().sealed_row_count());
  std::ostringstream resaved;
  db::segment::write_table(resaved, loaded);
  EXPECT_EQ(resaved.str(), saved.str());
}

class ColumnReaderProperty : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    util::Rng rng(static_cast<std::uint64_t>(GetParam()));
    const int replicas = 1 + static_cast<int>(rng.next_below(3));
    for (int k = 0; k < replicas; ++k) {
      names_.push_back("ev_" + std::to_string(k));
      oracles_.emplace_back();
      fill(db_.create_table(names_.back(), schema()), rng,
           50 + static_cast<int>(rng.next_below(250)), oracles_.back());
    }
  }

  db::Database db_;
  std::vector<std::string> names_;
  std::vector<Rows> oracles_;  ///< row-major copy of each table
};

TEST_P(ColumnReaderProperty, StoreMatchesRowMajorOracle) {
  for (std::size_t k = 0; k < names_.size(); ++k) {
    SCOPED_TRACE(names_[k]);
    db::Table& t = db_.get(names_[k]);
    ASSERT_GT(t.storage().segments().size(), 0u);
    expect_matches(db_, t, oracles_[k]);  // after partial prefix seals
    t.seal_all();
    ASSERT_EQ(t.storage().sealed_row_count(), t.row_count());
    expect_matches(db_, t, oracles_[k]);
    t.clear();
    Rows again;
    expect_matches(db_, t, again);
    // The cleared table takes rows again, down both paths.
    util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + k);
    int next_i = 0;
    add_rows(t, rng, 60, /*widened=*/true, next_i, again);
    expect_matches(db_, t, again);
  }
}

TEST_P(ColumnReaderProperty, ReaderMatchesRowCursorCellForCell) {
  for (const auto& name : names_) {
    const db::Table& t = db_.get(name);
    ASSERT_GT(t.storage().segments().size(), 0u);
    db::ColumnReader r(t, {"ts_usec", "ud_usec", "val", "tag"});
    for (db::RowCursor cur = t.scan(); cur.next();) {
      ASSERT_TRUE(r.next());
      std::size_t i = 0;
      for (const std::size_t c : {0, 2, 4, 5}) {
        EXPECT_EQ(r.as_int(i), db::as_int(cur.row()[c])) << c;
        EXPECT_EQ(r.as_double(i), db::as_double(cur.row()[c])) << c;
        ++i;
      }
    }
    EXPECT_FALSE(r.next());
  }
  EXPECT_THROW(db::ColumnReader(db_.get(names_[0]), {"ts_usec", "nope"}),
               std::out_of_range);
}

TEST_P(ColumnReaderProperty, ResourceSeriesMatchesStableSortOracle) {
  for (const auto& name : names_) {
    Series want;
    scan_samples(db_.get(name), "ts_usec", "val", want);
    stable_sort_by_time(want);
    EXPECT_EQ(cells(core::resource_series(db_, name, "val")), cells(want));
  }
}

TEST_P(ColumnReaderProperty, PitMatchesStableSortOracle) {
  Series rt;  // replicas in table order, then one stable sort
  for (const auto& name : names_) {
    scan_samples(db_.get(name), "ud_usec", "duration_usec", rt);
  }
  stable_sort_by_time(rt);
  for (auto& s : rt) s.value /= 1000.0;
  std::vector<double> all;
  util::RunningStats stats;
  for (const auto& s : rt) {
    all.push_back(s.value);
    stats.add(s.value);
  }

  const core::PitSeries pit =
      core::pit_response_time_db_multi(db_, names_, kBucket);
  EXPECT_EQ(cells(pit.max_rt_ms),
            cells(util::rebucket(rt, kBucket, util::BucketOp::kMax)));
  EXPECT_EQ(cells(pit.avg_rt_ms),
            cells(util::rebucket(rt, kBucket, util::BucketOp::kMean)));
  EXPECT_EQ(pit.overall_avg_ms, stats.mean());
  EXPECT_EQ(pit.overall_p50_ms, util::percentile(all, 50));
}

TEST_P(ColumnReaderProperty, QueueLengthMatchesStableSortOracle) {
  // +1 at arrival, -1 at departure for rows that logged both, appended in
  // (table, row, arrival-before-departure) order and stable-sorted by time.
  Series deltas;
  for (const auto& name : names_) {
    const db::Table& t = db_.get(name);
    for (db::RowCursor cur = t.scan(); cur.next();) {
      const auto a = db::as_int(cur.row()[1]);
      const auto d = db::as_int(cur.row()[2]);
      if (!a || !d) continue;
      deltas.push_back({*a, +1.0});
      deltas.push_back({*d, -1.0});
    }
  }
  stable_sort_by_time(deltas);
  EXPECT_EQ(
      cells(core::queue_length_db_multi(db_, names_, kBucket, 0, kHorizon)),
      cells(brute_force_levels(deltas, kBucket, 0, kHorizon)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnReaderProperty, ::testing::Range(1, 9));

}  // namespace
}  // namespace mscope
