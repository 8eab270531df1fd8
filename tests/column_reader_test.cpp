// Property tests of the analyses' read path: db::ColumnReader under
// core::pit_response_time_db_multi, queue_length_db_multi and
// resource_series. The tables are randomized — shuffled and duplicated
// timestamps, NULL holes, Double time columns, sealed segments plus a
// row-major tail, an Int -> Double widening partway through — and every
// result must equal a brute-force RowCursor + std::stable_sort oracle cell
// for cell, including the order of equal timestamps.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "db/columns.h"
#include "db/database.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mscope {
namespace {

using db::DataType;
using db::Value;
using util::Series;
using util::SimTime;

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

// One randomized event/resource table with the columns every analysis
// reads. Rows arrive in shuffled time order; halfway through, ts_usec and
// ud_usec widen Int -> Double in place (sealed segments re-encode, the
// tail re-boxes) and later rows carry Doubles.
void fill(db::Table& t, util::Rng& rng, int rows) {
  t.set_storage_config({.seal_rows = 8 + rng.next_below(40),
                        .partition_usec = rng.chance(0.5) ? 0 : 50,
                        .seal = true});
  bool widened = false;
  for (int i = 0; i < rows; ++i) {
    if (!widened && i == rows / 2) {
      db::Schema wider = t.schema();
      wider[0].type = DataType::kDouble;  // ts_usec
      wider[2].type = DataType::kDouble;  // ud_usec
      ASSERT_TRUE(t.try_widen(wider));
      widened = true;
    }
    Value dur = rng.next_below(10) == 0
                    ? Value{}
                    : Value{static_cast<std::int64_t>(rng.next_below(5000))};
    Value val = rng.next_below(9) == 0 ? Value{} : Value{rng.uniform(0, 100)};
    t.insert({time_cell(rng, widened), time_cell(rng, false),
              time_cell(rng, widened), std::move(dur), std::move(val),
              Value{std::string(i % 2 ? "a" : "b")}});
  }
}

db::Schema schema() {
  return {{"ts_usec", DataType::kInt},       {"ua_usec", DataType::kInt},
          {"ud_usec", DataType::kInt},       {"duration_usec", DataType::kInt},
          {"val", DataType::kDouble},        {"tag", DataType::kText}};
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

class ColumnReaderProperty : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    util::Rng rng(static_cast<std::uint64_t>(GetParam()));
    const int replicas = 1 + static_cast<int>(rng.next_below(3));
    for (int k = 0; k < replicas; ++k) {
      names_.push_back("ev_" + std::to_string(k));
      fill(db_.create_table(names_.back(), schema()), rng,
           50 + static_cast<int>(rng.next_below(250)));
    }
  }

  db::Database db_;
  std::vector<std::string> names_;
};

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
