// Property-style tests (parameterized sweeps) of cross-cutting invariants:
// delta integration vs a brute-force reference, XML round-trips on random
// trees, schema-inference narrowness, timestamp round-trips, and whole-
// testbed determinism / conservation laws.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>

#include "core/milliscope.h"
#include "scratch_dir.h"
#include "oracle/xml_to_csv.h"
#include "transform/warehouse_io.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/time_format.h"

namespace mscope {
namespace {

using util::msec;
using util::Rng;
using util::sec;
using util::Series;
using util::SimTime;

// --- integrate_deltas vs brute force ----------------------------------------

class IntegrateDeltasProperty : public ::testing::TestWithParam<int> {};

TEST_P(IntegrateDeltasProperty, MatchesBruteForceMaxPerBucket) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  Series deltas;
  // Random balanced arrival/departure pairs.
  for (int i = 0; i < 300; ++i) {
    const auto a = static_cast<SimTime>(rng.next_below(1'000'000));
    const auto d = a + 1 + static_cast<SimTime>(rng.next_below(100'000));
    deltas.push_back({a, +1.0});
    deltas.push_back({d, -1.0});
  }
  const SimTime bucket = msec(10);
  const SimTime t0 = 0, t1 = msec(1200);
  const Series got = util::integrate_deltas(deltas, bucket, t0, t1);

  // Brute force: simulate the level at every event, tracking per-bucket max.
  Series sorted = deltas;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) { return a.time < b.time; });
  std::map<SimTime, double> level_max;
  for (SimTime t = t0; t < t1; t += bucket) level_max[t] = 0;
  double level = 0;
  std::size_t i = 0;
  for (SimTime t = t0; t < t1; t += bucket) {
    double peak = level;
    while (i < sorted.size() && sorted[i].time < t + bucket) {
      if (sorted[i].time >= t0) {
        level += sorted[i].value;
        peak = std::max(peak, level);
      } else {
        level += sorted[i].value;
        peak = std::max(peak, level);
      }
      ++i;
    }
    level_max[t] = peak;
  }
  ASSERT_EQ(got.size(), level_max.size());
  for (const auto& s : got) {
    EXPECT_DOUBLE_EQ(s.value, level_max[s.time]) << "bucket " << s.time;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntegrateDeltasProperty,
                         ::testing::Range(1, 7));

// --- XML round trip on random trees ------------------------------------------

class XmlRoundTrip : public ::testing::TestWithParam<int> {};

namespace xmlgen {

void random_node(transform::XmlNode& node, Rng& rng, int depth) {
  static const char* kNames[] = {"log", "field", "entry", "x-y", "a_b"};
  static const char* kValues[] = {"plain", "<angle>", "a&b", "\"quo\"ted'",
                                  "", "123", "multi word value"};
  const auto nattrs = rng.next_below(3);
  for (std::uint64_t i = 0; i < nattrs; ++i) {
    node.set_attribute("k" + std::to_string(i),
                       kValues[rng.next_below(std::size(kValues))]);
  }
  if (depth < 3 && rng.chance(0.7)) {
    const auto kids = 1 + rng.next_below(3);
    for (std::uint64_t i = 0; i < kids; ++i) {
      auto& child = node.add_child(kNames[rng.next_below(std::size(kNames))]);
      random_node(child, rng, depth + 1);
    }
  } else if (rng.chance(0.5)) {
    node.text = kValues[rng.next_below(std::size(kValues))];
  }
}

void expect_equal(const transform::XmlNode& a, const transform::XmlNode& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.text, b.text);
  ASSERT_EQ(a.attributes.size(), b.attributes.size());
  for (std::size_t i = 0; i < a.attributes.size(); ++i) {
    EXPECT_EQ(a.attributes[i], b.attributes[i]);
  }
  ASSERT_EQ(a.children.size(), b.children.size());
  for (std::size_t i = 0; i < a.children.size(); ++i) {
    expect_equal(*a.children[i], *b.children[i]);
  }
}

}  // namespace xmlgen

TEST_P(XmlRoundTrip, SerializeParsePreservesTree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 77);
  for (int iter = 0; iter < 25; ++iter) {
    transform::XmlNode root;
    root.name = "root";
    xmlgen::random_node(root, rng, 0);
    const auto parsed = transform::xml_parse(transform::xml_serialize(root));
    xmlgen::expect_equal(root, *parsed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTrip, ::testing::Range(1, 5));

// --- schema inference narrowness ----------------------------------------------

TEST(SchemaInferenceProperty, InferredTypeIsNarrowestThatFitsAll) {
  Rng rng(99);
  static const char* kIntLits[] = {"0", "42", "-7", "123456789"};
  static const char* kDblLits[] = {"1.5", "-0.25", "3e2"};
  static const char* kTxtLits[] = {"abc", "1.2.3", "12x"};
  for (int iter = 0; iter < 200; ++iter) {
    transform::XmlNode root;
    root.name = "logfile";
    int has_dbl = 0, has_txt = 0;
    const auto rows = 1 + rng.next_below(6);
    for (std::uint64_t r = 0; r < rows; ++r) {
      auto& entry = root.add_child("log");
      auto& f = entry.add_child("field");
      f.set_attribute("name", "v");
      const auto kind = rng.next_below(3);
      if (kind == 0) {
        f.set_attribute("value", kIntLits[rng.next_below(4)]);
      } else if (kind == 1) {
        f.set_attribute("value", kDblLits[rng.next_below(3)]);
        has_dbl = 1;
      } else {
        f.set_attribute("value", kTxtLits[rng.next_below(3)]);
        has_txt = 1;
      }
    }
    const auto conv = transform::XmlToCsvConverter::convert(root);
    ASSERT_EQ(conv.schema.size(), 1u);
    const db::DataType want = has_txt ? db::DataType::kText
                              : has_dbl ? db::DataType::kDouble
                                        : db::DataType::kInt;
    EXPECT_EQ(conv.schema[0].type, want);
    // And every value must parse as the inferred type.
    for (const auto& row : conv.rows) {
      EXPECT_TRUE(db::parse_as(row[0], conv.schema[0].type).has_value());
    }
  }
}

// --- timestamp round trips ------------------------------------------------------

class TimeFormatRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(TimeFormatRoundTrip, AllEncodingsRoundTripAtMsGranularity) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1234);
  using util::TimeFormat;
  for (int iter = 0; iter < 500; ++iter) {
    const auto t_ms =
        static_cast<SimTime>(rng.next_below(86'400'000)) * util::kMsec;
    EXPECT_EQ(TimeFormat::parse_hms(TimeFormat::hms_milli(t_ms)), t_ms);
    EXPECT_EQ(TimeFormat::parse_apache_clf(TimeFormat::apache_clf(t_ms)),
              t_ms);
    const auto t_us = t_ms + static_cast<SimTime>(rng.next_below(1000));
    EXPECT_EQ(TimeFormat::parse_mysql(TimeFormat::mysql(t_us)), t_us);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimeFormatRoundTrip, ::testing::Range(1, 4));

// --- whole-testbed conservation & determinism ---------------------------------

TEST(TestbedProperty, EventLogAccountingIsConserved) {
  core::TestbedConfig cfg;
  cfg.workload = 600;
  cfg.duration = sec(6);
  cfg.log_dir = test::scratch_dir("prop_a");
  core::Experiment exp(cfg);
  exp.run();
  db::Database db;
  exp.load_warehouse(db);
  const auto& completed = exp.testbed().clients().completed();

  // Every completed request appears exactly once in the Apache event table
  // (it was instrumented end to end), and per-tier visit counts match the
  // warehouse row counts for requests that finished before the horizon.
  std::size_t truth_visits_mysql = 0;
  for (const auto& r : completed) {
    truth_visits_mysql += r->records[3].visits.size();
  }
  // The warehouse may also hold visits of requests still in flight at the
  // end (their lower-tier visits completed even though the client response
  // did not arrive) — so table rows >= completed-request visits.
  EXPECT_GE(db.get("ev_mysql_db1").row_count(), truth_visits_mysql);
  EXPECT_GE(db.get("ev_apache_web1").row_count(), completed.size());
  EXPECT_LE(db.get("ev_apache_web1").row_count(),
            completed.size() + static_cast<std::size_t>(cfg.workload));
  std::filesystem::remove_all(cfg.log_dir);
}

TEST(TestbedProperty, WarehouseQueueMatchesGroundTruth) {
  core::TestbedConfig cfg;
  cfg.workload = 600;
  cfg.duration = sec(6);
  cfg.log_dir = test::scratch_dir("prop_b");
  cfg.scenario_a = core::ScenarioA{.first_flush = sec(3)};
  core::Experiment exp(cfg);
  exp.run();
  db::Database db;
  exp.load_warehouse(db);
  const auto& completed = exp.testbed().clients().completed();

  // Queue lengths recomputed from the warehouse equal those from simulator
  // ground truth on the completed-request population.
  for (int tier = 0; tier < 4; ++tier) {
    const auto truth = core::queue_length_truth(completed, tier, msec(100), 0,
                                                sec(6));
    const auto from_db = core::queue_length_db(
        db, exp.event_tables()[static_cast<std::size_t>(tier)], msec(100), 0, sec(6));
    // The warehouse additionally sees visits of in-flight requests, so it
    // can only be >= truth; correlation must be ~1.
    ASSERT_EQ(truth.size(), from_db.size());
    for (std::size_t i = 0; i < truth.size(); ++i) {
      EXPECT_GE(from_db[i].value + 1e-9, truth[i].value);
    }
    EXPECT_GT(util::correlate_series(truth, from_db, msec(100)), 0.98);
  }
  std::filesystem::remove_all(cfg.log_dir);
}

// --- clear() + re-import is byte-identical -----------------------------------

class ClearReimportProperty : public ::testing::TestWithParam<int> {};

TEST_P(ClearReimportProperty, ReimportAfterClearIsByteIdentical) {
  // clear() must leave no trace: re-inserting the same rows yields the same
  // warehouse bytes (binary segment snapshot), i.e. segment seal points
  // depend only on the insert sequence, never on prior storage state.
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  db::Database db;
  auto& t = db.create_table("ev_rand_web1", {{"ts_usec", db::DataType::kInt},
                                             {"url", db::DataType::kText},
                                             {"dur", db::DataType::kDouble}});
  std::vector<db::Table::Row> rows;
  SimTime ts = 0;
  for (int i = 0; i < 12'000; ++i) {
    ts += static_cast<SimTime>(rng.next_below(5'000));
    db::Table::Row row;
    row.push_back(db::Value{ts});
    row.push_back(rng.next_below(10) == 0
                      ? db::Value{}
                      : db::Value{"/s" + std::to_string(rng.next_below(6))});
    row.push_back(db::Value{static_cast<double>(rng.next_below(1'000'000)) /
                            997.0});
    rows.push_back(std::move(row));
  }
  for (const auto& row : rows) t.insert(row);

  const test::ScratchDir dir("prop_clear");
  const auto& base = dir.path();
  transform::WarehouseIO::save_snapshot(db, base / "a");

  t.clear();
  EXPECT_EQ(t.row_count(), 0u);
  for (const auto& row : rows) t.insert(row);
  transform::WarehouseIO::save_snapshot(db, base / "b");

  const auto slurp = [](const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  EXPECT_EQ(slurp(base / "a" / "ev_rand_web1.mseg"),
            slurp(base / "b" / "ev_rand_web1.mseg"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClearReimportProperty, ::testing::Range(1, 4));

TEST(TestbedProperty, RunsAreDeterministic) {
  auto run_digest = [] {
    core::TestbedConfig cfg;
    cfg.workload = 400;
    cfg.duration = sec(5);
    cfg.seed = 7;
    cfg.log_dir = test::scratch_dir("prop_c");
    core::Experiment exp(cfg);
    exp.run();
    std::uint64_t digest = 1469598103934665603ULL;
    const auto mix = [&digest](std::uint64_t v) {
      digest ^= v;
      digest *= 1099511628211ULL;
    };
    for (const auto& r : exp.testbed().clients().completed()) {
      mix(r->id);
      mix(static_cast<std::uint64_t>(r->client_recv));
      for (const auto& rec : r->records) {
        for (const auto& v : rec.visits) {
          mix(static_cast<std::uint64_t>(v.upstream_arrival));
          mix(static_cast<std::uint64_t>(v.upstream_departure));
        }
      }
    }
    std::filesystem::remove_all(cfg.log_dir);
    return digest;
  };
  EXPECT_EQ(run_digest(), run_digest());
}

}  // namespace
}  // namespace mscope
