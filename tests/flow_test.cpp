#include "flow/materializer.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "chaos/fault_plan.h"
#include "db/database.h"
#include "fleet/sharded_warehouse.h"
#include "flow/attribution.h"
#include "flow/waterfall.h"
#include "obs/metrics.h"
#include "oracle/trace_reconstructor.h"
#include "scratch_dir.h"
#include "util/id_codec.h"

namespace mscope::flow {
namespace {

using util::IdCodec;
using util::msec;

const std::vector<std::string> kServices = {"apache", "tomcat", "cjdbc",
                                            "mysql"};

db::Schema pair_schema() {
  return {{"req_id", db::DataType::kText},
          {"ua_usec", db::DataType::kInt},
          {"ud_usec", db::DataType::kInt},
          {"ds_usec", db::DataType::kInt},
          {"dr_usec", db::DataType::kInt}};
}

/// Asserts a bulk-materialized trace is cell-identical to the oracle's.
void expect_same_trace(const core::Trace& bulk, const core::Trace& oracle) {
  ASSERT_EQ(bulk.spans.size(), oracle.spans.size())
      << "req " << IdCodec::encode(oracle.req_id);
  EXPECT_EQ(bulk.req_id, oracle.req_id);
  for (std::size_t i = 0; i < oracle.spans.size(); ++i) {
    const auto& b = bulk.spans[i];
    const auto& o = oracle.spans[i];
    EXPECT_EQ(b.tier, o.tier);
    EXPECT_EQ(b.service, o.service);
    EXPECT_EQ(b.visit, o.visit);
    EXPECT_EQ(b.ua, o.ua);
    EXPECT_EQ(b.ud, o.ud);
    EXPECT_EQ(b.calls, o.calls);
  }
}

/// Full-parity harness: every id the oracle can reconstruct must come out of
/// the bulk result cell-identical, and the bulk result must not invent ids.
void expect_bulk_oracle_parity(const db::Catalog& db, const Deployment& dep,
                               const Result& result,
                               std::uint64_t max_id) {
  const auto oracle =
      core::TraceReconstructor::for_groups(db, dep.event_tables, dep.services);
  std::size_t matched = 0;
  for (std::uint64_t id = 0; id <= max_id; ++id) {
    const auto want = oracle.reconstruct(id);
    const RequestRec* got = result.find(id);
    ASSERT_EQ(want.has_value(), got != nullptr) << "req " << id;
    if (!want) continue;
    expect_same_trace(result.trace(*got), *want);
    ++matched;
  }
  EXPECT_EQ(matched, result.requests.size());
}

/// A deterministic 4-tier warehouse with replicated MySQL, holes, NULL and
/// non-canonical (lowercase hex) request ids, Tomcat dsN/drN columns, and a
/// CJDBC tier with two visits per request — every shape the real
/// transformers produce.
class FlowFixture : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kRequests = 240;

  FlowFixture() {
    auto& apache = db_.create_table(
        "ev_apache_web1", {{"req_id", db::DataType::kText},
                           {"ua_usec", db::DataType::kInt},
                           {"ud_usec", db::DataType::kInt},
                           {"duration_usec", db::DataType::kInt},
                           {"ds_usec", db::DataType::kInt},
                           {"dr_usec", db::DataType::kInt}});
    auto& tomcat = db_.create_table(
        "ev_tomcat_app1", {{"req_id", db::DataType::kText},
                           {"ua_usec", db::DataType::kInt},
                           {"ud_usec", db::DataType::kInt},
                           {"ds0_usec", db::DataType::kInt},
                           {"dr0_usec", db::DataType::kInt},
                           {"ds1_usec", db::DataType::kInt},
                           {"dr1_usec", db::DataType::kInt}});
    auto& cjdbc = db_.create_table(
        "ev_cjdbc_cj1", {{"req_id", db::DataType::kText},
                         {"visit", db::DataType::kInt},
                         {"ua_usec", db::DataType::kInt},
                         {"ud_usec", db::DataType::kInt},
                         {"ds_usec", db::DataType::kInt},
                         {"dr_usec", db::DataType::kInt}});
    auto& db1 = db_.create_table("ev_mysql_db1", pair_schema());
    auto& db2 = db_.create_table("ev_mysql_db2", pair_schema());

    std::mt19937_64 rng(7);
    const auto jitter = [&](std::int64_t lo, std::int64_t hi) {
      return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
    };
    for (std::uint64_t id = 1; id <= kRequests; ++id) {
      const db::Value hex{IdCodec::encode(id)};
      const std::int64_t t0 = static_cast<std::int64_t>(id) * 2000;
      const bool hole_front = id % 17 == 0;   // GapTracker-style missing tier
      const bool hole_mysql = id % 23 == 0;
      if (!hole_front) {
        apache.insert({hex, db::Value{t0}, db::Value{t0 + jitter(500, 1500)},
                       db::Value{std::int64_t{900}}, db::Value{t0 + 50},
                       db::Value{t0 + 400}});
      }
      // Tomcat: second downstream pair present for half the requests.
      if (id % 2 == 0) {
        tomcat.insert({hex, db::Value{t0 + 60}, db::Value{t0 + 380},
                       db::Value{t0 + 80}, db::Value{t0 + 180},
                       db::Value{t0 + 200}, db::Value{t0 + 350}});
      } else {
        tomcat.insert({hex, db::Value{t0 + 60}, db::Value{t0 + 380},
                       db::Value{t0 + 80}, db::Value{t0 + 180},
                       db::Value{}, db::Value{}});
      }
      // CJDBC: two visits, inserted out of visit order for odd ids.
      const db::Table::Row v0 = {hex, db::Value{std::int64_t{0}},
                                 db::Value{t0 + 90}, db::Value{t0 + 170},
                                 db::Value{t0 + 100}, db::Value{t0 + 160}};
      const db::Table::Row v1 = {hex, db::Value{std::int64_t{1}},
                                 db::Value{t0 + 210}, db::Value{t0 + 340},
                                 db::Value{t0 + 220}, db::Value{t0 + 330}};
      if (id % 2 == 1) {
        cjdbc.insert(v1);
        cjdbc.insert(v0);
      } else {
        cjdbc.insert(v0);
        cjdbc.insert(v1);
      }
      if (!hole_mysql) {
        (id % 2 == 0 ? db1 : db2)
            .insert({hex, db::Value{t0 + 105}, db::Value{t0 + 155},
                     db::Value{}, db::Value{}});
      }
    }
    // Rows neither path may pick up: NULL ids and lowercase hex (the oracle
    // compares against the canonical uppercase encoding).
    apache.insert({db::Value{}, db::Value{std::int64_t{1}},
                   db::Value{std::int64_t{2}}, db::Value{},
                   db::Value{}, db::Value{}});
    apache.insert({db::Value{"00000000002a"}, db::Value{std::int64_t{1}},
                   db::Value{std::int64_t{2}}, db::Value{},
                   db::Value{}, db::Value{}});
    // Exercise both physical layouts: some tables sealed columnar, some
    // left in the row-major tail.
    apache.seal_all();
    cjdbc.seal_all();
    db2.seal_all();
  }

  [[nodiscard]] Deployment deployment() const {
    Deployment d;
    d.event_tables = {{"ev_apache_web1"},
                      {"ev_tomcat_app1"},
                      {"ev_cjdbc_cj1"},
                      {"ev_mysql_db1", "ev_mysql_db2"}};
    d.services = kServices;
    return d;
  }

  db::Database db_;
};

TEST_F(FlowFixture, FlowBulkMatchesOracleForEveryId) {
  const Materializer mat(db_, deployment());
  const Result result = mat.run();
  expect_bulk_oracle_parity(db_, deployment(), result, kRequests + 10);
}

TEST_F(FlowFixture, FlowRequestAggregates) {
  const Result result = Materializer(db_, deployment()).run();
  const RequestRec* whole = result.find(2);
  ASSERT_NE(whole, nullptr);
  EXPECT_TRUE(whole->complete);
  EXPECT_GT(whole->rt, 0);
  EXPECT_GE(whole->completed, 0);

  // 17 has no apache record: partial trace, not a crash — rt falls to 0
  // (no front-tier span) but the back-tier spans are all there.
  const RequestRec* holed = result.find(17);
  ASSERT_NE(holed, nullptr);
  EXPECT_FALSE(holed->complete);
  EXPECT_EQ(holed->rt, 0);
  EXPECT_GE(holed->span_end - holed->span_begin, 3u);
  EXPECT_EQ(result.node_of(*holed, 0), "");
  EXPECT_EQ(result.node_of(*holed, 1), "app1");

  // MySQL replica routing: even ids on db1, odd on db2.
  EXPECT_EQ(result.node_of(*result.find(2), 3), "db1");
  EXPECT_EQ(result.node_of(*result.find(3), 3), "db2");
}

TEST_F(FlowFixture, FlowMaterializedTablesMatchResult) {
  const Result result = Materializer(db_, deployment()).run();
  Materializer::materialize(result, db_);

  const db::Table& spans = db_.get(Materializer::kSpansTable);
  const db::Table& reqs = db_.get(Materializer::kRequestsTable);
  ASSERT_EQ(spans.row_count(), result.spans.size());
  ASSERT_EQ(reqs.row_count(), result.requests.size());

  // Spans land grouped by request in req_id order — row i is
  // result.spans[i] exactly.
  const std::size_t rid_c = *spans.column_index("req_id");
  const std::size_t tier_c = *spans.column_index("tier");
  const std::size_t visit_c = *spans.column_index("visit");
  const std::size_t ua_c = *spans.column_index("ua_usec");
  const std::size_t incl_c = *spans.column_index("incl_usec");
  const std::size_t excl_c = *spans.column_index("excl_usec");
  for (db::RowCursor cur = spans.scan(); cur.next();) {
    const SpanRec& s = result.spans[cur.row_id()];
    EXPECT_EQ(db::value_to_string(cur.row()[rid_c]),
              IdCodec::encode(s.req_id));
    EXPECT_EQ(db::as_int(cur.row()[tier_c]), s.tier);
    EXPECT_EQ(db::as_int(cur.row()[visit_c]), s.visit);
    EXPECT_EQ(db::as_int(cur.row()[ua_c]), s.ua);
    EXPECT_EQ(db::as_int(cur.row()[incl_c]),
              core::span_inclusive(s.ua, s.ud));
    EXPECT_EQ(db::as_int(cur.row()[excl_c]),
              core::span_exclusive(s.ua, s.ud, result.calls_of(s)));
  }

  // Per-tier exclusive columns agree with the in-memory accessor.
  const std::size_t excl_db_c = *reqs.column_index("excl_mysql_usec");
  const std::size_t req_rid_c = *reqs.column_index("req_id");
  for (db::RowCursor cur = reqs.scan(); cur.next();) {
    const RequestRec& r = result.requests[cur.row_id()];
    EXPECT_EQ(db::value_to_string(cur.row()[req_rid_c]),
              IdCodec::encode(r.req_id));
    EXPECT_EQ(db::as_int(cur.row()[excl_db_c]), result.tier_exclusive(r, 3));
  }

  // materialize() is idempotent: a re-run drops and rewrites.
  Materializer::materialize(result, db_);
  EXPECT_EQ(db_.get(Materializer::kSpansTable).row_count(),
            result.spans.size());
}

TEST_F(FlowFixture, FlowServesShardedWarehouse) {
  // Spread the tiers across shards; the materializer only sees the Catalog.
  fleet::ShardedWarehouse wh(2);
  const auto copy = [&](const char* name, int shard) {
    const db::Table& src = db_.get(name);
    db::Table& dst = wh.shard(shard).create_table(name, src.schema());
    for (db::RowCursor cur = src.scan(); cur.next();) {
      dst.insert(cur.row());
    }
  };
  copy("ev_apache_web1", 0);
  copy("ev_tomcat_app1", 1);
  copy("ev_cjdbc_cj1", 0);
  copy("ev_mysql_db1", 1);
  copy("ev_mysql_db2", 0);

  const Result flat = Materializer(db_, deployment()).run();
  const Result sharded = Materializer(wh, deployment()).run();
  ASSERT_EQ(sharded.requests.size(), flat.requests.size());
  for (const RequestRec& r : flat.requests) {
    const RequestRec* other = sharded.find(r.req_id);
    ASSERT_NE(other, nullptr);
    expect_same_trace(sharded.trace(*other), flat.trace(r));
  }

  // Flow tables written into one shard are visible through the catalog.
  Materializer::materialize(sharded, wh.shard(0));
  const db::Table* spans = wh.find(Materializer::kSpansTable);
  ASSERT_NE(spans, nullptr);
  EXPECT_EQ(spans->row_count(), sharded.spans.size());
}

TEST(FlowSkewTest, FlowClampsAndCountsSkewedSpans) {
  // A chaos plan's skew fault supplies the offset; applying it to a tier's
  // timestamps makes cross-tier pairs run backwards, the corruption the
  // clamps exist for.
  const auto plan =
      chaos::FaultPlan::parse("f6 skew app1 10000000 2000000 1500\n");
  ASSERT_EQ(plan.faults().size(), 1u);
  const SimTime skew = plan.faults()[0].skew;
  ASSERT_GT(skew, 0);

  db::Database db;
  auto& apache = db.create_table("ev_apache_web1", pair_schema());
  auto& tomcat = db.create_table("ev_tomcat_app1", pair_schema());
  // Request 1: the tomcat reply timestamp was stamped by a skewed clock and
  // lands before the send; request 2's tomcat span runs entirely backwards.
  apache.insert({db::Value{IdCodec::encode(1)}, db::Value{std::int64_t{10000}},
                 db::Value{std::int64_t{20000}}, db::Value{std::int64_t{12000}},
                 db::Value{std::int64_t{12000 - skew}}});
  tomcat.insert({db::Value{IdCodec::encode(1)}, db::Value{std::int64_t{12100}},
                 db::Value{std::int64_t{18000}}, db::Value{},
                 db::Value{}});
  apache.insert({db::Value{IdCodec::encode(2)}, db::Value{std::int64_t{50000}},
                 db::Value{std::int64_t{60000}}, db::Value{},
                 db::Value{}});
  tomcat.insert({db::Value{IdCodec::encode(2)},
                 db::Value{std::int64_t{55000 + skew}},
                 db::Value{std::int64_t{55000}}, db::Value{},
                 db::Value{}});

  Deployment dep;
  dep.event_tables = {{"ev_apache_web1"}, {"ev_tomcat_app1"}};
  dep.services = {"apache", "tomcat"};
  auto& counter = obs::Registry::global().counter("flow.skewed_spans");
  const std::uint64_t before = counter.get();
  const Result result = Materializer(db, dep).run();
  EXPECT_EQ(result.skewed_spans, 2u);
  EXPECT_EQ(counter.get(), before + 2);

  // The clamps: a backwards call must not inflate exclusive time, and a
  // backwards span must not go negative.
  const core::Trace t1 = result.trace(*result.find(1));
  EXPECT_TRUE(t1.spans[0].skewed());
  EXPECT_EQ(t1.spans[0].inclusive_time(), 10000);
  EXPECT_EQ(t1.spans[0].exclusive_time(), 10000);  // dr < ds ignored
  const core::Trace t2 = result.trace(*result.find(2));
  EXPECT_TRUE(t2.spans[1].skewed());
  EXPECT_EQ(t2.spans[1].inclusive_time(), 0);  // ud < ua clamped
  EXPECT_EQ(t2.spans[1].exclusive_time(), 0);
  EXPECT_FALSE(t2.spans[0].skewed());

  // And the oracle sees the identical clamped cells.
  expect_bulk_oracle_parity(db, dep, result, 4);
}

TEST(FlowPropertyTest, FlowRandomizedBulkVsOracleParity) {
  std::mt19937_64 rng(20260809);
  for (int iter = 0; iter < 20; ++iter) {
    db::Database db;
    auto& front = db.create_table("ev_apache_web1", pair_schema());
    auto& mid = db.create_table(
        "ev_tomcat_app1", {{"req_id", db::DataType::kText},
                           {"visit", db::DataType::kInt},
                           {"ua_usec", db::DataType::kInt},
                           {"ud_usec", db::DataType::kInt},
                           {"ds0_usec", db::DataType::kInt},
                           {"dr0_usec", db::DataType::kInt}});
    auto& back1 = db.create_table("ev_mysql_db1", pair_schema());
    auto& back2 = db.create_table("ev_mysql_db2", pair_schema());

    const std::uint64_t n = 40 + rng() % 120;
    const auto coin = [&](int pct) {
      return static_cast<int>(rng() % 100) < pct;
    };
    for (std::uint64_t id = 1; id <= n; ++id) {
      const db::Value hex{IdCodec::encode(id)};
      const std::int64_t t0 =
          static_cast<std::int64_t>(rng() % 1'000'000);
      if (coin(85)) {
        front.insert({hex, db::Value{t0}, db::Value{t0 + 1000},
                      coin(70) ? db::Value{t0 + 100} : db::Value{},
                      coin(70) ? db::Value{t0 + 900} : db::Value{}});
      }
      const std::uint64_t visits = rng() % 3;  // 0 = hole in the mid tier
      for (std::uint64_t v = 0; v < visits; ++v) {
        mid.insert({hex, db::Value{static_cast<std::int64_t>(v)},
                    db::Value{t0 + 100 + static_cast<std::int64_t>(v)},
                    coin(80) ? db::Value{t0 + 800} : db::Value{},
                    db::Value{t0 + 200}, db::Value{t0 + 700}});
      }
      if (coin(75)) {
        (coin(50) ? back1 : back2)
            .insert({hex, db::Value{t0 + 250}, db::Value{t0 + 650},
                     db::Value{}, db::Value{}});
      }
    }
    if (coin(50)) front.seal_all();
    if (coin(50)) mid.seal_all();
    if (coin(50)) back1.seal_all();

    Deployment dep;
    dep.event_tables = {{"ev_apache_web1"},
                        {"ev_tomcat_app1"},
                        {"ev_mysql_db1", "ev_mysql_db2"}};
    dep.services = {"apache", "tomcat", "mysql"};
    const Result result = Materializer(db, dep).run();
    expect_bulk_oracle_parity(db, dep, result, n + 3);
  }
}

TEST(FlowOddTypesTest, FlowHandlesNumericRequestIdColumn) {
  // A req_id column of all-digit hex strings can infer as Int. The oracle
  // matches value_to_string(cell) against the canonical hex encoding, so
  // 12-digit integers whose decimal spelling is valid hex still join.
  db::Database db;
  auto& front = db.create_table("ev_apache_web1",
                                {{"req_id", db::DataType::kInt},
                                 {"ua_usec", db::DataType::kInt},
                                 {"ud_usec", db::DataType::kInt}});
  const std::int64_t decimal = 100000000000;  // "100000000000": 12 hex chars
  const std::uint64_t id = 0x100000000000ULL;
  front.insert({db::Value{decimal}, db::Value{std::int64_t{10}},
                db::Value{std::int64_t{20}}});
  front.insert({db::Value{std::int64_t{42}}, db::Value{std::int64_t{30}},
                db::Value{std::int64_t{40}}});  // "42": wrong width, ignored
  front.seal_all();

  Deployment dep;
  dep.event_tables = {{"ev_apache_web1"}};
  dep.services = {"apache"};
  const Result result = Materializer(db, dep).run();
  ASSERT_EQ(result.requests.size(), 1u);
  EXPECT_EQ(result.requests[0].req_id, id);
  EXPECT_EQ(result.find(42), nullptr);  // decimal 42 is not a 12-hex id
  const auto oracle =
      core::TraceReconstructor::for_groups(db, dep.event_tables, dep.services);
  expect_same_trace(result.trace(result.requests[0]),
                    *oracle.reconstruct(id));
}

class FlowAnalyticsFixture : public ::testing::Test {
 protected:
  /// Two tiers; requests complete 1 ms apart starting at 101 ms (so even
  /// the slow requests' start timestamps stay positive). Requests 9..13
  /// complete inside the "anomaly window" [110, 115) ms with 40 ms of
  /// extra db exclusive time, all served by db2.
  FlowAnalyticsFixture() {
    auto& front = db_.create_table("ev_apache_web1", pair_schema());
    auto& db1 = db_.create_table("ev_mysql_db1", pair_schema());
    auto& db2 = db_.create_table("ev_mysql_db2", pair_schema());
    for (std::uint64_t id = 0; id < 20; ++id) {
      const db::Value hex{IdCodec::encode(id)};
      const std::int64_t end =
          100'000 + static_cast<std::int64_t>(id + 1) * 1000;
      const bool slow = id >= 9 && id < 14;  // completes in [110, 115) ms
      const std::int64_t db_time = slow ? 40'000 : 200;
      const std::int64_t t0 = end - db_time - 400;
      front.insert({hex, db::Value{t0}, db::Value{end},
                    db::Value{t0 + 100}, db::Value{t0 + 100 + db_time}});
      (slow ? db2 : db1).insert({hex, db::Value{t0 + 100},
                                 db::Value{t0 + 100 + db_time}, db::Value{},
                                 db::Value{}});
    }
    dep_.event_tables = {{"ev_apache_web1"}, {"ev_mysql_db1", "ev_mysql_db2"}};
    dep_.services = {"apache", "mysql"};
  }

  db::Database db_;
  Deployment dep_;
};

TEST_F(FlowAnalyticsFixture, FlowAttributionBucketsAndExemplars) {
  const Result result = Materializer(db_, dep_).run();
  const Attribution attr = attribute(result, msec(5), 2);
  ASSERT_EQ(attr.tier_service.size(), 2u);
  EXPECT_EQ(attr.tier_service[1], "mysql");
  ASSERT_GE(attr.buckets.size(), 4u);

  std::size_t total = 0;
  for (const auto& b : attr.buckets) total += b.requests;
  EXPECT_EQ(total, result.requests.size());

  // The bucket covering completions 110..114 carries the db inflation and
  // its exemplars are the slowest requests, slowest first.
  const Bucket& hot = attr.buckets[2];  // [110ms, 115ms)
  EXPECT_EQ(hot.requests, 5u);
  EXPECT_GT(hot.tier_excl_ms[1], 30.0);
  ASSERT_EQ(hot.slowest.size(), 2u);
  EXPECT_GE(result.requests[hot.slowest[0]].rt,
            result.requests[hot.slowest[1]].rt);
  const Bucket& cold = attr.buckets[0];
  EXPECT_LT(cold.tier_excl_ms[1], 1.0);
}

TEST_F(FlowAnalyticsFixture, FlowDrillDownNamesTierAndNode) {
  const Result result = Materializer(db_, dep_).run();
  const DrillDown dd = drill_down(result, msec(110), msec(115), 3);
  EXPECT_EQ(dd.window_requests, 5u);
  EXPECT_EQ(dd.culprit_tier, 1);
  EXPECT_EQ(dd.culprit_service, "mysql");
  EXPECT_EQ(dd.culprit_node, "db2");
  EXPECT_GT(dd.window_excl_ms, 30.0);
  EXPECT_LT(dd.baseline_excl_ms, 1.0);
  ASSERT_EQ(dd.exemplars.size(), 3u);
  for (const auto idx : dd.exemplars) {
    const RequestRec& r = result.requests[idx];
    EXPECT_GE(r.completed, msec(110));
    EXPECT_LT(r.completed, msec(115));
  }

  const std::string text = render(result, dd);
  EXPECT_NE(text.find("culprit: tier 1 (mysql) on db2"), std::string::npos);
  EXPECT_NE(text.find("exemplar"), std::string::npos);
  EXPECT_NE(text.find("ID="), std::string::npos);  // Fig. 5 rendering inlined

  // An empty window stays calm.
  const DrillDown none = drill_down(result, msec(500), msec(600), 3);
  EXPECT_EQ(none.window_requests, 0u);
  EXPECT_EQ(none.culprit_tier, -1);
  EXPECT_TRUE(none.exemplars.empty());
}

TEST_F(FlowAnalyticsFixture, FlowWaterfallExportsRequestTracks) {
  const Result result = Materializer(db_, dep_).run();
  const DrillDown dd = drill_down(result, msec(110), msec(115), 2);
  const test::ScratchDir dir("flow_waterfall");
  const auto path = dir.path() / "waterfall.json";
  const std::size_t written =
      export_waterfalls(result, dd.exemplars, path.string());
  EXPECT_GE(written, 4u);  // 2 requests x (front span + db span or calls)

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
  EXPECT_NE(json.find("req " + IdCodec::encode(
                                   result.requests[dd.exemplars[0]].req_id)),
            std::string::npos);
  EXPECT_NE(json.find("apache visit 0"), std::string::npos);
}

}  // namespace
}  // namespace mscope::flow
