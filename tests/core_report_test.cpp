#include "core/report.h"

#include <gtest/gtest.h>

#include "db/database.h"
#include "flow/attribution.h"
#include "flow/materializer.h"
#include "util/id_codec.h"

namespace mscope::core {
namespace {

using util::msec;

db::Schema event_schema(bool with_calls) {
  db::Schema s{{"req_id", db::DataType::kText},
               {"ua_usec", db::DataType::kInt},
               {"ud_usec", db::DataType::kInt},
               {"ds_usec", db::DataType::kInt},
               {"dr_usec", db::DataType::kInt}};
  if (with_calls) {
    s = {{"req_id", db::DataType::kText},
         {"ua_usec", db::DataType::kInt},
         {"ud_usec", db::DataType::kInt},
         {"ds0_usec", db::DataType::kInt},
         {"dr0_usec", db::DataType::kInt},
         {"ds1_usec", db::DataType::kInt},
         {"dr1_usec", db::DataType::kInt}};
  }
  return s;
}

/// Materializes `tables` ([tier][replica]) and reads the per-tier
/// contributions off the spans.
std::vector<TierContribution> contributions(
    const db::Database& db, std::vector<std::vector<std::string>> tables,
    std::vector<std::string> services, util::SimTime t0 = 0,
    util::SimTime t1 = 0) {
  flow::Deployment dep;
  dep.event_tables = std::move(tables);
  dep.services = std::move(services);
  return flow::tier_contributions(flow::Materializer(db, std::move(dep)).run(),
                                  t0, t1);
}

db::Value id(std::uint64_t n) { return db::Value{util::IdCodec::encode(n)}; }

TEST(TierContributions, ExclusiveSubtractsDownstreamWaits) {
  db::Database db;
  auto& front = db.create_table("ev_front", event_schema(false));
  // inclusive 10 ms, waits 7 ms -> exclusive 3 ms.
  front.insert({id(1), db::Value{msec(0)}, db::Value{msec(10)},
                db::Value{msec(1)}, db::Value{msec(8)}});
  auto& back = db.create_table("ev_back", event_schema(false));
  // leaf: no ds/dr values -> exclusive == inclusive (7 ms).
  back.insert({id(1), db::Value{msec(1)}, db::Value{msec(8)}, db::Value{},
               db::Value{}});

  const auto c =
      contributions(db, {{"ev_front"}, {"ev_back"}}, {"front", "back"});
  ASSERT_EQ(c.size(), 2u);
  EXPECT_DOUBLE_EQ(c[0].mean_inclusive_ms, 10.0);
  EXPECT_DOUBLE_EQ(c[0].mean_exclusive_ms, 3.0);
  EXPECT_DOUBLE_EQ(c[1].mean_exclusive_ms, 7.0);
  EXPECT_NEAR(c[0].share, 0.3, 1e-9);
  EXPECT_NEAR(c[1].share, 0.7, 1e-9);
  EXPECT_EQ(c[0].visits, 1u);
}

TEST(TierContributions, VariableWidthCallColumns) {
  db::Database db;
  auto& t = db.create_table("ev_mid", event_schema(true));
  // inclusive 20 ms; two calls totaling 12 ms -> exclusive 8 ms.
  t.insert({id(1), db::Value{msec(0)}, db::Value{msec(20)},
            db::Value{msec(2)}, db::Value{msec(8)}, db::Value{msec(10)},
            db::Value{msec(16)}});
  const auto c = contributions(db, {{"ev_mid"}}, {"mid"});
  ASSERT_EQ(c.size(), 1u);
  EXPECT_DOUBLE_EQ(c[0].mean_exclusive_ms, 8.0);
}

TEST(TierContributions, TimeWindowFilters) {
  db::Database db;
  auto& t = db.create_table("ev_x", event_schema(false));
  t.insert({id(1), db::Value{msec(0)}, db::Value{msec(10)}, db::Value{},
            db::Value{}});
  t.insert({id(2), db::Value{msec(100)}, db::Value{msec(140)}, db::Value{},
            db::Value{}});
  const auto all = contributions(db, {{"ev_x"}}, {"x"});
  EXPECT_DOUBLE_EQ(all[0].mean_inclusive_ms, 25.0);
  const auto late = contributions(db, {{"ev_x"}}, {"x"}, msec(50), msec(200));
  EXPECT_DOUBLE_EQ(late[0].mean_inclusive_ms, 40.0);
  EXPECT_EQ(late[0].visits, 1u);
}

TEST(TierContributions, MissingTableYieldsEmptyEntry) {
  db::Database db;
  const auto c = contributions(db, {{"nope"}}, {"ghost"});
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].service, "ghost");
  EXPECT_EQ(c[0].visits, 0u);
  EXPECT_DOUBLE_EQ(c[0].mean_exclusive_ms, 0.0);
}

TEST(TierContributions, EveryReplicaOfATierCounts) {
  db::Database db;
  auto& db1 = db.create_table("ev_db1", event_schema(false));
  auto& db2 = db.create_table("ev_db2", event_schema(false));
  db1.insert({id(1), db::Value{msec(0)}, db::Value{msec(2)}, db::Value{},
              db::Value{}});
  db2.insert({id(2), db::Value{msec(0)}, db::Value{msec(6)}, db::Value{},
              db::Value{}});
  const auto c = contributions(db, {{"ev_db1", "ev_db2"}}, {"mysql"});
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].visits, 2u);
  EXPECT_DOUBLE_EQ(c[0].mean_inclusive_ms, 4.0);
}

TEST(TierContributions, NonCanonicalIdDoesNotCount) {
  // Only the canonical 12-uppercase-hex request id joins: a lowercase
  // spelling or a NULL id is not a request the flow layer can attribute.
  db::Database db;
  auto& t = db.create_table("ev_x", event_schema(false));
  t.insert({id(1), db::Value{msec(0)}, db::Value{msec(10)}, db::Value{},
            db::Value{}});
  t.insert({db::Value{std::string("00000000002a")}, db::Value{msec(0)},
            db::Value{msec(90)}, db::Value{}, db::Value{}});
  t.insert({db::Value{}, db::Value{msec(0)}, db::Value{msec(90)}, db::Value{},
            db::Value{}});
  const auto c = contributions(db, {{"ev_x"}}, {"x"});
  EXPECT_EQ(c[0].visits, 1u);
  EXPECT_DOUBLE_EQ(c[0].mean_inclusive_ms, 10.0);
}

TEST(RenderReport, ContainsVerdictAndEvidence) {
  PitSeries pit;
  pit.overall_avg_ms = 10.0;
  pit.overall_p50_ms = 8.0;
  pit.max_rt_ms = {{0, 400.0}};
  pit.bucket = msec(50);

  Diagnosis d;
  d.window = {msec(100), msec(200), 400.0};
  d.bottleneck_node = "db1";
  d.bottleneck_tier = 3;
  d.root_cause = "disk-io";
  d.pushback.growing_tiers = {0, 1, 2, 3};
  d.pushback.deepest_growing = 3;
  d.pushback.cross_tier = true;
  d.evidence.push_back({"db1", "dsk_pctutil", 100.0, 5.0, 0.8});

  const std::string report = render_report({d}, pit, {});
  EXPECT_NE(report.find("disk-io at db1"), std::string::npos);
  EXPECT_NE(report.find("cross-tier amplification"), std::string::npos);
  EXPECT_NE(report.find("dsk_pctutil"), std::string::npos);
  EXPECT_NE(report.find("40.0x"), std::string::npos);
}

TEST(RenderReport, NoBottlenecksMessage) {
  PitSeries pit;
  pit.overall_avg_ms = 5.0;
  const std::string report = render_report({}, pit, {});
  EXPECT_NE(report.find("no very short bottlenecks"), std::string::npos);
}

TEST(RenderReport, ContributionsTable) {
  PitSeries pit;
  pit.overall_avg_ms = 5.0;
  std::vector<TierContribution> c{{"apache", 0.5, 4.0, 0.25, 100},
                                  {"mysql", 1.5, 1.5, 0.75, 250}};
  const std::string report = render_report({}, pit, c);
  EXPECT_NE(report.find("apache"), std::string::npos);
  EXPECT_NE(report.find("75.0%"), std::string::npos);
}

}  // namespace
}  // namespace mscope::core
