#include "core/consistency.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "core/milliscope.h"
#include "scratch_dir.h"
#include "util/id_codec.h"

namespace mscope::core {
namespace {

using util::msec;
using util::sec;

db::Schema parent_schema() {
  return {{"req_id", db::DataType::kText},
          {"ua_usec", db::DataType::kInt},
          {"ud_usec", db::DataType::kInt},
          {"ds_usec", db::DataType::kInt},
          {"dr_usec", db::DataType::kInt}};
}

db::Schema leaf_schema() {
  return {{"req_id", db::DataType::kText},
          {"ua_usec", db::DataType::kInt},
          {"ud_usec", db::DataType::kInt}};
}

db::Table::Row row(const char* id, std::int64_t ua, std::int64_t ud,
                   std::int64_t ds, std::int64_t dr) {
  return {db::Value{std::string(id)}, db::Value{ua}, db::Value{ud},
          db::Value{ds}, db::Value{dr}};
}

TEST(WarehouseValidator, CleanWarehousePasses) {
  db::Database db;
  auto& p = db.create_table("ev_p", parent_schema());
  p.insert(row("A", 0, msec(10), msec(1), msec(9)));
  auto& c = db.create_table("ev_c", leaf_schema());
  c.insert({db::Value{std::string("A")}, db::Value{msec(1) + 100},
            db::Value{msec(9) - 100}});
  db.record_load("f1", "ev_p", 1, 0, msec(10));
  db.record_load("f2", "ev_c", 1, msec(1), msec(9));

  const auto report = WarehouseValidator().validate(db, {{"ev_p"}, {"ev_c"}});
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.rows_checked, 2u);
  EXPECT_EQ(report.edges_checked, 1u);
}

TEST(WarehouseValidator, DetectsTimestampDisorder) {
  db::Database db;
  auto& p = db.create_table("ev_p", parent_schema());
  p.insert(row("A", msec(10), msec(5), msec(1), msec(2)));  // ua > ud
  const auto report = WarehouseValidator().validate(db, {{"ev_p"}});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].what, "ua > ud");
}

TEST(WarehouseValidator, DetectsDownstreamOutsideVisit) {
  db::Database db;
  auto& p = db.create_table("ev_p", parent_schema());
  p.insert(row("A", msec(5), msec(10), msec(1), msec(9)));  // ds < ua
  const auto report = WarehouseValidator().validate(db, {{"ev_p"}});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].what, "ds < ua");
}

TEST(WarehouseValidator, DetectsBrokenNesting) {
  db::Database db;
  auto& p = db.create_table("ev_p", parent_schema());
  p.insert(row("A", 0, msec(10), msec(1), msec(3)));
  auto& c = db.create_table("ev_c", leaf_schema());
  // Child claims to run [5ms, 8ms] but the parent's window is [1ms, 3ms].
  c.insert({db::Value{std::string("A")}, db::Value{msec(5)},
            db::Value{msec(8)}});
  const auto report = WarehouseValidator().validate(db, {{"ev_p"}, {"ev_c"}});
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].what.find("not nested"), std::string::npos);
}

TEST(WarehouseValidator, OrphanChildIsNotAViolation) {
  db::Database db;
  db.create_table("ev_p", parent_schema());
  auto& c = db.create_table("ev_c", leaf_schema());
  c.insert({db::Value{std::string("Z")}, db::Value{msec(5)},
            db::Value{msec(8)}});
  const auto report = WarehouseValidator().validate(db, {{"ev_p"}, {"ev_c"}});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.edges_checked, 0u);
}

TEST(WarehouseValidator, DetectsCatalogMismatch) {
  db::Database db;
  auto& p = db.create_table("ev_p", parent_schema());
  p.insert(row("A", 0, msec(10), msec(1), msec(9)));
  db.record_load("f1", "ev_p", 7, 0, msec(10));  // wrong count
  db.record_load("f2", "ghost", 1, 0, 1);        // missing table
  const auto report = WarehouseValidator().validate(db, {{"ev_p"}});
  EXPECT_EQ(report.violations.size(), 2u);
}

TEST(WarehouseValidator, ViolationCapRespected) {
  db::Database db;
  auto& p = db.create_table("ev_p", parent_schema());
  for (int i = 0; i < 50; ++i) {
    p.insert(row("A", msec(10), msec(5), msec(1), msec(2)));
  }
  WarehouseValidator::Config cfg;
  cfg.max_violations = 5;
  const auto report = WarehouseValidator(cfg).validate(db, {{"ev_p"}});
  EXPECT_EQ(report.violations.size(), 5u);
}

TEST(WarehouseValidator, RealRunIsFullyConsistent) {
  // The strongest end-to-end property: a full monitored run, transformed
  // and loaded, satisfies every structural invariant.
  TestbedConfig cfg;
  cfg.workload = 800;
  cfg.duration = sec(6);
  cfg.log_dir = test::scratch_dir("consistency");
  cfg.scenario_a = ScenarioA{.first_flush = sec(3)};
  Experiment exp(cfg);
  exp.run();
  db::Database db;
  exp.load_warehouse(db);

  const auto report =
      WarehouseValidator().validate(db, exp.tables().event_tables);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.rows_checked, 1000u);
  EXPECT_GT(report.edges_checked, 1000u);
  std::filesystem::remove_all(cfg.log_dir);
}

}  // namespace
}  // namespace mscope::core
