// The paper's Fig. 1 topology: Web -> App x2 -> Middleware -> DB x2, with
// ModJK balancing over the Tomcat replicas and CJDBC over the MySQL
// backends. Verifies load balancing, per-replica monitoring/transformation,
// aggregate tier metrics, and — the headline — that when only ONE MySQL
// replica stalls, the diagnosis names that node.

#include <gtest/gtest.h>

#include <filesystem>

#include "core/milliscope.h"
#include "flow/materializer.h"
#include "scratch_dir.h"

namespace mscope::core {
namespace {

namespace fs = std::filesystem;
using util::msec;
using util::sec;

class MultiNodeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TestbedConfig cfg;
    cfg.workload = 1500;
    cfg.duration = sec(12);
    cfg.nodes_per_tier = {1, 2, 1, 2};  // the paper's Fig. 1 deployment
    cfg.log_dir = test::scratch_dir("multinode");
    cfg.scenario_a = ScenarioA{};  // flush on db1 ONLY (replica 0)
    exp_ = new Experiment(cfg);
    exp_->run();
    db_ = new db::Database();
    report_ = exp_->load_warehouse(*db_);
  }
  static void TearDownTestSuite() {
    fs::remove_all(exp_->config().log_dir);
    delete exp_;
    delete db_;
  }

  static Experiment* exp_;
  static db::Database* db_;
  static transform::DataTransformer::Report report_;
};

Experiment* MultiNodeFixture::exp_ = nullptr;
db::Database* MultiNodeFixture::db_ = nullptr;
transform::DataTransformer::Report MultiNodeFixture::report_;

TEST_F(MultiNodeFixture, EveryReplicaProducesTables) {
  // 6 nodes, each with an event table + collectl, plus the per-tier extras.
  EXPECT_TRUE(db_->exists("ev_tomcat_app1"));
  EXPECT_TRUE(db_->exists("ev_tomcat_app2"));
  EXPECT_TRUE(db_->exists("ev_mysql_db1"));
  EXPECT_TRUE(db_->exists("ev_mysql_db2"));
  EXPECT_TRUE(db_->exists("res_collectl_app2"));
  EXPECT_TRUE(db_->exists("res_sarxml_cpu_db2"));
  EXPECT_EQ(db_->get(db::Database::kNodeTable).row_count(), 6u);
  EXPECT_EQ(report_.skipped(), 0u);
}

TEST_F(MultiNodeFixture, LoadIsBalancedAcrossReplicas) {
  const auto rows = [this](const char* t) {
    return static_cast<double>(db_->get(t).row_count());
  };
  EXPECT_NEAR(rows("ev_tomcat_app1") / rows("ev_tomcat_app2"), 1.0, 0.1);
  EXPECT_NEAR(rows("ev_mysql_db1") / rows("ev_mysql_db2"), 1.0, 0.1);
}

TEST_F(MultiNodeFixture, TierQueueIsSumOfReplicas) {
  const auto both = queue_length_db_multi(
      *db_, {"ev_tomcat_app1", "ev_tomcat_app2"}, msec(100), 0, sec(12));
  const auto one =
      queue_length_db(*db_, "ev_tomcat_app1", msec(100), 0, sec(12));
  ASSERT_EQ(both.size(), one.size());
  double sum_both = 0, sum_one = 0;
  for (std::size_t i = 0; i < both.size(); ++i) {
    sum_both += both[i].value;
    sum_one += one[i].value;
    EXPECT_GE(both[i].value + 1e-9, one[i].value);
  }
  EXPECT_GT(sum_both, 1.5 * sum_one);
}

TEST_F(MultiNodeFixture, DiagnosisNamesTheStalledReplica) {
  const auto diagnoses = exp_->diagnoser(*db_).diagnose(sec(12));
  ASSERT_FALSE(diagnoses.empty());
  for (const auto& d : diagnoses) {
    EXPECT_EQ(d.bottleneck_tier, 3);
    EXPECT_EQ(d.bottleneck_node, "db1") << "must single out the flushing "
                                           "replica, not db2";
    EXPECT_EQ(d.root_cause, "disk-io");
  }
}

TEST_F(MultiNodeFixture, InnocentReplicaStaysCalm) {
  const auto db2_disk =
      resource_series(*db_, "res_collectl_db2", "dsk_pctutil");
  double peak = 0;
  for (const auto& s : db2_disk) peak = std::max(peak, s.value);
  EXPECT_LT(peak, 60.0);
  const auto db1_disk =
      resource_series(*db_, "res_collectl_db1", "dsk_pctutil");
  double peak1 = 0;
  for (const auto& s : db1_disk) peak1 = std::max(peak1, s.value);
  EXPECT_GE(peak1, 99.0);
}

TEST_F(MultiNodeFixture, TracesSpanReplicas) {
  // A request's queries round-robin over the MySQL backends, so one trace
  // joins spans from both replicas' tables.
  const flow::Result result =
      flow::Materializer(*db_, flow::Deployment::from(exp_->tables(),
                                                      Testbed::services()))
          .run();
  int both_backends = 0;
  for (const flow::RequestRec& r : result.requests) {
    bool db1 = false, db2 = false;
    for (std::uint32_t i = r.span_begin; i < r.span_end; ++i) {
      const flow::SpanRec& s = result.spans[i];
      if (s.tier != 3) continue;
      const std::string& node =
          result.table_node[static_cast<std::size_t>(s.table)];
      db1 = db1 || node == "db1";
      db2 = db2 || node == "db2";
    }
    if (db1 && db2) ++both_backends;
  }
  EXPECT_GT(both_backends, 10);
}

TEST_F(MultiNodeFixture, SysVizHandlesReplicatedTiers) {
  const auto result = exp_->sysviz_reconstruct();
  const auto mon = queue_length_db_multi(
      *db_, {"ev_mysql_db1", "ev_mysql_db2"}, msec(100), 0, sec(12));
  const auto sv =
      util::integrate_deltas(result.queue_deltas[3], msec(100), 0, sec(12));
  EXPECT_GT(util::correlate_series(mon, sv, msec(100)), 0.95);
}

}  // namespace
}  // namespace mscope::core
