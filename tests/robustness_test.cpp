// Failure injection and robustness: corrupt log lines, truncated files,
// interleaved garbage, malformed XML in the SAR path, and cross-monitor
// consistency (three different tools watching one node must agree).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/milliscope.h"
#include "logging/formats.h"
#include "scratch_dir.h"
#include "transform/pipeline.h"
#include "transform/streaming.h"

namespace mscope {
namespace {

namespace fs = std::filesystem;
namespace fmt = logging::formats;
using util::msec;
using util::sec;

class RobustnessFixture : public ::testing::Test {
 protected:
  RobustnessFixture() : run_dir_(test::fresh_scratch_dir("robustness")) {
    fs::create_directories(run_dir_ / "web1");
  }
  ~RobustnessFixture() override { fs::remove_all(run_dir_); }

  void write(const std::string& file, const std::string& content) {
    std::ofstream out(run_dir_ / "web1" / file);
    out << content;
  }

  std::string apache_line(int i) {
    fmt::ApacheRecord r;
    r.ua = msec(i * 10);
    r.ud = r.ua + 5000;
    r.ds = r.ua + 500;
    r.dr = r.ud - 500;
    r.id = static_cast<std::uint64_t>(i);
    r.url = "/rubbos/ViewStory";
    r.bytes = 7000;
    return fmt::apache_access(r);
  }

  fs::path run_dir_;
};

TEST_F(RobustnessFixture, GarbageInterleavedWithValidLines) {
  std::string content;
  for (int i = 0; i < 10; ++i) {
    content += apache_line(i) + "\n";
    if (i % 3 == 0) content += "!!corrupted line segment @@@\n";
    if (i % 4 == 0) content += "\n";  // stray blank
  }
  content += "trailing garbage without newline";
  write("apache_access.log", content);

  db::Database db;
  transform::DataTransformer transformer;
  const auto report = transformer.run(run_dir_, db);
  ASSERT_EQ(report.tables_created, 1u);
  EXPECT_EQ(db.get("ev_apache_web1").row_count(), 10u);  // garbage skipped
}

TEST_F(RobustnessFixture, TruncatedLastLineIsDropped) {
  std::string content = apache_line(0) + "\n";
  const std::string full = apache_line(1);
  content += full.substr(0, full.size() / 2);  // cut mid-record
  write("apache_access.log", content);

  db::Database db;
  transform::DataTransformer transformer;
  transformer.run(run_dir_, db);
  EXPECT_EQ(db.get("ev_apache_web1").row_count(), 1u);
}

TEST_F(RobustnessFixture, EmptyLogFileProducesNoTable) {
  write("apache_access.log", "");
  db::Database db;
  transform::DataTransformer transformer;
  const auto report = transformer.run(run_dir_, db);
  EXPECT_EQ(report.tables_created, 0u);
  EXPECT_FALSE(db.exists("ev_apache_web1"));
  ASSERT_EQ(report.files.size(), 1u);
  EXPECT_TRUE(report.files[0].matched);
  EXPECT_EQ(report.files[0].entries, 0u);
}

constexpr const char* kTruncatedSarXml =
    "<sysstat><host nodename=\"web1\"><statistics><timestamp";

TEST_F(RobustnessFixture, MalformedSarXmlThrowsWithContext) {
  write("sar_cpu.xml", kTruncatedSarXml);
  db::Database db;
  transform::DataTransformer transformer;
  try {
    (void)transformer.run(run_dir_, db);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("web1/sar_cpu.xml"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(RobustnessFixture, MalformedSarXmlIsADeferralWhenStreamed) {
  // The lossy-stream contract: a live stream with holes may leave a file
  // unparseable; finalize() keeps going and counts the deferral instead.
  db::Database db;
  transform::StreamingTransformer st(db);
  st.ingest("web1", "sar_cpu.xml", kTruncatedSarXml);
  EXPECT_NO_THROW(st.finalize());
  EXPECT_EQ(st.stats().parse_deferrals, 1u);
  EXPECT_TRUE(st.outcome("web1", "sar_cpu.xml").parse_error.has_value());
  for (const auto& name : db.table_names()) {
    EXPECT_EQ(name.rfind("ms_", 0), 0u) << "dynamic table " << name;
  }
}

TEST_F(RobustnessFixture, SarXmlWithoutSamplesIsHarmless) {
  write("sar_cpu.xml", fmt::sar_xml_open("web1", 4) + fmt::sar_xml_close());
  db::Database db;
  transform::DataTransformer transformer;
  const auto report = transformer.run(run_dir_, db);
  EXPECT_EQ(report.tables_created, 0u);
}

TEST_F(RobustnessFixture, MixedInstrumentedAndBaselineLines) {
  // A server restarted mid-run without instrumentation: both line shapes in
  // one file; schema is the union with NULLs for the missing fields.
  fmt::ApacheRecord base;
  base.ua = msec(5);
  base.ud = msec(9);
  base.url = "/rubbos/Search";
  base.instrumented = false;
  write("apache_access.log",
        apache_line(0) + "\n" + fmt::apache_access(base) + "\n");
  db::Database db;
  transform::DataTransformer transformer;
  transformer.run(run_dir_, db);
  const db::Table& t = db.get("ev_apache_web1");
  ASSERT_EQ(t.row_count(), 2u);
  EXPECT_FALSE(db::is_null(t.at(0, "req_id")));
  EXPECT_TRUE(db::is_null(t.at(1, "req_id")));
  EXPECT_FALSE(db::is_null(t.at(1, "duration_usec")));
}

// --- cross-monitor consistency ----------------------------------------------

class CrossMonitorFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::TestbedConfig cfg;
    cfg.workload = 1200;
    cfg.duration = sec(8);
    cfg.log_dir = test::scratch_dir("crossmon");
    cfg.scenario_a = core::ScenarioA{.first_flush = sec(4)};
    exp_ = new core::Experiment(cfg);
    exp_->run();
    db_ = new db::Database();
    exp_->load_warehouse(*db_);
  }
  static void TearDownTestSuite() {
    fs::remove_all(exp_->config().log_dir);
    delete exp_;
    delete db_;
  }
  static core::Experiment* exp_;
  static db::Database* db_;
};

core::Experiment* CrossMonitorFixture::exp_ = nullptr;
db::Database* CrossMonitorFixture::db_ = nullptr;

void expect_series_agree(const util::Series& a, const util::Series& b,
                         double tolerance) {
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].time, b[i].time);
    EXPECT_NEAR(a[i].value, b[i].value, tolerance) << "at " << a[i].time;
  }
}

TEST_F(CrossMonitorFixture, SarTextAgreesWithCollectlOnWeb1) {
  // Two different tools, two different formats, two different parsers — the
  // same node: the user% series must agree up to print precision.
  const auto sar = core::resource_series(*db_, "res_sar_cpu_web1",
                                         "user_pct");
  const auto collectl = core::resource_series(*db_, "res_collectl_web1",
                                              "cpu_user_pct");
  expect_series_agree(sar, collectl, 0.11);  // sar 2dp vs collectl 1dp
}

TEST_F(CrossMonitorFixture, SarXmlAgreesWithCollectlOnDb1) {
  const auto sar = core::resource_series(*db_, "res_sarxml_cpu_db1",
                                         "user_pct");
  const auto collectl = core::resource_series(*db_, "res_collectl_db1",
                                              "cpu_user_pct");
  expect_series_agree(sar, collectl, 0.11);
}

TEST_F(CrossMonitorFixture, IostatAgreesWithCollectlOnDb1Disk) {
  const auto iostat = core::resource_series(*db_, "res_iostat_db1",
                                            "util_pct");
  const auto collectl = core::resource_series(*db_, "res_collectl_db1",
                                              "dsk_pctutil");
  expect_series_agree(iostat, collectl, 0.11);
}

TEST_F(CrossMonitorFixture, CollectlPlainAgreesWithCsvOnMid1) {
  const auto plain = core::resource_series(*db_, "res_collectlp_mid1",
                                           "user_pct");
  const auto csv = core::resource_series(*db_, "res_collectl_mid1",
                                         "cpu_user_pct");
  expect_series_agree(plain, csv, 0.11);
}

TEST_F(CrossMonitorFixture, IowaitVisibleOnDb1DuringFlush) {
  // The flush saturates the disk while MySQL's workers block: the node sits
  // idle-on-IO, which SAR must report as %iowait.
  const auto iowait = core::resource_series(*db_, "res_sarxml_cpu_db1",
                                            "iowait_pct");
  double peak = 0;
  for (const auto& s : iowait) {
    if (s.time >= sec(4) && s.time < sec(5)) peak = std::max(peak, s.value);
  }
  EXPECT_GT(peak, 30.0);
}

}  // namespace
}  // namespace mscope
