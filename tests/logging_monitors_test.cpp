#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "logging/facility.h"
#include "logging/formats.h"
#include "monitors/event_monitor.h"
#include "monitors/resource_monitor.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/server.h"
#include "scratch_dir.h"
#include "util/id_codec.h"

namespace mscope {
namespace {

namespace fs = std::filesystem;
namespace fmt = logging::formats;
using util::msec;
using util::sec;

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(LogFile, WritesLinesAndCounts) {
  test::ScratchDir dir{"logging"};
  const fs::path p = dir.path() / "sub" / "x.log";
  {
    logging::LogFile f(p);
    f.write_line("hello");
    f.write_raw("a\nb\n");
    EXPECT_EQ(f.bytes_written(), 6u + 4u);
    EXPECT_EQ(f.records(), 2u);
  }
  EXPECT_EQ(slurp(p), "hello\na\nb\n");
}

TEST(LoggingFacility, ChargesCpuAndDirtiesPageCache) {
  test::ScratchDir dir{"logging"};
  sim::Simulation sim;
  sim::Node::Config nc;
  nc.cores = 2;
  sim::Node node(sim, nc);
  logging::LoggingFacility fac(sim, node, {dir.path(), true});
  auto& f = fac.open("a.log");
  fac.write(f, "0123456789", 25);
  sim.run_until(msec(1));
  EXPECT_EQ(node.cpu().busy_system(), 25);
  EXPECT_EQ(node.page_cache().dirty_bytes(), 11);  // line + newline
  EXPECT_EQ(fac.bytes_written(), 11u);
  EXPECT_EQ(fac.records(), 1u);
}

TEST(LoggingFacility, ModelCostsOffIsFree) {
  test::ScratchDir dir{"logging"};
  sim::Simulation sim;
  sim::Node::Config nc;
  sim::Node node(sim, nc);
  logging::LoggingFacility fac(sim, node, {dir.path(), false});
  fac.write(fac.open("a.log"), "line", 100);
  sim.run_until(msec(1));
  EXPECT_EQ(node.cpu().busy_system(), 0);
  EXPECT_EQ(node.page_cache().dirty_bytes(), 0);
}

TEST(LoggingFacility, OpenReturnsSameFile) {
  test::ScratchDir dir{"logging"};
  sim::Simulation sim;
  sim::Node::Config nc;
  sim::Node node(sim, nc);
  logging::LoggingFacility fac(sim, node, {dir.path(), true});
  EXPECT_EQ(&fac.open("a.log"), &fac.open("a.log"));
}

TEST(Formats, ApacheInstrumentedVsBaseline) {
  fmt::ApacheRecord r;
  r.ua = sec(12) + msec(345);
  r.ud = r.ua + msec(7);
  r.ds = r.ua + msec(1);
  r.dr = r.ud - msec(1);
  r.id = 0x2A;
  r.url = "/rubbos/ViewStory";
  r.bytes = 7000;
  const std::string inst = fmt::apache_access(r);
  EXPECT_NE(inst.find("ID=00000000002A"), std::string::npos);
  EXPECT_NE(inst.find(" ua="), std::string::npos);
  EXPECT_NE(inst.find(" 7000 "), std::string::npos);
  EXPECT_NE(inst.find(std::to_string(msec(7))), std::string::npos);  // %D
  r.instrumented = false;
  const std::string base = fmt::apache_access(r);
  EXPECT_EQ(base.find("ID="), std::string::npos);
  EXPECT_EQ(base.find(" ua="), std::string::npos);
  EXPECT_LT(base.size(), inst.size());
}

TEST(Formats, TomcatVariableWidth) {
  fmt::TomcatRecord r;
  r.ua = sec(1);
  r.ud = sec(1) + msec(5);
  r.id = 7;
  r.servlet = "/rubbos/ViewStory";
  r.calls = {{sec(1) + 100, sec(1) + 200}, {sec(1) + 300, sec(1) + 400}};
  const std::string line = fmt::tomcat_monitor(r);
  EXPECT_NE(line.find("calls=2"), std::string::npos);
  EXPECT_NE(line.find("ds0="), std::string::npos);
  EXPECT_NE(line.find("dr1="), std::string::npos);
  EXPECT_EQ(line.find("ds2="), std::string::npos);
}

TEST(Formats, MysqlCarriesIdAsComment) {
  fmt::MysqlRecord r;
  r.ua = sec(2);
  r.ud = sec(2) + 500;
  r.id = 0xFF;
  r.sql = "SELECT 1";
  const std::string line = fmt::mysql_general(r);
  EXPECT_NE(line.find("/*ID=0000000000FF*/"), std::string::npos);
  EXPECT_EQ(util::IdCodec::extract(line), 0xFFu);
}

TEST(Formats, SarTextRowHasSixPercentColumns) {
  fmt::CpuRow c{msec(100), 0.5, 0.25, 0.05, 0.20};
  const std::string row = fmt::sar_text_cpu_row(c);
  EXPECT_NE(row.find("00:00:00.100"), std::string::npos);
  EXPECT_NE(row.find("50.00"), std::string::npos);
  EXPECT_NE(row.find("25.00"), std::string::npos);
}

TEST(Formats, SarXmlIsWellFormedSnippet) {
  const std::string doc = fmt::sar_xml_open("web1", 4) +
                          fmt::sar_xml_cpu_timestamp(
                              {msec(50), 0.1, 0.2, 0.3, 0.4}) +
                          fmt::sar_xml_close();
  EXPECT_NE(doc.find("<sysstat>"), std::string::npos);
  EXPECT_NE(doc.find("nodename=\"web1\""), std::string::npos);
  EXPECT_NE(doc.find("</sysstat>"), std::string::npos);
}

// --- event monitor end-to-end through a server -------------------------------

struct MonitorRig {
  test::ScratchDir dir{"logging"};
  sim::Simulation sim;
  sim::Network net{sim, {}};
  std::unique_ptr<sim::Node> node;
  std::unique_ptr<sim::Server> server;
  std::unique_ptr<logging::LoggingFacility> fac;
  std::unique_ptr<monitors::EventMonitor> monitor;

  explicit MonitorRig(monitors::EventMonitor::TierKind kind,
                      bool instrumented = true) {
    sim::Node::Config nc;
    nc.cores = 4;
    node = std::make_unique<sim::Node>(sim, nc);
    sim::Server::Config sc;
    sc.tier = 0;
    sc.workers = 10;
    server = std::make_unique<sim::Server>(sim, *node, net, sc);
    fac = std::make_unique<logging::LoggingFacility>(
        sim, *node, logging::LoggingFacility::Config{dir.path(), true});
    static const monitors::InteractionInfo info{"/rubbos/ViewStory",
                                                "SELECT * FROM stories"};
    monitor = std::make_unique<monitors::EventMonitor>(
        *fac, monitors::EventMonitor::default_config(kind, instrumented),
        [](int) -> const monitors::InteractionInfo& { return info; });
    server->set_hooks(monitor.get());
  }

  void run_one_request() {
    auto req = std::make_shared<sim::Request>();
    req->id = 42;
    req->records.resize(1);
    req->demands.resize(1);
    sim::TierDemand d;
    d.cpu_pre = 100;
    req->demands[0].push_back(d);
    server->accept(req, [] {});
    sim.run_until(sec(1));
    fac->flush_all();
  }
};

TEST(EventMonitor, ApacheWritesParseableInstrumentedLine) {
  MonitorRig rig(monitors::EventMonitor::TierKind::kApache);
  rig.run_one_request();
  const std::string content = slurp(rig.dir.path() / "apache_access.log");
  EXPECT_NE(content.find("ID=00000000002A"), std::string::npos);
  EXPECT_NE(content.find("ua="), std::string::npos);
  EXPECT_EQ(rig.monitor->records_written(), 1u);
}

TEST(EventMonitor, MysqlBaselineWritesNothing) {
  MonitorRig rig(monitors::EventMonitor::TierKind::kMysql,
                 /*instrumented=*/false);
  rig.run_one_request();
  const std::string content = slurp(rig.dir.path() / "mysql_general.log");
  EXPECT_TRUE(content.empty());
}

TEST(EventMonitor, InstrumentedWritesMoreBytesThanBaseline) {
  std::uint64_t inst_bytes = 0, base_bytes = 0;
  {
    MonitorRig rig(monitors::EventMonitor::TierKind::kApache, true);
    rig.run_one_request();
    inst_bytes = rig.fac->bytes_written();
  }
  {
    MonitorRig rig(monitors::EventMonitor::TierKind::kApache, false);
    rig.run_one_request();
    base_bytes = rig.fac->bytes_written();
  }
  EXPECT_GT(inst_bytes, base_bytes * 3 / 2);
}

// --- resource monitors -------------------------------------------------------

TEST(ResourceMonitor, SamplesAtConfiguredInterval) {
  test::ScratchDir dir{"logging"};
  sim::Simulation sim;
  sim::Node::Config nc;
  sim::Node node(sim, nc);
  logging::LoggingFacility fac(sim, node, {dir.path(), true});
  monitors::ResourceMonitor::Config rc;
  rc.interval = msec(50);
  monitors::CollectlMonitor mon(sim, node, fac, rc,
                                monitors::CollectlMonitor::Output::kCsv);
  mon.start();
  sim.run_until(sec(2));
  EXPECT_NEAR(static_cast<double>(mon.samples()), 40.0, 1.0);
  fac.flush_all();
  const std::string csv = slurp(dir.path() / "collectl.csv");
  EXPECT_NE(csv.find("#Date,Time,[CPU]User%"), std::string::npos);
}

TEST(ResourceMonitor, StopHaltsSampling) {
  test::ScratchDir dir{"logging"};
  sim::Simulation sim;
  sim::Node::Config nc;
  sim::Node node(sim, nc);
  logging::LoggingFacility fac(sim, node, {dir.path(), true});
  monitors::ResourceMonitor::Config rc;
  rc.interval = msec(10);
  monitors::IostatMonitor mon(sim, node, fac, rc);
  mon.start();
  sim.run_until(msec(100));
  mon.stop();
  const auto samples = mon.samples();
  sim.run_until(sec(1));
  EXPECT_LE(mon.samples(), samples + 1);
}

TEST(ResourceMonitor, SarXmlFinalizeMakesWellFormedDocument) {
  test::ScratchDir dir{"logging"};
  sim::Simulation sim;
  sim::Node::Config nc;
  sim::Node node(sim, nc);
  logging::LoggingFacility fac(sim, node, {dir.path(), true});
  monitors::ResourceMonitor::Config rc;
  rc.interval = msec(20);
  monitors::SarMonitor mon(sim, node, fac, rc,
                           monitors::SarMonitor::Output::kXml);
  mon.start();
  sim.run_until(msec(200));
  mon.finalize();
  mon.finalize();  // idempotent
  const std::string xml = slurp(dir.path() / "sar_cpu.xml");
  EXPECT_NE(xml.find("</sysstat>"), std::string::npos);
  EXPECT_EQ(xml.find("</sysstat>"), xml.rfind("</sysstat>"));
}

TEST(ResourceMonitor, SarTextRepeatsHeaderPeriodically) {
  test::ScratchDir dir{"logging"};
  sim::Simulation sim;
  sim::Node::Config nc;
  sim::Node node(sim, nc);
  logging::LoggingFacility fac(sim, node, {dir.path(), true});
  monitors::ResourceMonitor::Config rc;
  rc.interval = msec(10);
  monitors::SarMonitor mon(sim, node, fac, rc,
                           monitors::SarMonitor::Output::kText);
  mon.start();
  sim.run_until(msec(500));  // 50 samples -> 3 headers (every 20 rows)
  fac.flush_all();
  const std::string text = slurp(dir.path() / "sar_cpu.log");
  std::size_t headers = 0, pos = 0;
  while ((pos = text.find("%user", pos)) != std::string::npos) {
    ++headers;
    pos += 5;
  }
  EXPECT_GE(headers, 2u);
}

}  // namespace
}  // namespace mscope
