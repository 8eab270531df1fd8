// Extending milliScope (the paper calls the framework "easy to extend the
// monitoring scope"): add a home-grown resource monitor with its own log
// format, teach mScopeDataTransformer to parse it with a declarative
// token-instruction — no new parser code — and query the result from
// mScopeDB alongside the built-in monitors.

#include <cstdio>

#include "core/milliscope.h"
#include "db/sql.h"
#include "logging/facility.h"
#include "monitors/resource_monitor.h"
#include "transform/pipeline.h"
#include "util/time_format.h"

using namespace mscope;

namespace {

/// A "netstat-like" monitor: samples the NIC byte counters and logs a
/// compact custom line: "NET <hh:mm:ss.mmm> rx=<bytes/s> tx=<bytes/s>".
class NetstatMonitor final : public monitors::ResourceMonitor {
 public:
  NetstatMonitor(sim::Simulation& sim, sim::Node& node,
                 logging::LoggingFacility& facility, Config cfg)
      : ResourceMonitor(sim, node, facility, cfg),
        file_(&facility.open("netstat.log")) {}

 protected:
  void write_banner() override {
    facility_.write(*file_, "# custom netstat monitor", 0);
  }
  void write_sample(const sim::Node::Counters& prev,
                    const sim::Node::Counters& cur) override {
    const double dt = static_cast<double>(cur.elapsed - prev.elapsed) / 1e6;
    if (dt <= 0) return;
    char buf[128];
    std::snprintf(buf, sizeof(buf), "NET %s rx=%.0f tx=%.0f",
                  util::TimeFormat::hms_milli(cur.elapsed).c_str(),
                  static_cast<double>(cur.net_rx - prev.net_rx) / dt,
                  static_cast<double>(cur.net_tx - prev.net_tx) / dt);
    facility_.write(*file_, buf, cfg_.cpu_per_sample);
  }

 private:
  logging::LogFile* file_;
};

}  // namespace

int main() {
  core::TestbedConfig cfg;
  cfg.workload = 1000;
  cfg.duration = util::sec(5);
  cfg.log_dir = "custom_monitor_logs";

  core::Experiment exp(cfg);

  // Deploy the custom monitor on the database node.
  logging::LoggingFacility netstat_fac(
      exp.testbed().simulation(), exp.testbed().node(3),
      {cfg.log_dir / "db1", true});
  monitors::ResourceMonitor::Config rc;
  rc.interval = util::msec(100);
  NetstatMonitor netstat(exp.testbed().simulation(), exp.testbed().node(3),
                         netstat_fac, rc);
  netstat.start();

  exp.run();
  netstat_fac.flush_all();

  // Teach the transformer the new format: one regex token instruction.
  db::Database db;
  transform::DataTransformer transformer;
  transform::Declaration d;
  d.parser_id = "token_lines";
  d.file_name = "netstat.log";
  d.source = "netstat";
  d.table_prefix = "res_netstat";
  d.monitor_name = "custom netstat monitor";
  d.comment_prefix = "#";
  d.tokens.push_back(
      {R"(^NET ([0-9:.]+) rx=(\d+) tx=(\d+)$)", {"ts", "rx_bps", "tx_bps"}});
  d.time_fields = {{"ts", transform::TimeEncoding::kHmsMilli}};
  transformer.declarations().add(d);
  const auto report = transformer.run(cfg.log_dir, db);
  std::printf("transformer loaded %zu tables (%zu rows)\n",
              report.tables_created, report.rows_loaded);

  // Query it like any built-in table.
  const db::Table& t = db.get("res_netstat_db1");
  std::printf("netstat table: %zu samples, schema:", t.row_count());
  for (const auto& col : t.schema()) {
    std::printf(" %s:%s", col.name.c_str(),
                std::string(to_string(col.type)).c_str());
  }
  std::printf("\n");
  const db::Table rx = db::Sql::execute(
      db, "SELECT AVG(rx_bps), MAX(rx_bps) FROM res_netstat_db1");
  std::printf("db1 NIC rx: mean %.0f B/s, peak %.0f B/s\n",
              *db::as_double(rx.at(0, 0)), *db::as_double(rx.at(0, 1)));

  // Cross-monitor join: is network traffic aligned with CPU busy?
  const auto net = core::resource_series(db, "res_netstat_db1", "rx_bps");
  const auto cpu = core::resource_series(db, "res_collectl_db1",
                                         "cpu_user_pct");
  std::printf("corr(db1 rx, db1 cpu_user) = %.2f\n",
              util::correlate_series(net, cpu, util::msec(200)));
  return t.row_count() > 10 ? 0 : 1;
}
