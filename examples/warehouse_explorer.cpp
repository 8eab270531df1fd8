// Exploring mScopeDB the way a researcher would (paper Section III-C):
// inspect the static metadata tables, list the dynamically created tables,
// run ad-hoc queries across monitors, join event tables on the request ID,
// interrogate everything through mScopeSQL, and archive the warehouse to
// disk for later re-analysis.

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/milliscope.h"
#include "db/sql.h"
#include "fleet/fleet_collection.h"
#include "flow/attribution.h"
#include "flow/materializer.h"
#include "obs/meta_exporter.h"
#include "obs/metrics.h"
#include "transform/warehouse_io.h"

using namespace mscope;

namespace {

void print_table(const db::Table& t, std::size_t limit = 5) {
  std::printf("-- %s (%zu rows)\n   ", t.name().c_str(), t.row_count());
  for (const auto& col : t.schema()) std::printf("%s  ", col.name.c_str());
  std::printf("\n");
  for (db::RowCursor cur = t.scan(); cur.next() && cur.row_id() < limit;) {
    std::printf("   ");
    for (std::size_t c = 0; c < t.column_count(); ++c) {
      std::string cell = db::value_to_string(cur.row()[c]);
      if (cell.size() > 28) cell = cell.substr(0, 25) + "...";
      std::printf("%s  ", cell.c_str());
    }
    std::printf("\n");
  }
}

/// A one-cell SQL answer, as a double.
double scalar(const db::Catalog& db, const std::string& sql) {
  return db::as_double(db::Sql::execute(db, sql).at(0, 0)).value_or(0.0);
}

int run_explorer() {
  core::TestbedConfig cfg;
  cfg.workload = 800;
  cfg.duration = util::sec(6);
  cfg.log_dir = "explorer_logs";
  cfg.scenario_a = core::ScenarioA{.first_flush = util::sec(3)};

  core::Experiment exp(cfg);
  exp.run();
  db::Database db;
  exp.load_warehouse(db);

  // The four static metadata tables.
  std::printf("=== static metadata ===\n");
  print_table(db.get(db::Database::kExperimentTable));
  print_table(db.get(db::Database::kNodeTable));
  print_table(db.get(db::Database::kLoadCatalogTable), 14);

  // The dynamically created tables.
  std::printf("\n=== dynamic tables ===\n");
  for (const auto& name : db.table_names()) {
    if (name.rfind("ms_", 0) == 0) continue;
    std::printf("  %-24s %7zu rows, %zu columns\n", name.c_str(),
                db.get(name).row_count(), db.get(name).column_count());
  }

  // Ad-hoc query 1: "was there disk activity while response times spiked?"
  std::printf("\n=== disk activity during the hottest 500 ms ===\n");
  const auto pit = core::pit_response_time_db(db, "ev_apache_web1",
                                              util::msec(50));
  util::SimTime hot = 0;
  double hottest = 0;
  for (const auto& s : pit.max_rt_ms) {
    if (s.value > hottest) {
      hottest = s.value;
      hot = s.time;
    }
  }
  const auto window = db::Sql::execute(
      db, "SELECT ts_usec, dsk_pctutil, dsk_quelen FROM res_collectl_db1 "
          "WHERE ts_usec >= " + std::to_string(hot - util::msec(250)) +
              " AND ts_usec < " + std::to_string(hot + util::msec(250)));
  print_table(window, 10);

  // Ad-hoc query 2: join Apache and MySQL activity of the same requests.
  std::printf("\n=== apache x mysql join on request ID ===\n");
  const db::Table slowest = db::Sql::execute(
      db, "SELECT duration_usec FROM ev_apache_web1 "
          "ORDER BY duration_usec DESC LIMIT 20");
  const std::string cutoff =
      db::value_to_string(slowest.at(slowest.row_count() - 1, 0));
  const double joined = scalar(
      db, "SELECT COUNT(*) FROM ev_apache_web1 AS a JOIN ev_mysql_db1 AS m "
          "ON a.req_id = m.req_id WHERE a.duration_usec >= " + cutoff);
  std::printf("apache requests of >= %s usec (the 20 slowest) joined to "
              "%.0f mysql visits\n",
              cutoff.c_str(), joined);

  // SQL panel: the same questions, phrased through mScopeSQL. The engine
  // reaches every table in the warehouse — event monitors, resource
  // monitors, and (below) the meta tables mScopeMeta exports.
  std::printf("\n=== SQL panel ===\n");
  const auto panel = [&db](const char* title, const std::string& sql) {
    std::printf("-- %s\n   sql> %s\n%s", title, sql.c_str(),
                db::Sql::format(db::Sql::execute(db, sql), 8).c_str());
  };
  panel("events: slowest servlets (apache tier)",
        "SELECT url, COUNT(*) AS n, AVG(duration_usec) AS avg_usec, "
        "MAX(duration_usec) AS peak_usec "
        "FROM ev_apache_web1 GROUP BY url ORDER BY peak_usec DESC LIMIT 5");
  panel("resources: db disk in the hottest second",
        "SELECT BUCKET(ts_usec, 1000000) AS sec, MAX(dsk_pctutil) AS util, "
        "MAX(dsk_quelen) AS quelen "
        "FROM res_collectl_db1 GROUP BY BUCKET(ts_usec, 1000000) "
        "ORDER BY util DESC LIMIT 3");

  // Self-observability panel: everything above bumped the process-wide
  // metrics registry (inserts, SQL scans, zone-map skips). Dogfood it —
  // export the registry into this very warehouse and query the monitor's
  // own health with the same SQL engine it measures.
  std::printf("\n=== mScopeMeta: the warehouse observing itself ===\n");
  obs::MetaExporter meta(db, obs::Registry::global());
  meta.export_metrics(cfg.duration);
  print_table(db.get(meta.metrics_table()), 12);
  const double skips = scalar(
      db, "SELECT MAX(value) FROM mscope_meta_metrics "
          "WHERE name = 'db.sql.segments_skipped'");
  const double scans = scalar(
      db, "SELECT MAX(value) FROM mscope_meta_metrics "
          "WHERE name = 'db.sql.segments_scanned'");
  std::printf("zone maps skipped %.0f of %.0f sealed segments so far\n",
              skips, skips + scans);

  // The SQL engine can interrogate the meta tables too — including the
  // counters its own panels above just bumped, exported by mScopeMeta.
  panel("meta: what did SQL execution itself cost?",
        "SELECT name, MAX(value) AS total FROM mscope_meta_metrics "
        "WHERE name LIKE 'db.sql.%' GROUP BY name ORDER BY name");

  // mScopeFlow panel: bulk-materialize every request's causal path into the
  // warehouse, then query the flow tables like any other table — the
  // per-request per-tier exclusive times are now first-class warehouse
  // citizens, not a demo binary's printout.
  std::printf("\n=== mScopeFlow: whole-run trace analytics ===\n");
  {
    flow::Materializer mat(
        db, flow::Deployment::from(exp.tables(), core::Testbed::services()));
    const flow::Result flows = mat.run();
    flow::Materializer::materialize(flows, db);
    print_table(db.get(flow::Materializer::kRequestsTable), 5);
    const auto attr = flow::attribute(flows, util::sec(1), 1);
    std::printf("-- per-second latency attribution\n%s",
                flow::render(flows, attr).c_str());
    panel("flow: which tier holds the slow requests?",
          "SELECT complete, COUNT(*) AS n, AVG(excl_mysql_usec) AS "
          "avg_db_usec, MAX(excl_mysql_usec) AS peak_db_usec "
          "FROM mscope_flow_requests WHERE rt_usec > 100000 "
          "GROUP BY complete");
  }

  // mScopeFleet panel: the same experiment collected live through a small
  // two-level tree into a 2-shard warehouse. The tree reports its own
  // health into the merged view it fills — read it back grouped by the hop
  // node id baked into each series name.
  std::printf("\n=== mScopeFleet: per-hop health grouped by node id ===\n");
  core::TestbedConfig fleet_cfg = cfg;
  fleet_cfg.log_dir = "explorer_fleet_logs";
  core::Experiment fleet_exp(fleet_cfg);
  fleet::FleetCollection::Config fc;
  fc.topology.levels = 2;
  fc.topology.racks = 2;
  fc.topology.shards = 2;
  fc.observability.emplace();
  fleet::ShardedWarehouse fleet_db(fc.topology.shards);
  fleet::FleetCollection tree(fleet_exp.testbed(), fleet_db, nullptr, fc);
  fleet_exp.run();
  tree.finish();

  const db::Table& gauges = fleet_db.get("mscope_meta_metrics");
  const auto last_tick = static_cast<std::int64_t>(
      scalar(fleet_db, "SELECT MAX(ts_usec) FROM mscope_meta_metrics"));
  const std::size_t ts_c = *gauges.column_index("ts_usec");
  const std::size_t name_c = *gauges.column_index("name");
  const std::size_t val_c = *gauges.column_index("value");
  // Later rows overwrite earlier ones: finish()'s final scrape can share
  // the last periodic tick, and the end-of-run state is the one to show.
  std::map<std::string, std::map<std::string, double>> hops;
  for (std::size_t i = 0; i < gauges.row_count(); ++i) {
    if (std::get<std::int64_t>(gauges.at(i, ts_c)) != last_tick) continue;
    fleet::GaugeKey key;
    if (fleet::parse_hop_gauge(db::value_to_string(gauges.at(i, name_c)),
                               &key)) {
      hops[key.node][key.gauge] = std::get<double>(gauges.at(i, val_c));
    }
  }
  for (const auto& [node, series] : hops) {
    std::printf("   %-8s", node.c_str());
    for (const auto& [gauge, value] : series)
      std::printf(" %s=%.0f", gauge.c_str(), value);
    std::printf("\n");
  }
  // The merged catalog answers SQL about the tree itself the same way it
  // answers SQL about the servers the tree monitors.
  std::printf("-- sql over the merged %d-shard view\n%s", fc.topology.shards,
              db::Sql::format(
                  db::Sql::execute(
                      fleet_db,
                      "SELECT name, MAX(value) AS v FROM mscope_meta_metrics "
                      "WHERE name LIKE 'fleet.%' GROUP BY name "
                      "ORDER BY name LIMIT 8"),
                  8)
                  .c_str());
  std::filesystem::remove_all(fleet_cfg.log_dir);

  // Archive the warehouse and restore it into a fresh database.
  const std::filesystem::path archive = "warehouse_archive";
  transform::WarehouseIO::save_snapshot(db, archive);
  db::Database restored;
  const auto loaded =
      transform::WarehouseIO::load_snapshot(restored, archive);
  std::printf("\narchived %zu tables; restored %zu tables; "
              "apache rows: %zu == %zu\n",
              db.table_names().size(), loaded.size(),
              db.get("ev_apache_web1").row_count(),
              restored.get("ev_apache_web1").row_count());
  return db.get("ev_apache_web1").row_count() ==
                 restored.get("ev_apache_web1").row_count()
             ? 0
             : 1;
}

}  // namespace

int main() {
  // A damaged archive surfaces as a runtime_error with byte-offset context
  // from the loaders; report it instead of dying on an uncaught throw.
  try {
    return run_explorer();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warehouse_explorer: error: %s\n", e.what());
    return 1;
  }
}
