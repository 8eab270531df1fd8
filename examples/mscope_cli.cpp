// mscope — command-line front end for the whole workflow:
//
//   mscope run [--workload N] [--duration SEC] [--scenario a|b|c|none]
//              [--log-dir DIR] [--no-monitors] [--seed N]
//              [--archive DIR] [--report]
//   mscope report --archive DIR
//   mscope query  --archive DIR "SELECT ... FROM ... [WHERE ...]"
//   mscope sql    --archive DIR ["SELECT ..."] [--file F] [--explain]
//
// `run` simulates the RUBBoS testbed, transforms the logs into mScopeDB,
// prints the diagnosis report, and optionally archives the warehouse (an
// archive is a directory of binary table snapshots, <table>.mseg).
// `report` re-analyzes a previously archived warehouse without re-running;
// `query` runs ad-hoc SQL against it; `sql` is the full-featured front end
// to the vectorized engine (query from argument, file or stdin, EXPLAIN
// plans, caret-annotated syntax errors); `stats` surfaces mScopeMeta — the
// pipeline's self-observability metrics — either live (streaming a short
// run with observability on) or from the `mscope_meta_*` tables of an
// archived warehouse.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/milliscope.h"
#include "core/report.h"
#include "core/trace.h"
#include "db/sql.h"
#include "db/sqlengine/engine.h"
#include "db/sqlengine/token.h"
#include "fleet/topology.h"
#include "flow/attribution.h"
#include "flow/materializer.h"
#include "obs/metrics.h"
#include "transform/warehouse_io.h"
#include "util/id_codec.h"

using namespace mscope;

namespace {

struct Args {
  std::string command;
  std::string sql;
  std::string sql_file;
  bool explain = false;
  int workload = 2000;
  double duration_sec = 20.0;
  std::string scenario = "a";
  std::string log_dir = "mscope_run_logs";
  std::string archive;
  bool monitors = true;
  bool want_report = true;
  std::uint64_t seed = 42;
  double bucket_ms = 500.0;
  int top_k = 3;
};

void usage() {
  std::printf(
      "usage:\n"
      "  mscope_cli run [--workload N] [--duration SEC] "
      "[--scenario a|b|c|none]\n"
      "                 [--log-dir DIR] [--no-monitors] [--seed N]\n"
      "                 [--archive DIR] [--no-report]\n"
      "  mscope_cli report --archive DIR\n"
      "  mscope_cli query --archive DIR \"SELECT ...\"\n"
      "  mscope_cli sql --archive DIR [\"SELECT ...\"] [--file F] "
      "[--explain]\n"
      "      reads the query from the argument, --file, or stdin;\n"
      "      --explain prints the physical plan with row counts\n"
      "  mscope_cli stats [--archive DIR] [run flags]\n"
      "      live metrics registry + mscope_meta_* tables; with --archive,\n"
      "      reads the meta tables of a previously archived warehouse\n"
      "  mscope_cli trace --archive DIR <req_id>\n"
      "      renders one request's Fig. 5 happens-before diagram;\n"
      "      <req_id> is decimal or the 12-hex form from the logs\n"
      "  mscope_cli flow --archive DIR [--bucket MS] [--top K]\n"
      "      bulk-materializes every request's trace into\n"
      "      mscope_flow_spans/_requests and prints the per-bucket\n"
      "      per-tier latency attribution with top-K slow exemplars\n");
}

std::optional<Args> parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (flag == "--workload") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.workload = std::atoi(v);
    } else if (flag == "--duration") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.duration_sec = std::atof(v);
    } else if (flag == "--scenario") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.scenario = v;
    } else if (flag == "--log-dir") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.log_dir = v;
    } else if (flag == "--archive") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.archive = v;
    } else if (flag == "--seed") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (flag == "--file") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.sql_file = v;
    } else if (flag == "--explain") {
      a.explain = true;
    } else if (flag == "--no-monitors") {
      a.monitors = false;
    } else if (flag == "--no-report") {
      a.want_report = false;
    } else if (flag == "--bucket") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.bucket_ms = std::atof(v);
    } else if (flag == "--top") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.top_k = std::atoi(v);
    } else if (flag.rfind("--", 0) != 0 &&
               (a.command == "query" || a.command == "sql" ||
                a.command == "trace")) {
      a.sql = flag;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return std::nullopt;
    }
  }
  return a;
}

/// Discovers the deployment from the warehouse itself: every replica of a
/// tier appears in the ms_node metadata table. `services` (if non-null)
/// receives the per-tier service names.
core::Diagnoser::Tables discover_tables(const db::Database& db,
                                        std::vector<std::string>* services_out) {
  static const char* kPrefixes[4] = {"ev_apache", "ev_tomcat", "ev_cjdbc",
                                     "ev_mysql"};
  core::Diagnoser::Tables tables;
  const db::Table& node_table = db.get(db::Database::kNodeTable);
  const auto service_col = node_table.column_index("service");
  const auto node_col = node_table.column_index("node");
  for (int tier = 0; tier < 4; ++tier) {
    const std::string& service =
        core::Testbed::services()[static_cast<std::size_t>(tier)];
    std::vector<std::string> events, collectl, nodes;
    for (db::RowCursor cur = node_table.scan(); cur.next();) {
      if (db::value_to_string(cur.row()[*service_col]) != service) continue;
      const std::string node = db::value_to_string(cur.row()[*node_col]);
      events.push_back(std::string(kPrefixes[tier]) + "_" + node);
      collectl.push_back("res_collectl_" + node);
      nodes.push_back(node);
    }
    if (events.empty()) {
      // Fall back to the single-node default names.
      const std::string node = core::Testbed::replica_name(tier, 0);
      events.push_back(std::string(kPrefixes[tier]) + "_" + node);
      collectl.push_back("res_collectl_" + node);
      nodes.push_back(node);
    }
    if (services_out != nullptr) services_out->push_back(service);
    tables.event_tables.push_back(std::move(events));
    tables.collectl_tables.push_back(std::move(collectl));
    tables.nodes.push_back(std::move(nodes));
  }
  return tables;
}

/// Loads the snapshot archive `dir` into `db`. A directory with no table
/// snapshot in it is an error, not an empty warehouse.
void load_archive(db::Database& db, const std::string& dir) {
  if (transform::WarehouseIO::load_snapshot(db, dir).empty()) {
    throw std::runtime_error(dir + ": no warehouse snapshot (*.mseg)");
  }
}

void print_report(const db::Database& db, util::SimTime horizon) {
  std::vector<std::string> services;
  const core::Diagnoser::Tables tables = discover_tables(db, &services);
  core::Diagnoser diagnoser(db, tables);
  const auto pit = diagnoser.pit(horizon);
  const auto diagnoses = diagnoser.diagnose(horizon);
  const auto contributions = flow::tier_contributions(
      flow::Materializer(db, flow::Deployment::from(tables, services)).run());
  std::printf("%s", core::render_report(diagnoses, pit, contributions).c_str());

  // Which pages suffer: per-interaction breakdown with VLRT share.
  const auto breakdown =
      core::interaction_breakdown(db, tables.event_tables.front().front());
  if (!breakdown.empty()) {
    std::printf("\ntop interactions (count / mean ms / max ms / VLRTs):\n");
    for (std::size_t i = 0; i < breakdown.size() && i < 8; ++i) {
      const auto& s = breakdown[i];
      std::printf("  %-32s %6zu  %8.2f  %8.0f  %zu\n", s.path.c_str(),
                  s.count, s.mean_rt_ms, s.max_rt_ms, s.vlrt_count);
    }
  }
}

int cmd_run(const Args& a) {
  core::TestbedConfig cfg;
  cfg.workload = a.workload;
  cfg.duration = util::secf(a.duration_sec);
  cfg.log_dir = a.log_dir;
  cfg.event_monitors = a.monitors;
  cfg.seed = a.seed;
  if (a.scenario == "a") cfg.scenario_a = core::ScenarioA{};
  else if (a.scenario == "b") cfg.scenario_b = core::ScenarioB::figure8();
  else if (a.scenario == "c") cfg.scenario_c = core::ScenarioC{};
  else if (a.scenario != "none") {
    std::fprintf(stderr, "unknown scenario: %s\n", a.scenario.c_str());
    return 2;
  }

  std::printf("running: workload %d, %.1f s, scenario %s, monitors %s\n",
              cfg.workload, a.duration_sec, a.scenario.c_str(),
              cfg.event_monitors ? "on" : "off");
  core::Experiment exp(cfg);
  exp.run();
  const auto& done = exp.testbed().clients().completed();
  std::printf("completed %zu requests (%.0f req/s), mean RT %.2f ms\n",
              done.size(),
              static_cast<double>(done.size()) / a.duration_sec,
              core::mean_response_ms(done));

  db::Database db;
  const auto report = exp.load_warehouse(db);
  std::printf("transformed %zu files into %zu tables (%zu rows)\n",
              report.files.size(), report.tables_created,
              report.rows_loaded);

  if (a.want_report) print_report(db, cfg.duration);
  if (!a.archive.empty()) {
    transform::WarehouseIO::save_snapshot(db, a.archive);
    std::printf("warehouse archived to %s\n", a.archive.c_str());
  }
  return 0;
}

int cmd_report(const Args& a) {
  if (a.archive.empty()) {
    usage();
    return 2;
  }
  db::Database db;
  load_archive(db, a.archive);
  // Horizon: widest time range recorded in the load catalog.
  util::SimTime horizon = 0;
  const db::Table& catalog = db.get(db::Database::kLoadCatalogTable);
  const auto t_max_col = catalog.column_index("t_max_usec");
  for (db::RowCursor cur = catalog.scan(); cur.next();) {
    if (const auto t = db::as_int(cur.row()[*t_max_col])) {
      horizon = std::max(horizon, *t);
    }
  }
  std::printf("archive %s: %zu tables, horizon %.1f s\n", a.archive.c_str(),
              db.table_names().size(), util::to_sec(horizon));
  print_report(db, horizon + util::sec(1));
  return 0;
}

int cmd_query(const Args& a) {
  if (a.archive.empty() || a.sql.empty()) {
    usage();
    return 2;
  }
  db::Database db;
  load_archive(db, a.archive);
  try {
    const db::Table result = db::Sql::execute(db, a.sql);
    std::printf("%s", db::Sql::format(result).c_str());
    std::printf("(%zu rows)\n", result.row_count());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return 0;
}

/// Full-featured SQL front end: query from the argument, a file, or stdin;
/// EXPLAIN via flag or inline; syntax errors rendered with a caret under
/// the offending token.
int cmd_sql(const Args& a) {
  if (a.archive.empty()) {
    usage();
    return 2;
  }
  std::string sql = a.sql;
  if (sql.empty() && !a.sql_file.empty()) {
    std::ifstream in(a.sql_file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", a.sql_file.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    sql = buf.str();
  }
  if (sql.empty()) {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    sql = buf.str();
  }
  if (sql.find_first_not_of(" \t\r\n") == std::string::npos) {
    std::fprintf(stderr, "empty query\n");
    return 2;
  }
  if (a.explain) sql = "EXPLAIN " + sql;

  db::Database db;
  load_archive(db, a.archive);
  try {
    const db::Table result = db::Sql::execute(db, sql);
    std::printf("%s", db::Sql::format(result).c_str());
    if (result.name() != "plan") {
      std::printf("(%zu rows)\n", result.row_count());
    }
  } catch (const db::sqlengine::SqlError& e) {
    std::fprintf(stderr, "%s\n%s\n", e.what(),
                 db::sqlengine::error_snippet(sql, e.pos()).c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return 0;
}

void print_registry(const std::vector<obs::MetricSample>& snap) {
  std::printf("%-44s %-9s %s\n", "metric", "kind", "value");
  for (const auto& s : snap) {
    if (s.kind == obs::MetricSample::Kind::kHistogram) {
      std::printf("%-44s %-9s count=%llu mean=%.1f p50=%lld p95=%lld "
                  "p99=%lld max=%lld\n",
                  s.name.c_str(), to_string(s.kind),
                  static_cast<unsigned long long>(s.count), s.value,
                  static_cast<long long>(s.p50), static_cast<long long>(s.p95),
                  static_cast<long long>(s.p99), static_cast<long long>(s.max));
    } else {
      std::printf("%-44s %-9s %.0f\n", s.name.c_str(), to_string(s.kind),
                  s.value);
    }
  }
}

/// Prints the meta tables a warehouse carries: for the metrics series, just
/// the final export tick (the end-of-run state); for the others, row counts.
void print_meta_tables(const db::Database& db) {
  bool any = false;
  for (const auto& name : db.table_names()) {
    if (name.rfind("mscope_meta_", 0) != 0) continue;
    any = true;
    const db::Table& t = db.get(name);
    std::printf("%s: %zu rows\n", name.c_str(), t.row_count());
  }
  if (!any) {
    std::printf("no mscope_meta_* tables (run collection with observability "
                "enabled to record them)\n");
    return;
  }
  if (const db::Table* metrics = db.find("mscope_meta_metrics")) {
    const auto last = *db::as_int(
        db::Sql::execute(db, "SELECT MAX(ts_usec) FROM mscope_meta_metrics")
            .at(0, 0));
    // Split the final tick into per-hop collection gauges — grouped by the
    // node id baked into the series name, so a 64-server fleet reads as 64
    // lines instead of 500 — and everything else (process/db counters).
    const std::size_t ts_c = *metrics->column_index("ts_usec");
    const std::size_t name_c = *metrics->column_index("name");
    const std::size_t kind_c = *metrics->column_index("kind");
    const std::size_t val_c = *metrics->column_index("value");
    // Later rows overwrite earlier ones: the finish() scrape can land on
    // the same tick as the last periodic export, and the end-of-run state
    // is the one worth showing.
    std::map<std::string, std::map<std::string, double>> hops;
    std::map<std::string, std::pair<std::string, double>> rest;
    for (std::size_t i = 0; i < metrics->row_count(); ++i) {
      if (std::get<std::int64_t>(metrics->at(i, ts_c)) != last) continue;
      const std::string name = db::value_to_string(metrics->at(i, name_c));
      const double value = std::get<double>(metrics->at(i, val_c));
      fleet::GaugeKey key;
      if (fleet::parse_hop_gauge(name, &key)) {
        hops[key.node][key.gauge] = value;
      } else {
        rest[name] = {db::value_to_string(metrics->at(i, kind_c)), value};
      }
    }
    std::printf("\nfinal export tick (t=%.2fs):\n", util::to_sec(last));
    for (const auto& [name, kv] : rest)
      std::printf("  %-44s %-9s %.0f\n", name.c_str(), kv.first.c_str(),
                  kv.second);
    if (!hops.empty()) {
      std::printf("\nper-hop collection gauges by node id:\n");
      for (const auto& [node, gauges] : hops) {
        std::printf("  %-10s", node.c_str());
        for (const auto& [gauge, value] : gauges)
          std::printf(" %s=%.0f", gauge.c_str(), value);
        std::printf("\n");
      }
    }
  }
}

/// Renders one request's Fig. 5 happens-before diagram from an archived
/// warehouse, read off the bulk flow result (which materializes every
/// request's spans: linear time, memory growing with the span count).
int cmd_trace(const Args& a) {
  if (a.archive.empty() || a.sql.empty()) {
    usage();
    return 2;
  }
  // Accept the wire form (12 uppercase/lowercase hex) or plain decimal.
  std::optional<std::uint64_t> id = util::IdCodec::decode(a.sql);
  if (!id && !a.sql.empty() &&
      a.sql.find_first_not_of("0123456789") == std::string::npos) {
    id = std::strtoull(a.sql.c_str(), nullptr, 10);
  }
  if (!id) {
    std::fprintf(stderr, "bad request id: %s\n", a.sql.c_str());
    return 2;
  }

  db::Database db;
  load_archive(db, a.archive);
  std::vector<std::string> services;
  const core::Diagnoser::Tables tables = discover_tables(db, &services);
  const flow::Result result =
      flow::Materializer(db, flow::Deployment::from(tables, services)).run();
  const flow::RequestRec* req = result.find(*id);
  if (req == nullptr) {
    std::fprintf(stderr, "request %s not found in %s\n",
                 util::IdCodec::encode(*id).c_str(), a.archive.c_str());
    return 1;
  }
  const core::Trace trace = result.trace(*req);
  std::printf("%s", core::render(trace).c_str());
  std::printf("response time %.3f ms; per-tier exclusive:",
              util::to_msec(trace.response_time()));
  for (std::size_t tier = 0; tier < services.size(); ++tier) {
    const util::SimTime excl =
        result.tier_exclusive(*req, static_cast<int>(tier));
    std::printf(" %s %.3f ms%s", services[tier].c_str(), util::to_msec(excl),
                tier + 1 < services.size() ? " |" : "\n");
  }
  return 0;
}

/// Bulk-materializes the whole run's traces and prints the per-bucket
/// per-tier latency attribution.
int cmd_flow(const Args& a) {
  if (a.archive.empty()) {
    usage();
    return 2;
  }
  db::Database db;
  load_archive(db, a.archive);
  std::vector<std::string> services;
  const core::Diagnoser::Tables tables = discover_tables(db, &services);

  flow::Materializer mat(db, flow::Deployment::from(tables, services));
  const flow::Result result = mat.run();
  flow::Materializer::materialize(result, db);
  std::printf("materialized %zu spans / %zu requests (%llu skew-clamped) "
              "into %s + %s\n",
              result.spans.size(), result.requests.size(),
              static_cast<unsigned long long>(result.skewed_spans),
              flow::Materializer::kSpansTable,
              flow::Materializer::kRequestsTable);

  const auto attr =
      flow::attribute(result, util::msecf(a.bucket_ms),
                      static_cast<std::size_t>(std::max(a.top_k, 0)));
  std::printf("%s", flow::render(result, attr).c_str());

  // The slowest bucket's exemplars, as Fig. 5 traces.
  const flow::Bucket* worst = nullptr;
  for (const auto& b : attr.buckets) {
    if (b.requests > 0 && (worst == nullptr || b.max_rt_ms > worst->max_rt_ms)) {
      worst = &b;
    }
  }
  if (worst != nullptr && !worst->slowest.empty()) {
    std::printf("\nslowest bucket at %.0f ms — top %zu requests:\n",
                util::to_msec(worst->begin), worst->slowest.size());
    for (const std::uint32_t idx : worst->slowest) {
      std::printf("%s",
                  core::render(result.trace(result.requests[idx])).c_str());
    }
  }
  return 0;
}

int cmd_stats(const Args& a) {
  if (!a.archive.empty()) {
    db::Database db;
    load_archive(db, a.archive);
    std::printf("meta tables of %s:\n", a.archive.c_str());
    print_meta_tables(db);
    return 0;
  }

  // No archive: stream a run with mScopeMeta on and show what it recorded.
  core::TestbedConfig cfg;
  cfg.workload = a.workload;
  cfg.duration = util::secf(a.duration_sec);
  cfg.log_dir = a.log_dir;
  cfg.event_monitors = a.monitors;
  cfg.seed = a.seed;
  if (a.scenario == "a") cfg.scenario_a = core::ScenarioA{};
  else if (a.scenario == "b") cfg.scenario_b = core::ScenarioB::figure8();
  else if (a.scenario == "c") cfg.scenario_c = core::ScenarioC{};

  std::printf("streaming %d users for %.1f s with observability on...\n\n",
              cfg.workload, a.duration_sec);
  core::Experiment exp(cfg);
  db::Database db;
  core::OnlineCollection::Config ccfg;
  ccfg.observability.emplace().trace = true;
  auto collection = exp.start_online(db, nullptr, ccfg);
  exp.run();
  collection->finish();

  std::printf("live metrics registry:\n");
  print_registry(obs::Registry::global().snapshot());
  std::printf("\ndogfooded into the warehouse:\n");
  print_meta_tables(db);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse(argc, argv);
  if (!args) {
    usage();
    return 2;
  }
  // A damaged archive (torn or bit-flipped file) surfaces as a
  // runtime_error with byte-offset context from the loaders; report it
  // instead of dying on an uncaught throw.
  try {
    if (args->command == "run") return cmd_run(*args);
    if (args->command == "report") return cmd_report(*args);
    if (args->command == "query") return cmd_query(*args);
    if (args->command == "sql") return cmd_sql(*args);
    if (args->command == "stats") return cmd_stats(*args);
    if (args->command == "trace") return cmd_trace(*args);
    if (args->command == "flow") return cmd_flow(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mscope_cli: error: %s\n", e.what());
    return 1;
  }
  usage();
  return 2;
}
