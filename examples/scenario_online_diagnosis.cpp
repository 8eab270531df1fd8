// Online diagnosis: catch AND localize a VSB while the experiment is still
// running. The classic milliScope workflow is post-hoc — run, transform,
// load mScopeDB, analyze. With mScopeCollector attached, the native logs
// stream into mScopeDB *during* the run, so when the OnlineVsbDetector's
// alarm opens, the per-tier queue signal derived from the live warehouse is
// already there to point at the culprit tier — seconds after the stall
// begins, not minutes after the run ends.

#include <cstdio>
#include <map>

#include "core/milliscope.h"
#include "db/sql.h"
#include "flow/attribution.h"
#include "flow/materializer.h"
#include "flow/waterfall.h"

using namespace mscope;

int main() {
  core::TestbedConfig cfg;
  cfg.workload = 1200;
  cfg.duration = util::sec(12);
  cfg.log_dir = "online_diagnosis_logs";
  cfg.scenario_a = core::ScenarioA{};  // MySQL redo-log flush stall at t=8s

  std::printf("scenario A: MySQL flush stall (%d users, %.0f s), "
              "streaming collection on\n\n",
              cfg.workload, util::to_sec(cfg.duration));
  core::Experiment exp(cfg);

  // The live anomaly detector watches every completed request...
  core::OnlineVsbDetector detector;
  const_cast<workload::ClientPool&>(exp.testbed().clients())
      .set_on_complete(
          [&](const sim::RequestPtr& r) { detector.on_complete(r); });

  // ...and mScopeCollector feeds it a queue-depth signal computed from the
  // event tables as they stream into the warehouse — with mScopeMeta on, so
  // the pipeline's own health streams into the same warehouse and every
  // stage lands on a Chrome-trace timeline.
  db::Database db;
  core::OnlineCollection::Config ccfg;
  ccfg.observability.emplace().trace = true;
  auto collection = exp.start_online(db, &detector, ccfg);

  detector.set_callback([&](const core::OnlineVsbDetector::Alarm& a) {
    if (a.closed_at < 0) {
      std::printf("[%6.2fs] VSB alarm OPEN: peak RT %.0f ms vs baseline "
                  "%.1f ms\n",
                  util::to_sec(a.opened_at), a.peak_rt_ms, a.baseline_ms);
      // The live localization: latest queue-depth estimate per tier, already
      // in hand because the warehouse has been filling all along.
      std::map<std::string, double> latest;
      for (const auto& q : detector.queue_samples()) {
        latest[q.source] = q.depth;
      }
      std::printf("         live queue depths:");
      for (const auto& [source, depth] : latest) {
        std::printf("  %s=%.0f", source.c_str(), depth);
      }
      std::printf("\n         deepest so far: %s (%.0f in flight)\n",
                  detector.peak_queue_source().c_str(),
                  detector.peak_queue_depth());
    } else {
      std::printf("[%6.2fs] alarm closed (lasted %.2f s); deepest queue "
                  "during the episode: %s (%.0f)\n",
                  util::to_sec(a.closed_at),
                  util::to_sec(a.closed_at - a.opened_at),
                  detector.peak_queue_source().c_str(),
                  detector.peak_queue_depth());
    }
  });

  exp.run();
  collection->finish();  // drain what is still in flight, finalize metadata

  const auto totals = collection->totals();
  std::printf("\ncollection: %llu records streamed, %llu batches, "
              "%llu dropped, %llu abandoned (%llu gaps, %llu bytes lost)\n",
              static_cast<unsigned long long>(totals.records_tailed),
              static_cast<unsigned long long>(totals.batches),
              static_cast<unsigned long long>(totals.dropped),
              static_cast<unsigned long long>(totals.abandoned),
              static_cast<unsigned long long>(totals.gaps),
              static_cast<unsigned long long>(totals.gap_bytes));

  // The streamed warehouse is a complete mScopeDB — the offline diagnosis
  // engine runs on it directly, no load_warehouse() pass needed. Its verdict
  // should agree with what the live signal already suggested.
  const auto diagnoses = exp.diagnoser(db).diagnose(cfg.duration);
  std::printf("\noffline confirmation from the streamed warehouse:\n");
  for (const auto& d : diagnoses) {
    std::printf("  window %.2f-%.2fs  peak %.0f ms  ->  %s at %s\n",
                util::to_sec(d.window.begin), util::to_sec(d.window.end),
                d.window.peak_rt_ms, d.root_cause.c_str(),
                d.bottleneck_node.c_str());
  }
  if (diagnoses.empty()) std::printf("  (no VSB window found)\n");

  // The same confirmation, phrased as SQL over the streamed warehouse: the
  // per-second apache tail locates the stall, and a cross-tier join of the
  // front-end requests slower than 100 ms onto their MySQL visits names the tier that
  // held them. This is the paper's diagnosis loop as two queries.
  if (db.exists("ev_apache_web1") && db.exists("ev_mysql_db1")) {
    std::printf("\ndiagnosis as SQL:\n");
    const db::Table tail = db::Sql::execute(
        db,
        "SELECT BUCKET(ua_usec, 1000000) AS sec, COUNT(*) AS n, "
        "MAX(duration_usec) AS peak_usec FROM ev_apache_web1 "
        "GROUP BY BUCKET(ua_usec, 1000000) ORDER BY peak_usec DESC LIMIT 3");
    std::printf("%s", db::Sql::format(tail).c_str());
    const db::Table blame = db::Sql::execute(
        db,
        "SELECT COUNT(*) AS slow_visits, AVG(m.ud_usec - m.ua_usec) AS "
        "avg_mysql_usec, MAX(m.ud_usec - m.ua_usec) AS peak_mysql_usec "
        "FROM ev_apache_web1 AS a JOIN ev_mysql_db1 AS m "
        "ON a.req_id = m.req_id WHERE a.duration_usec > 100000");
    std::printf("%s", db::Sql::format(blame).c_str());
  }

  // mScopeFlow: the diagnosis so far names a tier and a resource — now the
  // request-level evidence. One bulk pass materializes every request's
  // causal path, the drill-down confirms which tier's exclusive time
  // inflated inside the VSB window, and the slowest requests are rendered
  // as Fig. 5 traces + a Perfetto waterfall.
  {
    flow::Materializer mat(
        db, flow::Deployment::from(exp.tables(), core::Testbed::services()));
    const flow::Result flows = mat.run();
    flow::Materializer::materialize(flows, db);
    std::printf("\nmScopeFlow: %zu requests / %zu spans materialized "
                "(%llu skew-clamped) into %s + %s\n",
                flows.requests.size(), flows.spans.size(),
                static_cast<unsigned long long>(flows.skewed_spans),
                flow::Materializer::kSpansTable,
                flow::Materializer::kRequestsTable);
    for (const auto& d : diagnoses) {
      const flow::DrillDown dd =
          flow::drill_down(flows, d.window.begin, d.window.end, 3);
      std::printf("%s", flow::render(flows, dd).c_str());
      const std::size_t n =
          flow::export_waterfalls(flows, dd.exemplars,
                                  "online_diagnosis_waterfalls.json");
      std::printf("%zu exemplar waterfall spans -> "
                  "online_diagnosis_waterfalls.json\n",
                  n);
      if (dd.culprit_tier == d.bottleneck_tier) {
        std::printf("request-level drill-down agrees: tier %d (%s) on %s\n",
                    dd.culprit_tier, dd.culprit_service.c_str(),
                    dd.culprit_node.c_str());
      }
    }
  }

  // mScopeMeta artifacts: the run's pipeline spans as a Chrome trace (load
  // in about://tracing or ui.perfetto.dev), and the monitor's own health
  // series queryable inside the very warehouse it monitored.
  collection->pipeline().tracer()->save_chrome_json(
      "online_diagnosis_trace.json");
  std::printf("\nmScopeMeta: %zu pipeline spans -> online_diagnosis_trace.json\n",
              collection->pipeline().tracer()->spans().size());
  const auto& meta = *collection->pipeline().exporter();
  std::printf("  %s: %zu rows over %llu export ticks; %s: %zu rows\n",
              meta.metrics_table().c_str(),
              db.exists(meta.metrics_table())
                  ? db.get(meta.metrics_table()).row_count()
                  : 0,
              static_cast<unsigned long long>(meta.stats().exports),
              meta.spans_table().c_str(),
              db.exists(meta.spans_table())
                  ? db.get(meta.spans_table()).row_count()
                  : 0);
  const db::Table lag = db::Sql::execute(
      db, "SELECT MAX(value) FROM " + meta.metrics_table() +
              " WHERE name = 'collector.db1.tailer.lag_bytes'");
  std::printf("  e.g. max tailer lag on db1 during the run: %.0f bytes\n",
              db::as_double(lag.at(0, 0)).value_or(0.0));
  return 0;
}
