// Quickstart: run a monitored RUBBoS experiment with a database-IO very
// short bottleneck, push the logs through mScopeDataTransformer into
// mScopeDB, and let the diagnosis engine find the root cause.
//
// This walks every layer of milliScope end to end — the workflow of the
// paper's Section V-A case study.

#include <cstdio>

#include "core/milliscope.h"
#include "core/trace.h"
#include "flow/materializer.h"

using namespace mscope;

int main() {
  // 1. Configure the testbed: 2000 concurrent users, 20 s, scenario A
  //    (periodic MySQL redo-log flush saturating the DB disk).
  core::TestbedConfig cfg;
  cfg.workload = 2000;
  cfg.duration = util::sec(20);
  cfg.log_dir = "quickstart_logs";
  cfg.scenario_a = core::ScenarioA{};  // first flush at 8 s, every 10 s

  core::Experiment exp(cfg);
  std::printf("running %d users for %.0f s of simulated time...\n",
              cfg.workload, util::to_sec(cfg.duration));
  exp.run();

  const auto& completed = exp.testbed().clients().completed();
  std::printf("completed requests: %zu  (events executed: %llu)\n",
              completed.size(),
              static_cast<unsigned long long>(
                  exp.testbed().simulation().executed()));

  // 2. Transform all native logs and load the warehouse.
  db::Database db;
  const auto report = exp.load_warehouse(db);
  std::printf("transformer: %zu tables created, %zu rows loaded, "
              "%zu files skipped\n",
              report.tables_created, report.rows_loaded, report.skipped());

  // 3. Point-In-Time response time (paper Fig. 2).
  const auto pit = core::pit_response_time_db(db, exp.event_tables().front(),
                                              util::msec(50));
  std::printf("overall avg response time: %.2f ms, PIT peak/avg: %.1fx\n",
              pit.overall_avg_ms, pit.peak_to_average());

  // 4. Diagnose.
  const auto diagnoses = exp.diagnoser(db).diagnose(cfg.duration);
  std::printf("%zu very-short-bottleneck window(s) found\n", diagnoses.size());
  for (const auto& d : diagnoses) {
    std::printf(
        "  window [%.2fs, %.2fs]  peak %.0f ms  bottleneck=%s  cause=%s  "
        "cross-tier pushback=%s\n",
        util::to_sec(d.window.begin), util::to_sec(d.window.end),
        d.window.peak_rt_ms, d.bottleneck_node.c_str(), d.root_cause.c_str(),
        d.pushback.cross_tier ? "yes" : "no");
    for (const auto& e : d.evidence) {
      std::printf("    evidence: %s %s in-window=%.1f outside=%.1f "
                  "corr(front queue)=%.2f\n",
                  e.node.c_str(), e.metric.c_str(), e.in_window, e.outside,
                  e.corr_with_front_queue);
    }
  }

  // 5. Reconstruct every request's causal path (paper Fig. 5) by joining
  //    the event tables on the propagated request ID; show one.
  const flow::Result flows =
      flow::Materializer(
          db, flow::Deployment::from(exp.tables(), core::Testbed::services()))
          .run();
  if (!flows.requests.empty()) {
    const flow::RequestRec& req = flows.requests[flows.requests.size() / 2];
    std::printf("\nexample causal path:\n%s",
                core::render(flows.trace(req)).c_str());
  }
  return 0;
}
