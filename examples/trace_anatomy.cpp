// Anatomy of one traced request (the paper's Fig. 5): the request ID that
// Apache mints into the URL, its propagation into the SQL comment, the four
// timestamps each event mScopeMonitor records, and the reconstructed
// happens-before path — plus each server's exclusive contribution to the
// response time.

#include <cstdio>

#include "core/milliscope.h"
#include "core/trace.h"
#include "flow/attribution.h"
#include "flow/materializer.h"
#include "util/id_codec.h"
#include "workload/rubbos.h"

using namespace mscope;

int main() {
  core::TestbedConfig cfg;
  cfg.workload = 500;
  cfg.duration = util::sec(5);
  cfg.log_dir = "trace_logs";

  core::Experiment exp(cfg);
  exp.run();
  db::Database db;
  exp.load_warehouse(db);

  // How the ID travels (paper Appendix A).
  const std::uint64_t id = 42;
  const auto& ix = workload::Rubbos::interactions()[0];
  std::printf("ID propagation for request %llu:\n",
              static_cast<unsigned long long>(id));
  std::printf("  browser  : GET %s\n", ix.url.c_str());
  std::printf("  apache   : GET %s\n",
              util::IdCodec::tag_url(ix.url, id).c_str());
  std::printf("  tomcat   : %s\n",
              util::IdCodec::tag_sql(ix.sql_template, id).c_str());

  // Pick the slowest completed request and reconstruct it from mScopeDB.
  const auto& completed = exp.testbed().clients().completed();
  const sim::RequestPtr* slowest = nullptr;
  for (const auto& r : completed) {
    if (slowest == nullptr ||
        r->response_time() > (*slowest)->response_time()) {
      slowest = &r;
    }
  }
  if (slowest == nullptr) {
    std::printf("no completed requests\n");
    return 1;
  }

  const flow::Result flows =
      flow::Materializer(
          db, flow::Deployment::from(exp.tables(), core::Testbed::services()))
          .run();
  const flow::RequestRec* rec = flows.find((*slowest)->id);
  if (rec == nullptr) {
    std::printf("trace not found in warehouse\n");
    return 1;
  }
  const core::Trace trace = flows.trace(*rec);
  std::printf("\nslowest request (%.2f ms), reconstructed from the event "
              "tables by joining on the request ID:\n\n%s",
              util::to_msec((*slowest)->response_time()),
              core::render(trace).c_str());

  const int mismatches = core::compare_with_truth(trace, **slowest);
  std::printf("\ntimestamps vs simulator ground truth: %d mismatches\n",
              mismatches);

  // Aggregate: which tier contributes the most latency?
  const auto contributions = flow::tier_contributions(flows);
  std::printf("\nper-tier mean exclusive time (all requests):\n");
  for (const auto& c : contributions) {
    std::printf("  %-8s %7.3f ms  (%4.1f%% of path)\n", c.service.c_str(),
                c.mean_exclusive_ms, c.share * 100);
  }
  return mismatches == 0 ? 0 : 1;
}
