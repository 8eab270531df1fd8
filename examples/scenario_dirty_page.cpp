// The paper's Section V-B case study, end to end: two response-time peaks
// that look identical from the client side but have different root causes —
// dirty-page recycling on the *web* tier for the first, on the *app* tier
// for the second. milliScope separates them by combining the event monitors
// (per-tier queue lengths) with Collectl's CPU and memory subsystems.

#include <cstdio>

#include "core/milliscope.h"
#include "core/report.h"
#include "flow/attribution.h"
#include "flow/materializer.h"

using namespace mscope;

int main() {
  core::TestbedConfig cfg;
  cfg.workload = 2000;
  cfg.duration = util::sec(6);
  cfg.log_dir = "dirty_page_logs";
  cfg.scenario_b = core::ScenarioB::figure8();

  std::printf("scenario B: dirty-page recycling (%d users, %.0f s)\n",
              cfg.workload, util::to_sec(cfg.duration));
  core::Experiment exp(cfg);
  exp.run();

  db::Database db;
  exp.load_warehouse(db);

  // Step 1 (Fig. 8a): the client-visible anomaly.
  const auto pit = core::pit_response_time_db(
      db, exp.event_tables().front(), util::msec(50));
  std::printf("\naverage RT %.1f ms; the PIT series shows peaks at:\n",
              pit.overall_avg_ms);
  for (const auto& s : pit.max_rt_ms) {
    if (s.value > 10 * pit.overall_p50_ms) {
      std::printf("  t=%.2fs  max PIT %.0f ms\n", util::to_sec(s.time),
                  s.value);
    }
  }

  // Step 2 (Fig. 8b): who queues? Only Apache at peak 1; Apache AND Tomcat
  // at peak 2.
  std::printf("\nqueue length peaks per tier:\n");
  for (int tier = 0; tier < 2; ++tier) {
    const auto q = core::queue_length_db(
        db, exp.event_tables()[static_cast<std::size_t>(tier)], util::msec(50), 0,
        cfg.duration);
    double p1 = 0, p2 = 0;
    for (const auto& s : q) {
      if (s.time >= util::msec(1200) && s.time < util::msec(1900))
        p1 = std::max(p1, s.value);
      if (s.time >= util::msec(3200) && s.time < util::msec(4100))
        p2 = std::max(p2, s.value);
    }
    std::printf("  %-8s peak1 %4.0f   peak2 %4.0f\n",
                core::Testbed::services()[static_cast<std::size_t>(tier)].c_str(), p1,
                p2);
  }

  // Step 3 (Fig. 8c/8d): CPU saturation coincides with the dirty-page
  // collapse on the respective node.
  for (const char* node : {"web1", "app1"}) {
    const auto sys = core::resource_series(
        db, std::string("res_collectl_") + node, "cpu_sys_pct");
    const auto dirty = core::resource_series(
        db, std::string("res_collectl_") + node, "mem_dirtykb");
    double cpu_peak = 0, dirty_peak = 0;
    for (const auto& s : sys) cpu_peak = std::max(cpu_peak, s.value);
    for (const auto& s : dirty) dirty_peak = std::max(dirty_peak, s.value);
    std::printf("  %s: cpu_sys peak %.0f%%, dirty peak %.0f MB\n", node,
                cpu_peak, dirty_peak / 1024);
  }

  // Step 4: the automated verdict.
  const auto diagnoses = exp.diagnoser(db).diagnose(cfg.duration);
  const auto contributions = flow::tier_contributions(
      flow::Materializer(
          db, flow::Deployment::from(exp.tables(), core::Testbed::services()))
          .run());
  std::printf("\n%s", core::render_report(diagnoses, pit, contributions).c_str());
  return 0;
}
