#include "core/online_detector.h"

#include <gtest/gtest.h>

#include "core/milliscope.h"
#include "scratch_dir.h"

namespace mscope::core {
namespace {

using util::msec;
using util::sec;

OnlineVsbDetector::Config quick_config() {
  OnlineVsbDetector::Config cfg;
  cfg.window = msec(200);
  cfg.factor = 10.0;
  cfg.min_samples = 50;
  return cfg;
}

TEST(OnlineVsbDetector, NoAlarmDuringWarmup) {
  OnlineVsbDetector det(quick_config());
  for (int i = 0; i < 40; ++i) {
    det.on_complete(msec(10 * i), msec(1000));  // huge RTs, but warming up
  }
  EXPECT_TRUE(det.alarms().empty());
}

TEST(OnlineVsbDetector, OpensAndClosesAlarm) {
  OnlineVsbDetector det(quick_config());
  int callbacks = 0;
  det.set_callback([&](const OnlineVsbDetector::Alarm&) { ++callbacks; });
  // Baseline: 5 ms responses.
  SimTime t = 0;
  for (int i = 0; i < 200; ++i) {
    t += msec(5);
    det.on_complete(t, msec(5));
  }
  EXPECT_TRUE(det.alarms().empty());
  // Burst of 200 ms responses -> alarm opens.
  for (int i = 0; i < 10; ++i) {
    t += msec(5);
    det.on_complete(t, msec(200));
  }
  ASSERT_TRUE(det.alarm_open());
  EXPECT_EQ(callbacks, 1);
  EXPECT_GT(det.alarms().back().peak_rt_ms, 100.0);
  // Cool down: normal responses until the hot samples age out of the window.
  for (int i = 0; i < 100; ++i) {
    t += msec(5);
    det.on_complete(t, msec(5));
  }
  EXPECT_FALSE(det.alarm_open());
  ASSERT_EQ(det.alarms().size(), 1u);
  EXPECT_GT(det.alarms()[0].closed_at, det.alarms()[0].opened_at);
  EXPECT_EQ(callbacks, 2);
}

TEST(OnlineVsbDetector, SeparateEpisodesSeparateAlarms) {
  OnlineVsbDetector det(quick_config());
  SimTime t = 0;
  const auto normal = [&](int n) {
    for (int i = 0; i < n; ++i) {
      t += msec(5);
      det.on_complete(t, msec(5));
    }
  };
  const auto burst = [&](int n) {
    for (int i = 0; i < n; ++i) {
      t += msec(5);
      det.on_complete(t, msec(300));
    }
  };
  normal(200);
  burst(5);
  normal(100);
  burst(5);
  normal(100);
  EXPECT_EQ(det.alarms().size(), 2u);
  EXPECT_FALSE(det.alarm_open());
}

TEST(OnlineVsbDetector, BaselineTracksMedianNotTail) {
  OnlineVsbDetector det(quick_config());
  SimTime t = 0;
  // 10% of requests are 50 ms (tail), median 5 ms: baseline stays ~5 ms.
  for (int i = 0; i < 500; ++i) {
    t += msec(5);
    det.on_complete(t, i % 10 == 0 ? msec(50) : msec(5));
  }
  EXPECT_LT(det.baseline_median_ms(), 10.0);
}

TEST(OnlineVsbDetector, CatchesScenarioALive) {
  // Wire the detector to the client pool and run scenario A: the alarm must
  // open during the flush episode — while the "experiment" is still running.
  TestbedConfig cfg;
  cfg.workload = 1200;
  cfg.duration = sec(12);
  cfg.log_dir = test::scratch_dir("online");
  cfg.resource_monitors = false;
  cfg.capture_messages = false;
  cfg.scenario_a = ScenarioA{};

  Testbed testbed(cfg);
  OnlineVsbDetector det;
  // Must mutate through a non-const handle; ClientPool is owned by Testbed.
  const_cast<workload::ClientPool&>(testbed.clients())
      .set_on_complete([&](const sim::RequestPtr& r) { det.on_complete(r); });
  testbed.run();
  std::filesystem::remove_all(cfg.log_dir);

  ASSERT_FALSE(det.alarms().empty());
  const auto& alarm = det.alarms().front();
  // The flush starts at 8 s; the alarm must open within the episode.
  EXPECT_GT(alarm.opened_at, sec(8));
  EXPECT_LT(alarm.opened_at, sec(9));
  EXPECT_GT(alarm.peak_rt_ms, 10 * det.baseline_median_ms());
}

TEST(ScenarioC, GcPauseDiagnosedAsCpu) {
  TestbedConfig cfg;
  cfg.workload = 1200;
  cfg.duration = sec(8);
  cfg.log_dir = test::scratch_dir("scenc");
  cfg.scenario_c = ScenarioC{};  // stop-the-world pause at Tomcat, t=5s

  Experiment exp(cfg);
  exp.run();
  db::Database db;
  exp.load_warehouse(db);
  const auto diagnoses = exp.diagnoser(db).diagnose(cfg.duration);
  std::filesystem::remove_all(cfg.log_dir);

  ASSERT_FALSE(diagnoses.empty());
  EXPECT_EQ(diagnoses.front().bottleneck_node, "app1");
  EXPECT_EQ(diagnoses.front().root_cause, "cpu");
  // Unlike scenario B there is no dirty-page signature.
  for (const auto& e : diagnoses.front().evidence) {
    if (e.metric == "mem_dirtykb") {
      EXPECT_LT(e.in_window, 32 * 1024.0);
    }
  }
}

}  // namespace
}  // namespace mscope::core
