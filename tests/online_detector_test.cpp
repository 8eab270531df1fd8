#include "core/online_detector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <utility>
#include <vector>

#include "core/milliscope.h"
#include "scratch_dir.h"
#include "util/histogram.h"

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

/// The detector as it was before its window kept only a monotonic deque:
/// every completion rescans the whole window for its max. The property
/// oracle for the deque.
class BruteForceVsbDetector {
 public:
  explicit BruteForceVsbDetector(OnlineVsbDetector::Config cfg) : cfg_(cfg) {}

  void on_complete(SimTime completed_at, SimTime rt) {
    baseline_.record(rt);
    ++seen_;
    window_.emplace_back(completed_at, rt);
    while (!window_.empty() &&
           window_.front().first < completed_at - cfg_.window) {
      window_.pop_front();
    }
    if (seen_ < cfg_.min_samples) return;
    const double baseline_ms =
        static_cast<double>(baseline_.percentile(50)) / 1000.0;
    if (baseline_ms <= 0) return;
    SimTime peak = 0;
    for (const auto& s : window_) peak = std::max(peak, s.second);
    const double peak_ms = static_cast<double>(peak) / 1000.0;
    const bool hot = peak_ms > cfg_.factor * baseline_ms;
    const bool open = !alarms_.empty() && alarms_.back().closed_at < 0;
    if (hot && !open) {
      alarms_.push_back({completed_at, -1, peak_ms, baseline_ms});
    } else if (open) {
      OnlineVsbDetector::Alarm& a = alarms_.back();
      a.peak_rt_ms = std::max(a.peak_rt_ms, peak_ms);
      if (!hot) a.closed_at = completed_at;
    }
  }

  [[nodiscard]] const std::vector<OnlineVsbDetector::Alarm>& alarms() const {
    return alarms_;
  }

 private:
  OnlineVsbDetector::Config cfg_;
  util::LatencyHistogram baseline_;
  std::deque<std::pair<SimTime, SimTime>> window_;
  std::vector<OnlineVsbDetector::Alarm> alarms_;
  std::size_t seen_ = 0;
};

TEST(OnlineVsbDetectorProperty, MonotonicWindowMatchesBruteForceScan) {
  // Random nondecreasing completion streams (ties included) with bursts of
  // slow requests: the deque's window max must give the brute-force scan's
  // alarms exactly.
  std::mt19937 rng(20170605);
  std::size_t alarms_seen = 0;
  for (int stream = 0; stream < 60; ++stream) {
    OnlineVsbDetector::Config cfg;
    cfg.window = msec(20 + static_cast<int>(rng() % 480));
    cfg.factor = 4.0 + static_cast<double>(rng() % 8);
    cfg.min_samples = 20 + rng() % 100;
    OnlineVsbDetector det(cfg);
    BruteForceVsbDetector ref(cfg);
    SimTime t = 0;
    SimTime burst_until = -1;
    for (int i = 0; i < 3000; ++i) {
      t += static_cast<SimTime>(rng() % 4) * util::kMsec / 2;  // ties too
      if (burst_until < t && rng() % 400 == 0) {
        burst_until = t + msec(static_cast<int>(rng() % 300));
      }
      SimTime rt = msec(2) + static_cast<SimTime>(rng() % 6000);
      if (t <= burst_until) rt += msec(50 + static_cast<int>(rng() % 400));
      if (rng() % 50 == 0) rt = 0;
      det.on_complete(t, rt);
      ref.on_complete(t, rt);
    }
    SCOPED_TRACE("stream " + std::to_string(stream));
    ASSERT_EQ(det.alarms().size(), ref.alarms().size());
    for (std::size_t a = 0; a < ref.alarms().size(); ++a) {
      EXPECT_EQ(det.alarms()[a].opened_at, ref.alarms()[a].opened_at);
      EXPECT_EQ(det.alarms()[a].closed_at, ref.alarms()[a].closed_at);
      EXPECT_EQ(det.alarms()[a].peak_rt_ms, ref.alarms()[a].peak_rt_ms);
      EXPECT_EQ(det.alarms()[a].baseline_ms, ref.alarms()[a].baseline_ms);
    }
    alarms_seen += ref.alarms().size();
  }
  EXPECT_GT(alarms_seen, 30u);  // the streams do exercise the alarm path
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
