#pragma once

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "sim/request.h"
#include "util/histogram.h"
#include "util/simtime.h"

namespace mscope::core {

using util::SimTime;

/// Streaming VLRT/VSB detector — catches anomalies *while the experiment is
/// still running* instead of post-hoc from the warehouse.
///
/// Feed it every completed request (e.g. via ClientPool::set_on_complete).
/// It maintains a long-horizon response-time histogram as the "normal"
/// baseline and a short sliding window of recent completions; when the max
/// response time inside the window exceeds `factor` x the baseline median,
/// a VSB alarm opens (one callback), and it closes once the window cools
/// down. Warm-up: no alarms before `min_samples` completions.
class OnlineVsbDetector {
 public:
  struct Config {
    SimTime window = 500 * util::kMsec;  ///< sliding window length
    double factor = 10.0;                ///< threshold over baseline median
    std::size_t min_samples = 500;       ///< warm-up before alarming
  };

  struct Alarm {
    SimTime opened_at = 0;
    SimTime closed_at = -1;  ///< -1 while still open
    double peak_rt_ms = 0.0;
    double baseline_ms = 0.0;
  };

  using AlarmCallback = std::function<void(const Alarm&)>;

  explicit OnlineVsbDetector(Config cfg) : cfg_(cfg) {}
  OnlineVsbDetector() : OnlineVsbDetector(Config{}) {}

  /// Called when an alarm opens (alarm.closed_at == -1) and again when it
  /// closes (closed_at set).
  void set_callback(AlarmCallback cb) { callback_ = std::move(cb); }

  /// Feed one completion (`completed_at` in sim time, `rt` response time).
  void on_complete(SimTime completed_at, SimTime rt);

  /// Convenience for wiring to a ClientPool.
  void on_complete(const sim::RequestPtr& req) {
    if (req->response_time() >= 0) {
      on_complete(req->client_recv, req->response_time());
    }
  }

  /// One live queue-depth estimate for a tier, derived mid-run from the
  /// event tables streaming into mScopeDB (see core::OnlineCollection).
  /// This is the signal the paper reads *post-hoc* from the warehouse to
  /// localize a VSB (queue peaks at the culprit tier); online collection
  /// makes it available while the alarm is still open.
  struct QueueSample {
    SimTime time = 0;     ///< sim time the estimate refers to
    std::string source;   ///< emitting table, e.g. "ev_mysql_db1"
    double depth = 0.0;   ///< concurrent in-flight requests at `time`
  };

  /// Feed one queue-depth estimate (any order across sources).
  void on_queue_sample(SimTime time, const std::string& source, double depth) {
    queue_samples_.push_back({time, source, depth});
    if (depth > peak_queue_depth_) {
      peak_queue_depth_ = depth;
      peak_queue_source_ = source;
    }
  }

  [[nodiscard]] const std::vector<QueueSample>& queue_samples() const {
    return queue_samples_;
  }
  [[nodiscard]] double peak_queue_depth() const { return peak_queue_depth_; }
  /// Source of the deepest queue seen so far ("" before any sample) — the
  /// live counterpart of the offline diagnosis' culprit-tier ranking.
  [[nodiscard]] const std::string& peak_queue_source() const {
    return peak_queue_source_;
  }

  /// All alarms so far (the last one may still be open).
  [[nodiscard]] const std::vector<Alarm>& alarms() const { return alarms_; }

  [[nodiscard]] bool alarm_open() const {
    return !alarms_.empty() && alarms_.back().closed_at < 0;
  }

  [[nodiscard]] double baseline_median_ms() const {
    return static_cast<double>(baseline_.percentile(50)) / 1000.0;
  }

 private:
  struct Sample {
    SimTime time;
    SimTime rt;
  };

  Config cfg_;
  AlarmCallback callback_;
  util::LatencyHistogram baseline_;  ///< rt in usec
  /// The window's samples that are larger than every newer one, oldest
  /// first: rt strictly decreasing, so front() is the window max. Relies on
  /// completions arriving in nondecreasing time.
  std::deque<Sample> window_;
  std::vector<Alarm> alarms_;
  std::vector<QueueSample> queue_samples_;
  double peak_queue_depth_ = 0.0;
  std::string peak_queue_source_;
  std::size_t seen_ = 0;
};

}  // namespace mscope::core
