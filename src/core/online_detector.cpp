#include "core/online_detector.h"

#include <algorithm>

namespace mscope::core {

void OnlineVsbDetector::on_complete(SimTime completed_at, SimTime rt) {
  baseline_.record(rt);
  ++seen_;
  // Monotonic window: a sample no larger than a newer one can never be the
  // window max again (completions arrive in nondecreasing time, so the
  // newer one leaves the window no earlier), so the front is the max.
  while (!window_.empty() && window_.back().rt <= rt) window_.pop_back();
  window_.push_back({completed_at, rt});
  while (!window_.empty() &&
         window_.front().time < completed_at - cfg_.window) {
    window_.pop_front();
  }
  if (seen_ < cfg_.min_samples) return;

  const double baseline_ms = baseline_median_ms();
  if (baseline_ms <= 0) return;
  const SimTime peak =
      window_.empty() ? 0 : std::max<SimTime>(0, window_.front().rt);
  const double peak_ms = static_cast<double>(peak) / 1000.0;
  const bool hot = peak_ms > cfg_.factor * baseline_ms;

  if (hot && !alarm_open()) {
    alarms_.push_back({completed_at, -1, peak_ms, baseline_ms});
    if (callback_) callback_(alarms_.back());
  } else if (alarm_open()) {
    Alarm& a = alarms_.back();
    a.peak_rt_ms = std::max(a.peak_rt_ms, peak_ms);
    if (!hot) {
      a.closed_at = completed_at;
      if (callback_) callback_(a);
    }
  }
}

}  // namespace mscope::core
