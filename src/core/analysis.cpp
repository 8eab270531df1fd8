#include "core/analysis.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <utility>


namespace mscope::core {

std::vector<VlrtRequest> find_vlrt(
    const std::vector<sim::RequestPtr>& completed, double factor) {
  const double avg = mean_response_ms(completed);
  std::vector<VlrtRequest> out;
  if (avg <= 0.0) return out;
  for (const auto& r : completed) {
    const SimTime rt = r->response_time();
    if (rt < 0) continue;
    const double ms = util::to_msec(rt);
    if (ms > factor * avg) {
      out.push_back({r->id, r->client_recv, ms});
    }
  }
  return out;
}

std::vector<VsbWindow> find_vsb_windows(const PitSeries& pit, double factor,
                                        SimTime merge_gap) {
  std::vector<VsbWindow> out;
  // Median baseline: the VLRT requests inside the windows we are hunting
  // would otherwise inflate the mean and hide their own windows.
  const double threshold = factor * pit.overall_p50_ms;
  if (threshold <= 0.0) return out;
  for (const auto& s : pit.max_rt_ms) {
    if (s.value <= threshold) continue;
    const SimTime b = s.time;
    const SimTime e = s.time + pit.bucket;
    if (!out.empty() && b <= out.back().end + merge_gap) {
      out.back().end = e;
      out.back().peak_rt_ms = std::max(out.back().peak_rt_ms, s.value);
    } else {
      out.push_back({b, e, s.value});
    }
  }
  return out;
}

namespace {

/// [first, last) indices of the samples with time in [begin, end).
/// Series are time-ordered, so the window is a contiguous slice findable by
/// binary search — window helpers no longer scan the whole run per window.
std::pair<std::size_t, std::size_t> window_span(const Series& s, SimTime begin,
                                                SimTime end) {
  const auto by_time = [](const util::Sample& p, SimTime t) {
    return p.time < t;
  };
  const auto lo = std::lower_bound(s.begin(), s.end(), begin, by_time);
  const auto hi = std::lower_bound(lo, s.end(), end, by_time);
  return {static_cast<std::size_t>(lo - s.begin()),
          static_cast<std::size_t>(hi - s.begin())};
}

}  // namespace

PushbackReport detect_pushback(const std::vector<Series>& tier_queues,
                               const VsbWindow& window,
                               double min_slope_per_sec, double min_peak) {
  PushbackReport report;
  for (std::size_t tier = 0; tier < tier_queues.size(); ++tier) {
    const Series& q = tier_queues[tier];
    const auto [lo, hi] = window_span(q, window.begin, window.end);
    const std::span<const util::Sample> in_window{q.data() + lo, hi - lo};
    if (in_window.size() < 2) continue;
    double peak = 0.0;
    for (const auto& s : in_window) peak = std::max(peak, s.value);
    const double slope = util::slope_per_sec(in_window);
    // Median of the out-of-window samples: a robust normal-depth baseline
    // that other bottleneck episodes elsewhere in the run cannot inflate.
    std::vector<double> outside;
    outside.reserve(q.size() - in_window.size());
    for (std::size_t i = 0; i < lo; ++i) outside.push_back(q[i].value);
    for (std::size_t i = hi; i < q.size(); ++i) outside.push_back(q[i].value);
    const double level =
        std::max(min_peak, 4.0 * (util::percentile(outside, 50) + 1.0));
    // A tier participates in the push-back if its queue is elevated for a
    // *sustained* stretch of the window — not just the one or two buckets a
    // post-stall drain burst needs to race through it — and either grows
    // (positive slope) or clearly exceeds its normal depth.
    std::size_t elevated = 0;
    for (const auto& s : in_window) {
      if (s.value > level) ++elevated;
    }
    const std::size_t min_elevated =
        std::min<std::size_t>(3, std::max<std::size_t>(1, in_window.size() / 2));
    const bool sustained = elevated >= min_elevated;
    const bool grew = slope > min_slope_per_sec || peak > level;
    if (grew && sustained) {
      report.growing_tiers.push_back(static_cast<int>(tier));
    }
  }
  // Push-back propagates from the bottleneck toward the front: read the
  // contiguous chain that starts at the front tier (paper Figs. 6/8b — in
  // scenario A all four queues grow; in scenario B's first peak only
  // Apache's does). The bottleneck is the deepest tier of that chain; an
  // isolated deep-tier blip without its upstream neighbours growing is not
  // push-back.
  if (!report.growing_tiers.empty() && report.growing_tiers.front() == 0) {
    int deepest = 0;
    for (const int t : report.growing_tiers) {
      if (t == deepest + 1) deepest = t;
      if (t > deepest + 1) break;
    }
    report.deepest_growing = deepest;
    report.cross_tier = deepest > 0;
  } else if (!report.growing_tiers.empty()) {
    report.deepest_growing = report.growing_tiers.back();
    report.cross_tier = false;
  }
  return report;
}

Diagnoser::Diagnoser(const db::Catalog& db, Tables tables, Config cfg)
    : db_(db), tables_(std::move(tables)), cfg_(cfg) {}

PitSeries Diagnoser::pit(SimTime horizon) const {
  (void)horizon;
  return pit_response_time_db_multi(db_, tables_.event_tables.front(),
                                    cfg_.pit_bucket);
}

namespace {

/// Mean of a series restricted to [begin, end) / to its complement.
/// The complement is accumulated prefix-then-suffix — the same order the old
/// full-scan produced — because Welford's result depends on visit order.
double mean_in(const Series& s, SimTime begin, SimTime end, bool inside) {
  const auto [lo, hi] = window_span(s, begin, end);
  util::RunningStats stats;
  if (inside) {
    for (std::size_t i = lo; i < hi; ++i) stats.add(s[i].value);
  } else {
    for (std::size_t i = 0; i < lo; ++i) stats.add(s[i].value);
    for (std::size_t i = hi; i < s.size(); ++i) stats.add(s[i].value);
  }
  return stats.mean();
}

double max_in(const Series& s, SimTime begin, SimTime end) {
  const auto [lo, hi] = window_span(s, begin, end);
  double peak = 0.0;
  for (std::size_t i = lo; i < hi; ++i) peak = std::max(peak, s[i].value);
  return peak;
}

double min_in(const Series& s, SimTime begin, SimTime end) {
  const auto [lo, hi] = window_span(s, begin, end);
  if (lo == hi) return 0.0;
  double low = std::numeric_limits<double>::max();
  for (std::size_t i = lo; i < hi; ++i) low = std::min(low, s[i].value);
  return low;
}

std::size_t buckets_at_or_above(const Series& s, SimTime begin, SimTime end,
                                double threshold) {
  const auto [lo, hi] = window_span(s, begin, end);
  std::size_t n = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    if (s[i].value >= threshold) ++n;
  }
  return n;
}

}  // namespace

const Diagnoser::RunCache& Diagnoser::run_cache(SimTime horizon) const {
  if (cache_.horizon == horizon) return cache_;
  RunCache c;
  c.horizon = horizon;
  c.queues.reserve(tables_.event_tables.size());
  for (const auto& tier_tables : tables_.event_tables) {
    c.queues.push_back(queue_length_db_multi(db_, tier_tables,
                                             cfg_.queue_bucket, 0, horizon));
  }
  const Series& front = c.queues.front();
  c.replicas.resize(tables_.collectl_tables.size());
  for (std::size_t tier = 0; tier < tables_.collectl_tables.size(); ++tier) {
    c.replicas[tier].reserve(tables_.collectl_tables[tier].size());
    for (const auto& collectl : tables_.collectl_tables[tier]) {
      ReplicaSeries rs;
      rs.disk_util = resource_series(db_, collectl, "dsk_pctutil");
      rs.cpu_busy = resource_series(db_, collectl, "cpu_user_pct");
      const Series cpu_sys = resource_series(db_, collectl, "cpu_sys_pct");
      for (std::size_t i = 0; i < rs.cpu_busy.size() && i < cpu_sys.size();
           ++i) {
        rs.cpu_busy[i].value += cpu_sys[i].value;
      }
      rs.dirty = resource_series(db_, collectl, "mem_dirtykb");
      rs.disk_corr =
          util::correlate_series(rs.disk_util, front, cfg_.queue_bucket);
      rs.cpu_corr =
          util::correlate_series(rs.cpu_busy, front, cfg_.queue_bucket);
      rs.dirty_corr =
          util::correlate_series(rs.dirty, front, cfg_.queue_bucket);
      c.replicas[tier].push_back(std::move(rs));
    }
  }
  cache_ = std::move(c);
  return cache_;
}

Diagnosis Diagnoser::diagnose_window(const VsbWindow& w,
                                     SimTime horizon) const {
  Diagnosis d;
  d.window = w;

  // Widen the inspection window backwards: the resource spike that *causes*
  // a VSB begins well before the response-time symptom peaks (the VLRT
  // requests complete at the *end* of the stall).
  const SimTime wb = std::max<SimTime>(0, w.begin - cfg_.lookback);
  const SimTime we = std::min(horizon, w.end + 4 * cfg_.queue_bucket);

  const RunCache& run = run_cache(horizon);
  const std::vector<Series>& queues = run.queues;
  // Queue growth is judged from `lookback` before the symptom up to the
  // *front tier's queue peak*: push-back makes the deeper tiers fill before
  // or together with Apache, whereas the drain flood that races downstream
  // once the bottleneck releases comes after Apache's peak and must not be
  // attributed (it would always implicate the database).
  SimTime pushback_end = w.end;
  {
    const Series& front = queues.front();
    const auto [lo, hi] = window_span(front, wb, we);
    double best = -1.0;
    for (std::size_t i = lo; i < hi; ++i) {
      if (front[i].value > best) {
        best = front[i].value;
        pushback_end = front[i].time + 2 * cfg_.queue_bucket;
      }
    }
    pushback_end = std::min(pushback_end, we);
  }
  d.pushback = detect_pushback(queues, {wb, pushback_end, w.peak_rt_ms});
  d.bottleneck_tier = d.pushback.deepest_growing;
  if (d.bottleneck_tier < 0) {
    d.root_cause = "unknown";
    return d;
  }

  // Interrogate every replica of the bottleneck tier and implicate the one
  // whose resources are actually hot — with a replicated tier, "zooming
  // into the specific system component" (paper Section I) means naming the
  // node, not just the tier.
  const auto tier_idx = static_cast<std::size_t>(d.bottleneck_tier);
  double best_score = -1.0;
  Evidence disk_ev, cpu_ev, dirty_ev;
  double dirty_peak = 0, dirty_low = 0;
  std::size_t disk_sat_buckets = 0, cpu_sat_buckets = 0;

  for (std::size_t r = 0; r < tables_.collectl_tables[tier_idx].size(); ++r) {
    const ReplicaSeries& rs = run.replicas[tier_idx][r];
    const std::string& node = tables_.nodes[tier_idx][r];

    Evidence r_disk{node, "dsk_pctutil", max_in(rs.disk_util, wb, we),
                    mean_in(rs.disk_util, wb, we, false), rs.disk_corr};
    Evidence r_cpu{node, "cpu_busy_pct", max_in(rs.cpu_busy, wb, we),
                   mean_in(rs.cpu_busy, wb, we, false), rs.cpu_corr};
    const double r_dirty_peak = max_in(rs.dirty, wb, we);
    const double r_dirty_low = min_in(rs.dirty, wb, we);
    Evidence r_dirty{node, "mem_dirtykb", r_dirty_peak,
                     mean_in(rs.dirty, wb, we, false), rs.dirty_corr};
    const double score = std::max(r_disk.in_window, r_cpu.in_window);
    if (score > best_score) {
      best_score = score;
      d.bottleneck_node = node;
      disk_ev = r_disk;
      cpu_ev = r_cpu;
      dirty_ev = r_dirty;
      dirty_peak = r_dirty_peak;
      dirty_low = r_dirty_low;
      disk_sat_buckets = buckets_at_or_above(rs.disk_util, wb, we,
                                             cfg_.disk_saturation_pct);
      cpu_sat_buckets = buckets_at_or_above(rs.cpu_busy, wb, we,
                                            cfg_.cpu_saturation_pct);
    }
  }
  d.evidence = {disk_ev, cpu_ev, dirty_ev};

  const bool cpu_saturated = cpu_sat_buckets > 0;
  const bool dirty_dropped =
      dirty_peak > 0 &&
      (dirty_peak - dirty_low) > cfg_.dirty_drop_fraction * dirty_peak &&
      (dirty_peak - dirty_low) > cfg_.min_dirty_drop_kb;

  // The culprit is the resource that stayed saturated through the stall, not
  // one that blinked for a bucket or two: the post-stall drain burst can pin
  // the CPU briefly even when the disk caused everything.
  if (cpu_saturated && dirty_dropped) {
    d.root_cause = "memory-dirty-page";
  } else if (disk_sat_buckets > cpu_sat_buckets) {
    d.root_cause = "disk-io";
  } else if (cpu_saturated) {
    d.root_cause = "cpu";
  } else if (disk_sat_buckets > 0) {
    d.root_cause = "disk-io";
  } else {
    d.root_cause = "unknown";
  }
  return d;
}

std::vector<Diagnosis> Diagnoser::diagnose(SimTime horizon) const {
  const PitSeries p = pit(horizon);
  const auto windows =
      find_vsb_windows(p, cfg_.vlrt_factor, 4 * cfg_.pit_bucket);
  std::vector<Diagnosis> out;
  out.reserve(windows.size());
  for (const auto& w : windows) {
    out.push_back(diagnose_window(w, horizon));
  }
  return out;
}

}  // namespace mscope::core
