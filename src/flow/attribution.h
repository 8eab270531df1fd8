#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/report.h"
#include "flow/materializer.h"

namespace mscope::flow {

/// One time bucket of the whole-run latency breakdown: how many requests
/// completed in it, their response-time stats, and — the paper's Fig. 5
/// "contribution of each server" generalized to every bucket — the mean
/// exclusive time each tier contributed.
struct Bucket {
  SimTime begin = 0;  ///< bucket start on the run timeline (usec)
  std::size_t requests = 0;
  double mean_rt_ms = 0;
  double max_rt_ms = 0;
  std::vector<double> tier_excl_ms;  ///< mean exclusive per tier, in ms
  /// Indexes into Result::requests of the bucket's slowest requests,
  /// slowest first (the drill-down exemplars).
  std::vector<std::uint32_t> slowest;
};

/// Whole-run per-tier latency attribution at a fixed bucket width.
struct Attribution {
  SimTime bucket_usec = 0;
  std::vector<std::string> tier_service;  ///< label per tier
  std::vector<Bucket> buckets;            ///< dense from the first request on
};

/// Buckets every completed request by completion time and attributes its
/// response time to per-tier exclusive contributions. `top_k` slowest
/// requests are kept per bucket as exemplars.
[[nodiscard]] Attribution attribute(const Result& r, SimTime bucket_usec,
                                    std::size_t top_k = 3);

/// Per-tier latency contribution read off the spans (paper Section IV-A:
/// "we need to know the contribution of each server to the response time
/// of each request"): for each tier, the per-visit mean inclusive and
/// exclusive time over every span that has both ua and ud — every replica
/// of the tier counts — or only over spans whose ud lies in [t0, t1) when
/// t1 > t0. `share` is each tier's fraction of the summed means.
[[nodiscard]] std::vector<core::TierContribution> tier_contributions(
    const Result& r, SimTime t0 = 0, SimTime t1 = 0);

/// The anomaly drill-down verdict: which tier's exclusive time inflated
/// inside an anomaly window relative to the rest of the run, on which node,
/// with the window's slowest requests as evidence.
struct DrillDown {
  SimTime begin = 0;  ///< the window examined (usec)
  SimTime end = 0;
  std::size_t window_requests = 0;
  int culprit_tier = -1;
  std::string culprit_service;
  std::string culprit_node;
  double window_excl_ms = 0;    ///< culprit tier's mean exclusive in-window
  double baseline_excl_ms = 0;  ///< same tier's mean exclusive elsewhere
  /// Per-tier (window mean - baseline mean) exclusive inflation, in ms —
  /// the evidence the culprit was picked by.
  std::vector<double> tier_inflation_ms;
  std::vector<std::string> tier_service;
  /// Indexes into Result::requests, slowest in-window requests first.
  std::vector<std::uint32_t> exemplars;
};

/// Drills into a VSB window [begin, end): finds the tier whose mean
/// exclusive time inflated most versus the rest of the run, the node that
/// served that tier's in-window requests, and the `exemplars` slowest
/// in-window requests as request-level evidence.
[[nodiscard]] DrillDown drill_down(const Result& r, SimTime begin, SimTime end,
                                   std::size_t exemplars = 3);

/// Renders an attribution as a per-bucket table (one line per bucket:
/// requests, mean/max RT, per-tier exclusive means).
[[nodiscard]] std::string render(const Result& r, const Attribution& a);

/// Renders a drill-down verdict: the per-tier inflation table, the culprit
/// line, and each exemplar's Fig. 5 trace with its per-tier exclusive-time
/// breakdown.
[[nodiscard]] std::string render(const Result& r, const DrillDown& d);

}  // namespace mscope::flow
