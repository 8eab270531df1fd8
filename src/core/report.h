#pragma once

#include <string>
#include <vector>

#include "core/analysis.h"

namespace mscope::core {

/// Per-tier latency contribution (computed from the request spans by
/// flow::tier_contributions): how much of the end-to-end response time each
/// server spends *exclusively* (its inclusive visit time minus the time it
/// waits on downstream tiers). The paper motivates this directly: "to
/// identify the server causing VLRT requests ... we need to know the
/// contribution of each server to the response time of each request"
/// (Section IV-A).
struct TierContribution {
  std::string service;
  double mean_exclusive_ms = 0.0;
  double mean_inclusive_ms = 0.0;
  double share = 0.0;  ///< fraction of summed exclusive time
  std::size_t visits = 0;
};

/// Renders a human-readable report of a diagnosis run — the narrative the
/// paper's Section V case studies walk through: the PIT anomaly, the VSB
/// windows, the push-back chain, the implicated resource and the evidence.
[[nodiscard]] std::string render_report(
    const std::vector<Diagnosis>& diagnoses, const PitSeries& pit,
    const std::vector<TierContribution>& contributions);

}  // namespace mscope::core
