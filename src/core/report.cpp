#include "core/report.h"

#include <cstdio>

#include "util/strings.h"

namespace mscope::core {

std::string render_report(const std::vector<Diagnosis>& diagnoses,
                          const PitSeries& pit,
                          const std::vector<TierContribution>& contributions) {
  std::string out;
  char buf[256];
  out += "=== milliScope diagnosis report ===\n";
  std::snprintf(buf, sizeof(buf),
                "response time: avg %.2f ms, median %.2f ms, "
                "max PIT %.0f ms (%.1fx avg)\n",
                pit.overall_avg_ms, pit.overall_p50_ms,
                pit.overall_avg_ms * pit.peak_to_average(),
                pit.peak_to_average());
  out += buf;

  if (!contributions.empty()) {
    out += "\nper-tier latency contribution (mean exclusive time):\n";
    for (const auto& c : contributions) {
      std::snprintf(buf, sizeof(buf),
                    "  %-8s %8.3f ms exclusive (%4.1f%%), %8.3f ms inclusive, "
                    "%zu visits\n",
                    c.service.c_str(), c.mean_exclusive_ms, c.share * 100,
                    c.mean_inclusive_ms, c.visits);
      out += buf;
    }
  }

  if (diagnoses.empty()) {
    out += "\nno very short bottlenecks detected.\n";
    return out;
  }
  std::snprintf(buf, sizeof(buf), "\n%zu very short bottleneck window(s):\n",
                diagnoses.size());
  out += buf;
  for (const auto& d : diagnoses) {
    std::snprintf(buf, sizeof(buf),
                  "\n* window [%.2fs, %.2fs] (%.0f ms), peak PIT %.0f ms\n",
                  util::to_sec(d.window.begin), util::to_sec(d.window.end),
                  util::to_msec(d.window.duration()), d.window.peak_rt_ms);
    out += buf;
    out += "  push-back: ";
    if (d.pushback.growing_tiers.empty()) {
      out += "none detected";
    } else {
      std::vector<std::string> tiers;
      for (const int t : d.pushback.growing_tiers)
        tiers.push_back("tier" + std::to_string(t));
      out += util::join(tiers, " -> ");
      out += d.pushback.cross_tier ? "  (cross-tier amplification)"
                                   : "  (single tier)";
    }
    out += '\n';
    std::snprintf(buf, sizeof(buf), "  verdict: %s at %s\n",
                  d.root_cause.c_str(),
                  d.bottleneck_node.empty() ? "?" : d.bottleneck_node.c_str());
    out += buf;
    for (const auto& e : d.evidence) {
      std::snprintf(buf, sizeof(buf),
                    "    %-14s in-window %8.1f   outside %8.1f   "
                    "corr(front queue) %+.2f\n",
                    e.metric.c_str(), e.in_window, e.outside,
                    e.corr_with_front_queue);
      out += buf;
    }
  }
  return out;
}

}  // namespace mscope::core
