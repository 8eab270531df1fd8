#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "db/table.h"
#include "sim/request.h"
#include "util/simtime.h"

namespace mscope::core {

using util::SimTime;

/// One downstream call of a tier visit: (ds, dr), -1 when absent.
using Call = std::pair<SimTime, SimTime>;

/// The duration rule every request-level view shares (header-inline so no
/// hot loop pays a call). A timestamp below 0 is absent. Durations clamp at
/// 0: under injected clock skew (mScopeChaos) cross-tier timestamps can run
/// backwards, and a negative duration would poison every aggregate
/// downstream. span_skewed() flags such spans instead.
[[nodiscard]] inline SimTime span_inclusive(SimTime ua, SimTime ud) {
  return (ua >= 0 && ud >= 0) ? std::max<SimTime>(ud - ua, 0) : 0;
}

/// Time spent waiting on downstream calls; a skewed call (dr < ds) waits 0,
/// so it cannot *inflate* the exclusive time.
[[nodiscard]] inline SimTime span_wait(std::span<const Call> calls) {
  SimTime wait = 0;
  for (const auto& [ds, dr] : calls) {
    if (ds >= 0 && dr >= 0 && dr > ds) wait += dr - ds;
  }
  return wait;
}

/// Time spent at a tier excluding downstream waits (the paper's
/// "contribution of each server to the response time").
[[nodiscard]] inline SimTime span_exclusive(SimTime ua, SimTime ud,
                                            std::span<const Call> calls) {
  return std::max<SimTime>(span_inclusive(ua, ud) - span_wait(calls), 0);
}

/// True when any timestamp pair runs backwards (ud < ua, or a downstream
/// return before its send) — the signature of corrupted or clock-skewed
/// records.
[[nodiscard]] inline bool span_skewed(SimTime ua, SimTime ud,
                                      std::span<const Call> calls) {
  if (ua >= 0 && ud >= 0 && ud < ua) return true;
  for (const auto& [ds, dr] : calls) {
    if (ds >= 0 && dr >= 0 && dr < ds) return true;
  }
  return false;
}

/// One tier visit inside a reconstructed trace (the paper's Fig. 5 data).
struct TraceSpan {
  int tier = -1;
  std::string service;
  int visit = 0;
  SimTime ua = -1;  ///< Upstream Arrival
  SimTime ud = -1;  ///< Upstream Departure
  std::vector<Call> calls;  ///< (ds, dr) pairs

  // The shared duration rule above, applied to this span.
  [[nodiscard]] SimTime exclusive_time() const {
    return span_exclusive(ua, ud, calls);
  }
  [[nodiscard]] SimTime inclusive_time() const {
    return span_inclusive(ua, ud);
  }
  [[nodiscard]] bool skewed() const { return span_skewed(ua, ud, calls); }
};

/// A request's full causal path, reconstructed by joining the event tables
/// on the propagated request ID (paper Section IV-B: "By joining the tracing
/// records containing the same request ID ... milliScope is able to
/// reconstruct the execution path explicitly").
struct Trace {
  std::uint64_t req_id = 0;
  std::vector<TraceSpan> spans;  ///< ordered front tier -> back tier, visits

  [[nodiscard]] SimTime response_time() const;
};

/// Column positions of one event table in the layout the event monitors'
/// transformers write: req_id, visit, ua_usec/ud_usec, and the downstream
/// calls as one ds_usec/dr_usec pair (Apache, CJDBC) or the Tomcat
/// monitor's variable-width ds<N>_usec/dr<N>_usec run. Any column may be
/// absent; callers decide which ones they need.
struct EventColumns {
  std::optional<std::size_t> req_id, visit, ua, ud;
  /// (ds, dr) column pairs in record order.
  std::vector<std::pair<std::size_t, std::size_t>> calls;
};

/// Resolves `t`'s event columns once per table.
[[nodiscard]] EventColumns event_columns(const db::Table& t);

/// Renders a Fig. 5-style happens-before diagram.
[[nodiscard]] std::string render(const Trace& t);

/// Validates a reconstructed trace against simulator ground truth; returns
/// the number of mismatched timestamps (0 = perfect).
[[nodiscard]] int compare_with_truth(const Trace& t, const sim::Request& truth);

}  // namespace mscope::core
