#include "core/trace.h"

#include <cstdio>

#include "util/id_codec.h"

namespace mscope::core {

SimTime Trace::response_time() const {
  for (const auto& s : spans) {
    if (s.tier == 0) return s.inclusive_time();
  }
  return 0;
}

EventColumns event_columns(const db::Table& t) {
  EventColumns c;
  c.req_id = t.column_index("req_id");
  c.visit = t.column_index("visit");
  c.ua = t.column_index("ua_usec");
  c.ud = t.column_index("ud_usec");
  const auto ds = t.column_index("ds_usec");
  const auto dr = t.column_index("dr_usec");
  if (ds && dr) c.calls.emplace_back(*ds, *dr);
  for (int call = 0; call < 64; ++call) {
    const auto dsn = t.column_index("ds" + std::to_string(call) + "_usec");
    const auto drn = t.column_index("dr" + std::to_string(call) + "_usec");
    if (!dsn || !drn) break;
    c.calls.emplace_back(*dsn, *drn);
  }
  return c;
}

std::string render(const Trace& t) {
  std::string out = "Trace ID=" + util::IdCodec::encode(t.req_id) + "\n";
  char buf[256];
  for (const auto& s : t.spans) {
    std::snprintf(buf, sizeof(buf),
                  "%*s%-8s visit %d  ua=%-12lld ud=%-12lld incl=%8.3fms "
                  "excl=%8.3fms\n",
                  s.tier * 2, "", s.service.c_str(), s.visit,
                  static_cast<long long>(s.ua), static_cast<long long>(s.ud),
                  util::to_msec(s.inclusive_time()),
                  util::to_msec(s.exclusive_time()));
    out += buf;
    for (std::size_t c = 0; c < s.calls.size(); ++c) {
      std::snprintf(buf, sizeof(buf), "%*s  -> call %zu  ds=%-12lld dr=%-12lld\n",
                    s.tier * 2, "", c,
                    static_cast<long long>(s.calls[c].first),
                    static_cast<long long>(s.calls[c].second));
      out += buf;
    }
  }
  return out;
}

int compare_with_truth(const Trace& t, const sim::Request& truth) {
  int mismatches = 0;
  for (const auto& span : t.spans) {
    if (span.tier < 0 ||
        static_cast<std::size_t>(span.tier) >= truth.records.size()) {
      ++mismatches;
      continue;
    }
    const auto& rec = truth.records[static_cast<std::size_t>(span.tier)];
    if (static_cast<std::size_t>(span.visit) >= rec.visits.size()) {
      ++mismatches;
      continue;
    }
    const sim::Visit& v = rec.visits[static_cast<std::size_t>(span.visit)];
    if (span.ua != v.upstream_arrival) ++mismatches;
    if (span.ud != v.upstream_departure) ++mismatches;
    for (std::size_t c = 0; c < span.calls.size(); ++c) {
      if (c >= v.downstream.size()) {
        ++mismatches;
        continue;
      }
      if (span.calls[c].first != v.downstream[c].first) ++mismatches;
      if (span.calls[c].second != v.downstream[c].second) ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace mscope::core
