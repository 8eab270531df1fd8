#include "core/trace.h"

#include <algorithm>
#include <cstdio>

#include "util/id_codec.h"

namespace mscope::core {

SimTime TraceSpan::exclusive_time() const {
  SimTime t = inclusive_time();
  for (const auto& [ds, dr] : calls) {
    // A skewed call with dr < ds must not *inflate* the exclusive time.
    if (ds >= 0 && dr >= 0 && dr > ds) t -= (dr - ds);
  }
  return std::max<SimTime>(t, 0);
}

bool TraceSpan::skewed() const {
  if (ua >= 0 && ud >= 0 && ud < ua) return true;
  for (const auto& [ds, dr] : calls) {
    if (ds >= 0 && dr >= 0 && dr < ds) return true;
  }
  return false;
}

SimTime Trace::response_time() const {
  for (const auto& s : spans) {
    if (s.tier == 0) return s.inclusive_time();
  }
  return 0;
}

TraceReconstructor::TraceReconstructor(const db::Catalog& db,
                                       std::vector<std::string> event_tables,
                                       std::vector<std::string> services)
    : db_(db), services_(std::move(services)) {
  tier_tables_.reserve(event_tables.size());
  for (auto& name : event_tables) {
    tier_tables_.push_back({std::move(name)});
  }
}

TraceReconstructor TraceReconstructor::for_groups(
    const db::Catalog& db, std::vector<std::vector<std::string>> tier_tables,
    std::vector<std::string> services) {
  TraceReconstructor tr(db, std::vector<std::string>{}, std::move(services));
  tr.tier_tables_ = std::move(tier_tables);
  return tr;
}

std::optional<Trace> TraceReconstructor::reconstruct(
    std::uint64_t req_id) const {
  Trace trace;
  trace.req_id = req_id;
  const std::string hex = util::IdCodec::encode(req_id);

  for (std::size_t tier = 0; tier < tier_tables_.size(); ++tier) {
    for (const std::string& table_name : tier_tables_[tier]) {
      const db::Table* table = db_.find(table_name);
      if (table == nullptr) continue;
      const auto rid = table->column_index("req_id");
      if (!rid) continue;
      for (db::RowCursor cur = table->scan(); cur.next();) {
        const db::Value& v = cur.row()[*rid];
        if (db::is_null(v) || db::value_to_string(v) != hex) continue;
        TraceSpan span;
        span.tier = static_cast<int>(tier);
        span.service = tier < services_.size() ? services_[tier] : "?";
        if (const auto c = table->column_index("visit")) {
          if (const auto x = db::as_int(cur.row()[*c]))
            span.visit = static_cast<int>(*x);
        }
        if (const auto c = table->column_index("ua_usec")) {
          if (const auto x = db::as_int(cur.row()[*c])) span.ua = *x;
        }
        if (const auto c = table->column_index("ud_usec")) {
          if (const auto x = db::as_int(cur.row()[*c])) span.ud = *x;
        }
        // Single downstream pair (Apache, CJDBC)...
        const auto ds = table->column_index("ds_usec");
        const auto dr = table->column_index("dr_usec");
        if (ds && dr) {
          const auto a = db::as_int(cur.row()[*ds]);
          const auto b = db::as_int(cur.row()[*dr]);
          if (a && b) span.calls.emplace_back(*a, *b);
        }
        // ...or the Tomcat monitor's variable-width dsN/drN columns.
        for (int call = 0; call < 64; ++call) {
          const auto dsn =
              table->column_index("ds" + std::to_string(call) + "_usec");
          const auto drn =
              table->column_index("dr" + std::to_string(call) + "_usec");
          if (!dsn || !drn) break;
          const auto a = db::as_int(cur.row()[*dsn]);
          const auto b = db::as_int(cur.row()[*drn]);
          if (a && b) span.calls.emplace_back(*a, *b);
        }
        trace.spans.push_back(std::move(span));
      }
    }
  }
  if (trace.spans.empty()) return std::nullopt;
  std::stable_sort(trace.spans.begin(), trace.spans.end(),
                   [](const TraceSpan& a, const TraceSpan& b) {
                     if (a.tier != b.tier) return a.tier < b.tier;
                     return a.visit < b.visit;
                   });
  return trace;
}

std::vector<std::uint64_t> TraceReconstructor::request_ids() const {
  std::vector<std::uint64_t> ids;
  if (tier_tables_.empty()) return ids;
  for (const std::string& table_name : tier_tables_.front()) {
    const db::Table* table = db_.find(table_name);
    if (table == nullptr) continue;
    const auto rid = table->column_index("req_id");
    if (!rid) continue;
    for (db::RowCursor cur = table->scan(); cur.next();) {
      const db::Value& v = cur.row()[*rid];
      if (db::is_null(v)) continue;
      if (const auto id = util::IdCodec::decode(db::value_to_string(v))) {
        ids.push_back(*id);
      }
    }
  }
  return ids;
}

std::string TraceReconstructor::render(const Trace& t) {
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

int TraceReconstructor::compare_with_truth(const Trace& t,
                                           const sim::Request& truth) {
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
