#include "oracle/trace_reconstructor.h"

#include <algorithm>

#include "util/id_codec.h"

namespace mscope::core {

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

}  // namespace mscope::core
