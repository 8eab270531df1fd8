#include "core/metrics.h"

#include <algorithm>
#include <map>

#include "db/columns.h"

namespace mscope::core {

double PitSeries::peak_to_average() const {
  if (overall_avg_ms <= 0.0) return 0.0;
  double peak = 0.0;
  for (const auto& s : max_rt_ms) peak = std::max(peak, s.value);
  return peak / overall_avg_ms;
}

namespace {

PitSeries pit_from_events(const Series& completions_rt_ms, SimTime bucket) {
  PitSeries out;
  out.bucket = bucket;
  out.max_rt_ms = util::rebucket(completions_rt_ms, bucket, util::BucketOp::kMax);
  out.avg_rt_ms =
      util::rebucket(completions_rt_ms, bucket, util::BucketOp::kMean);
  util::RunningStats all;
  std::vector<double> values;
  values.reserve(completions_rt_ms.size());
  for (const auto& s : completions_rt_ms) {
    all.add(s.value);
    values.push_back(s.value);
  }
  out.overall_avg_ms = all.mean();
  out.overall_p50_ms = util::percentile(values, 50);
  return out;
}

/// Appends (time, value) for every row whose two cells are numeric, in row
/// order. Throws std::out_of_range if the table lacks either column.
void append_samples(const db::Table& t, const std::string& time_col,
                    const std::string& value_col, Series& out) {
  for (db::ColumnReader r(t, {time_col, value_col}); r.next();) {
    const auto time = r.as_int(0);
    const auto v = r.as_double(1);
    if (time && v) out.push_back({*time, *v});
  }
}

/// Stable: samples with equal times keep the order they were appended in.
void sort_by_time(Series& s) {
  std::stable_sort(s.begin(), s.end(), [](const auto& a, const auto& b) {
    return a.time < b.time;
  });
}

}  // namespace

PitSeries pit_response_time(const std::vector<sim::RequestPtr>& completed,
                            SimTime bucket) {
  Series rt;
  rt.reserve(completed.size());
  for (const auto& r : completed) {
    if (r->response_time() >= 0) {
      rt.push_back({r->client_recv, util::to_msec(r->response_time())});
    }
  }
  return pit_from_events(rt, bucket);
}

PitSeries pit_response_time_db(const db::Catalog& db,
                               const std::string& apache_table,
                               SimTime bucket) {
  return pit_response_time_db_multi(db, {apache_table}, bucket);
}

PitSeries pit_response_time_db_multi(
    const db::Catalog& db, const std::vector<std::string>& apache_tables,
    SimTime bucket) {
  // (completion time, response time): duration_usec is Apache's %D field.
  // Replicas concatenate in table order before one stable sort, so equal
  // completion times stay in (table, row) order.
  Series rt;
  for (const auto& name : apache_tables) {
    append_samples(db.get(name), "ud_usec", "duration_usec", rt);
  }
  sort_by_time(rt);
  for (auto& s : rt) s.value /= 1000.0;  // usec -> ms
  return pit_from_events(rt, bucket);
}

Series queue_length_db(const db::Catalog& db, const std::string& event_table,
                       SimTime bucket, SimTime t_begin, SimTime t_end) {
  return queue_length_db_multi(db, {event_table}, bucket, t_begin, t_end);
}

Series queue_length_db_multi(const db::Catalog& db,
                             const std::vector<std::string>& event_tables,
                             SimTime bucket, SimTime t_begin, SimTime t_end) {
  // One +1 at ua_usec and one -1 at ud_usec per row that logged both (a row
  // missing either never entered, or never left, the tier's queue as far
  // as the log shows), appended in (table, row, arrival-before-departure)
  // order. integrate_deltas' stable sort by time keeps that order among
  // equal times, and the transient peak inside a bucket depends on it.
  Series deltas;
  for (const auto& name : event_tables) {
    const db::Table& t = db.get(name);
    if (!t.column_index("ua_usec") || !t.column_index("ud_usec")) continue;
    for (db::ColumnReader r(t, {"ua_usec", "ud_usec"}); r.next();) {
      const auto arrival = r.as_int(0);
      const auto departure = r.as_int(1);
      if (!arrival || !departure) continue;
      deltas.push_back({*arrival, +1.0});
      deltas.push_back({*departure, -1.0});
    }
  }
  return util::integrate_deltas(std::move(deltas), bucket, t_begin, t_end);
}

Series queue_length_truth(const std::vector<sim::RequestPtr>& completed,
                          int tier, SimTime bucket, SimTime t_begin,
                          SimTime t_end) {
  Series deltas;
  for (const auto& r : completed) {
    const auto& rec = r->records[static_cast<std::size_t>(tier)];
    for (const auto& v : rec.visits) {
      if (v.upstream_arrival < 0 || v.upstream_departure < 0) continue;
      deltas.push_back({v.upstream_arrival, +1.0});
      deltas.push_back({v.upstream_departure, -1.0});
    }
  }
  return util::integrate_deltas(std::move(deltas), bucket, t_begin, t_end);
}

Series resource_series(const db::Catalog& db, const std::string& table,
                       const std::string& column) {
  const db::Table* t = db.find(table);
  if (t == nullptr) return {};
  if (!t->column_index(column) || !t->column_index("ts_usec")) return {};
  Series out;
  append_samples(*t, "ts_usec", column, out);
  sort_by_time(out);
  return out;
}

std::vector<InteractionStats> interaction_breakdown(
    const db::Catalog& db, const std::string& apache_table,
    double vlrt_factor) {
  const db::Table* t = db.find(apache_table);
  std::vector<InteractionStats> out;
  if (t == nullptr) return out;
  const auto url_col = t->column_index("url");
  const auto dur_col = t->column_index("duration_usec");
  if (!url_col || !dur_col) return out;

  // Pass 1: the median RT defines the VLRT threshold.
  std::vector<double> all_ms;
  all_ms.reserve(t->row_count());
  for (db::RowCursor cur = t->scan(); cur.next();) {
    if (const auto d = db::as_int(cur.row()[*dur_col])) {
      all_ms.push_back(static_cast<double>(*d) / 1000.0);
    }
  }
  const double threshold = vlrt_factor * util::percentile(all_ms, 50);

  // Pass 2: group by servlet path.
  struct Acc {
    util::RunningStats rt;
    std::size_t vlrt = 0;
  };
  std::map<std::string, Acc> groups;
  for (db::RowCursor cur = t->scan(); cur.next();) {
    const db::Value& u = cur.row()[*url_col];
    const auto d = db::as_int(cur.row()[*dur_col]);
    if (db::is_null(u) || !d) continue;
    std::string path = db::value_to_string(u);
    const auto q = path.find('?');
    if (q != std::string::npos) path.resize(q);
    auto& acc = groups[path];
    const double ms = static_cast<double>(*d) / 1000.0;
    acc.rt.add(ms);
    if (threshold > 0 && ms > threshold) ++acc.vlrt;
  }
  out.reserve(groups.size());
  for (const auto& [path, acc] : groups) {
    out.push_back({path, acc.rt.count(), acc.rt.mean(), acc.rt.max(),
                   acc.vlrt});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const InteractionStats& a, const InteractionStats& b) {
                     return a.count > b.count;
                   });
  return out;
}

Series throughput(const std::vector<sim::RequestPtr>& completed,
                  SimTime bucket) {
  Series events;
  events.reserve(completed.size());
  for (const auto& r : completed) {
    if (r->client_recv >= 0) events.push_back({r->client_recv, 1.0});
  }
  Series counts = util::rebucket(events, bucket, util::BucketOp::kCount);
  const double per_sec = 1e6 / static_cast<double>(bucket);
  for (auto& s : counts) s.value *= per_sec;
  return counts;
}

double mean_response_ms(const std::vector<sim::RequestPtr>& completed) {
  util::RunningStats stats;
  for (const auto& r : completed) {
    if (r->response_time() >= 0)
      stats.add(util::to_msec(r->response_time()));
  }
  return stats.mean();
}

double response_percentile_ms(const std::vector<sim::RequestPtr>& completed,
                              double q) {
  std::vector<double> rt;
  rt.reserve(completed.size());
  for (const auto& r : completed) {
    if (r->response_time() >= 0) rt.push_back(util::to_msec(r->response_time()));
  }
  return util::percentile(rt, q);
}

}  // namespace mscope::core
