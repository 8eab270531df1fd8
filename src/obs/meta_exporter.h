#pragma once

#include <cstdint>
#include <string>

#include "db/database.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/simtime.h"

namespace mscope::obs {

/// Dogfooding bridge: periodically snapshots a metrics Registry (and, at the
/// end of a run, a Tracer) into dynamically created `mscope_meta_*` tables
/// of the *same* mScopeDB warehouse the pipeline is filling.
///
/// That closes the loop the hierarchical-monitoring literature argues for —
/// monitor telemetry flowing through the same aggregation substrate as the
/// monitored data: PIT analysis, SQL and the diagnoser all run unmodified
/// over the monitor's own health series, because they are
/// just rows with a ts_usec anchor like every other table.
///
/// Tables (created on first export):
///   mscope_meta_metrics  ts_usec | name | kind | value
///       one row per counter/gauge per export tick — a time series per
///       metric name, queryable with SQL like any monitor log;
///   mscope_meta_hist     ts_usec | name | count | mean_usec | p50/p95/p99/max
///       one row per histogram per export tick (merged over shards);
///   mscope_meta_spans    ts_usec | dur_usec | name | track | depth | wall_usec
///       one row per closed tracer span (exported once, typically at
///       finish()); ts_usec is the span's virtual begin time.
class MetaExporter {
 public:
  struct Stats {
    std::uint64_t exports = 0;     ///< export_metrics calls
    std::uint64_t metric_rows = 0;
    std::uint64_t hist_rows = 0;
    std::uint64_t span_rows = 0;
  };

  MetaExporter(db::Database& db, Registry& registry)
      : db_(db), registry_(registry) {}

  /// Writes one row per registry instrument, stamped `t` (virtual time).
  void export_metrics(util::SimTime t);

  /// Writes every closed span not exported by a previous call. Spans still
  /// open when this runs are skipped for good — export after the run, when
  /// all scopes have closed.
  void export_spans(const Tracer& tracer);

  [[nodiscard]] const Stats& stats() const { return stats_; }

  [[nodiscard]] std::string metrics_table() const {
    return "mscope_meta_metrics";
  }
  [[nodiscard]] std::string hist_table() const { return "mscope_meta_hist"; }
  [[nodiscard]] std::string spans_table() const { return "mscope_meta_spans"; }

 private:
  db::Table& ensure(const std::string& name, const db::Schema& schema);

  db::Database& db_;
  Registry& registry_;
  Stats stats_;
  std::size_t spans_exported_ = 0;
};

}  // namespace mscope::obs
