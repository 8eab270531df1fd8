#include "obs/meta_exporter.h"

#include <stdexcept>

namespace mscope::obs {

using db::DataType;
using db::Schema;
using db::Table;
using db::TextRef;
using db::Value;

Table& MetaExporter::ensure(const std::string& name, const Schema& schema) {
  if (Table* t = db_.find(name)) {
    if (t->schema() != schema) {
      throw std::runtime_error("MetaExporter: table '" + name +
                               "' exists with a different schema");
    }
    return *t;
  }
  return db_.create_table(name, schema);
}

void MetaExporter::export_metrics(util::SimTime t) {
  static const Schema kMetricsSchema{{"ts_usec", DataType::kInt},
                                     {"name", DataType::kText},
                                     {"kind", DataType::kText},
                                     {"value", DataType::kDouble}};
  static const Schema kHistSchema{{"ts_usec", DataType::kInt},
                                  {"name", DataType::kText},
                                  {"count", DataType::kInt},
                                  {"mean_usec", DataType::kDouble},
                                  {"p50_usec", DataType::kInt},
                                  {"p95_usec", DataType::kInt},
                                  {"p99_usec", DataType::kInt},
                                  {"max_usec", DataType::kInt}};
  ++stats_.exports;
  const auto snap = registry_.snapshot();
  // Tables are created lazily on the first tick that has something to say,
  // so an experiment with an empty registry leaves no meta tables behind.
  Table* metrics = nullptr;
  Table* hist = nullptr;
  for (const MetricSample& s : snap) {
    if (s.kind == MetricSample::Kind::kHistogram) {
      if (hist == nullptr) hist = &ensure(hist_table(), kHistSchema);
      hist->insert({Value{t}, Value{TextRef(s.name)},
                    Value{static_cast<std::int64_t>(s.count)}, Value{s.value},
                    Value{s.p50}, Value{s.p95}, Value{s.p99}, Value{s.max}});
      ++stats_.hist_rows;
    } else {
      if (metrics == nullptr) {
        metrics = &ensure(metrics_table(), kMetricsSchema);
      }
      metrics->insert({Value{t}, Value{TextRef(s.name)},
                       Value{TextRef(to_string(s.kind))}, Value{s.value}});
      ++stats_.metric_rows;
    }
  }
}

void MetaExporter::export_spans(const Tracer& tracer) {
  static const Schema kSpansSchema{{"ts_usec", DataType::kInt},
                                   {"dur_usec", DataType::kInt},
                                   {"name", DataType::kText},
                                   {"track", DataType::kText},
                                   {"depth", DataType::kInt},
                                   {"wall_usec", DataType::kInt}};
  const auto& spans = tracer.spans();
  Table* table = nullptr;
  for (; spans_exported_ < spans.size(); ++spans_exported_) {
    const Tracer::SpanRecord& s = spans[spans_exported_];
    if (s.end < 0) continue;  // still open: skipped for good (documented)
    if (table == nullptr) table = &ensure(spans_table(), kSpansSchema);
    table->insert({Value{s.begin}, Value{s.end - s.begin},
                   Value{TextRef(s.name)}, Value{TextRef(s.track)},
                   Value{static_cast<std::int64_t>(s.depth)},
                   Value{s.wall_usec}});
    ++stats_.span_rows;
  }
}

}  // namespace mscope::obs
