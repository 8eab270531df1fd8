#include "core/queue_signal.h"

namespace mscope::core {

void QueueSignal::on_rows(const std::string& table,
                          const db::ColumnBatch& batch, std::size_t first,
                          std::size_t end) {
  // Only event tables carry per-request (arrive, depart) pairs.
  if (table.rfind("ev_", 0) != 0) return;
  Columns& cols = columns_[table];
  if (cols.width != batch.schema.size()) {
    cols = Columns{};
    cols.width = batch.schema.size();
    for (std::size_t i = 0; i < batch.schema.size(); ++i) {
      if (batch.schema[i].name == "ua_usec") cols.ua = i;
      if (batch.schema[i].name == "ud_usec") cols.ud = i;
    }
  }
  if (cols.ua == Columns::kNone || cols.ud == Columns::kNone) return;
  const db::ColumnBatch::Column& ua = batch.columns[cols.ua];
  const db::ColumnBatch::Column& ud = batch.columns[cols.ud];
  if (ua.type != db::DataType::kInt || ud.type != db::DataType::kInt) return;
  State* q = nullptr;
  for (std::size_t r = first; r < end; ++r) {
    if (ua.valid[r] == 0 || ud.valid[r] == 0) continue;
    const std::int64_t a = ua.ints[r];
    const std::int64_t d = ud.ints[r];
    if (d < a) continue;
    if (q == nullptr) q = &queues_[table];
    q->arrivals.push(a);
    q->departures.push(d);
    if (d > q->max_ud) q->max_ud = d;
  }
}

void QueueSignal::evaluate(const SampleSink& sink) {
  for (auto& [table, q] : queues_) {
    const std::int64_t t_eval = q.max_ud - watermark_;
    if (t_eval <= q.last_eval) continue;
    // Pop everything now behind the watermark; the running count stays equal
    // to #(ua <= t_eval < ud), i.e. the requests inside the tier at t_eval.
    // Rows that arrive late (pipeline stragglers with old timestamps) enter
    // the heaps after earlier evaluations but are still popped — and counted
    // — the first time the watermark passes them.
    while (!q.arrivals.empty() && q.arrivals.top() <= t_eval) {
      q.arrivals.pop();
      ++q.depth;
    }
    while (!q.departures.empty() && q.departures.top() <= t_eval) {
      q.departures.pop();
      --q.depth;
    }
    q.last_eval = t_eval;
    if (sink) sink(t_eval, table, static_cast<double>(q.depth));
  }
}

}  // namespace mscope::core
