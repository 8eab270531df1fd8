#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "db/column_batch.h"
#include "util/simtime.h"

namespace mscope::core {

using util::SimTime;

/// Live queue-depth estimation over streamed event rows, fed by the
/// collection pipeline's root (fleet::FleetCollection, at any depth). Feed
/// it each event-table batch of rows as it becomes visible (on_rows) and
/// tick it periodically (evaluate): per event table it maintains arrival /
/// departure min-heaps and emits the tier's queue depth at a watermark
/// trailing the newest departure seen, so rows still in flight through the
/// pipeline rarely invalidate an emitted sample.
///
/// Each record costs O(log n) total across its lifetime, instead of being
/// rescanned by every tick while its interval stays open.
class QueueSignal {
 public:
  /// `watermark`: how far behind the newest departure the depth is
  /// evaluated.
  explicit QueueSignal(SimTime watermark) : watermark_(watermark) {}

  /// Receives depth samples: (evaluation time, event table, depth).
  using SampleSink =
      std::function<void(SimTime t, const std::string& table, double depth)>;

  /// Observes rows [first, end) of a streamed batch the moment they become
  /// visible. Rows of non-event tables, rows whose ua_usec or ud_usec is
  /// NULL, and batches whose ua_usec or ud_usec column is not Int, are
  /// ignored.
  void on_rows(const std::string& table, const db::ColumnBatch& batch,
               std::size_t first, std::size_t end);

  /// Advances every table's evaluation point to (newest departure -
  /// watermark) and emits one sample per table that moved. Tables are
  /// visited in sorted name order (deterministic replay).
  void evaluate(const SampleSink& sink);

 private:
  /// Arrival and departure timestamps not yet behind the evaluation
  /// watermark sit in two min-heaps; since a row's departure never precedes
  /// its arrival, the depth at the watermark is #(arrivals <= t) -
  /// #(departures <= t), maintained as a running count while the heaps are
  /// popped up to t.
  struct State {
    using MinHeap = std::priority_queue<std::int64_t,
                                        std::vector<std::int64_t>,
                                        std::greater<>>;
    MinHeap arrivals;
    MinHeap departures;
    std::int64_t depth = 0;  ///< open requests at last_eval
    std::int64_t max_ud = 0;
    std::int64_t last_eval = -1;
  };

  /// ua_usec / ud_usec positions in a table's schema, resolved once per
  /// schema width (columns only ever join a table at the end).
  struct Columns {
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::size_t width = 0;
    std::size_t ua = kNone;
    std::size_t ud = kNone;
  };

  SimTime watermark_;
  std::map<std::string, State> queues_;
  std::map<std::string, Columns> columns_;
};

}  // namespace mscope::core
