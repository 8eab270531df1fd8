#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "db/table.h"
#include "util/simtime.h"

namespace mscope::core {

using util::SimTime;

/// Live queue-depth estimation over streamed event rows, fed by the
/// collection pipeline's root (fleet::FleetCollection, at any depth). Feed
/// it each event-table row as it becomes visible (on_row) and
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

  /// Observes one streamed row the moment it becomes visible. Rows of
  /// non-event tables, and rows without a complete (ua_usec, ud_usec) pair,
  /// are ignored.
  void on_row(const std::string& table, const db::Schema& schema,
              const std::vector<std::string>& row);

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

  SimTime watermark_;
  std::map<std::string, State> queues_;
};

}  // namespace mscope::core
