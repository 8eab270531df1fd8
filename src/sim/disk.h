#pragma once

#include <cstdint>
#include <deque>

#include "sim/simulation.h"

namespace mscope::sim {

class Node;

/// Single-spindle block device with a FIFO queue.
///
/// Service time = per_op latency + bytes / bandwidth. FIFO matters for the
/// paper's scenario A: the MySQL redo-log flush is one large write, and every
/// commit or read submitted during the flush queues behind it — that queueing
/// *is* the very short bottleneck.
class Disk {
 public:
  struct Config {
    double bandwidth_mbps = 150.0;  ///< sustained transfer rate
    SimTime per_op = 200;           ///< fixed per-operation latency (usec)
  };

  Disk(Simulation& sim, Node& node, Config cfg);

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  /// Submits a read or write of `bytes`; `done` fires at completion.
  void submit(std::uint64_t bytes, bool is_write, Callback done);

  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] int queue_length() const {
    return static_cast<int>(queue_.size()) + (busy_ ? 1 : 0);
  }

  /// Cumulative counters (monitors take deltas, like reading /proc).
  [[nodiscard]] SimTime busy_time() const { return busy_time_; }
  [[nodiscard]] std::uint64_t bytes_read() const { return bytes_read_; }
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }
  [[nodiscard]] std::uint64_t ops_completed() const { return ops_; }

  /// Service time for a transfer of `bytes`.
  [[nodiscard]] SimTime service_time(std::uint64_t bytes) const;

  /// Slow-disk fault knob (mScopeChaos): service times of ops *started*
  /// after the call are multiplied by `factor` (1.0 = healthy). Models a
  /// degraded spindle / throttled volume episode without touching the
  /// disk's accounting.
  void set_degradation(double factor) { degradation_ = factor; }
  [[nodiscard]] double degradation() const { return degradation_; }

 private:
  struct Op {
    std::uint64_t bytes = 0;
    bool is_write = false;
    Callback done;
  };

  void start(Op op);
  void complete(SimTime service_time);

  Simulation& sim_;
  Node& node_;
  Config cfg_;
  double degradation_ = 1.0;
  bool busy_ = false;
  SimTime busy_time_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t ops_ = 0;
  /// The op on the spindle; its completion event carries only the service
  /// time, so the event's closure never nests `done`.
  Op in_service_;
  std::deque<Op> queue_;
};

}  // namespace mscope::sim
