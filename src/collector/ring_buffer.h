#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "collector/record.h"

namespace mscope::collector {

/// What a full buffer does to an incoming record (the collector's
/// backpressure knob — cf. "Decreasing log data of multi-tier services for
/// effective request tracing": bounded per-node memory is what makes online
/// collection deployable).
enum class OverflowPolicy {
  kBlock,       ///< push fails; the producer keeps the record and backs off
  kDropOldest,  ///< evict the oldest record to make room (keep the freshest)
  kDropNewest,  ///< discard the incoming record (keep the oldest)
};

[[nodiscard]] constexpr const char* to_string(OverflowPolicy p) {
  switch (p) {
    case OverflowPolicy::kBlock: return "block";
    case OverflowPolicy::kDropOldest: return "drop-oldest";
    case OverflowPolicy::kDropNewest: return "drop-newest";
  }
  return "?";
}

/// Bounded FIFO of Records between a LogTailer (producer) and a Shipper
/// (consumer), with a selectable overflow policy and exact loss accounting.
/// Single-threaded by design: the whole collector runs inside the
/// discrete-event simulation, so "blocking" is modeled as push-failure that
/// the producer observes (and retries after the shipper drains).
///
/// The ring allocates as it fills: it starts at 16 slots on the first push
/// and doubles, up to `capacity`, whenever a push finds it full. A channel
/// that never holds more than a few dozen records (the common case) never
/// pays for a capacity's worth of Records; the bound, the overflow policies
/// and the accounting are those of a ring built at full size.
class RingBuffer {
 public:
  struct Stats {
    std::uint64_t pushed = 0;         ///< records accepted
    std::uint64_t popped = 0;         ///< records drained
    std::uint64_t dropped_oldest = 0; ///< evicted under kDropOldest
    std::uint64_t dropped_newest = 0; ///< rejected under kDropNewest
    std::uint64_t blocked = 0;        ///< push failures under kBlock
    std::size_t peak_depth = 0;

    [[nodiscard]] std::uint64_t dropped() const {
      return dropped_oldest + dropped_newest;
    }
  };

  RingBuffer(std::size_t capacity, OverflowPolicy policy)
      : capacity_(capacity), policy_(policy) {
    if (capacity == 0) throw std::invalid_argument("RingBuffer: capacity 0");
  }

  /// Offers a record. Returns false only under kBlock with a full buffer —
  /// the caller keeps ownership of the data and should retry after a drain.
  bool push(Record r) {
    if (size_ == slots_.size() && size_ < capacity_) grow();
    if (size_ == capacity_) {
      switch (policy_) {
        case OverflowPolicy::kBlock:
          ++stats_.blocked;
          return false;
        case OverflowPolicy::kDropNewest:
          ++stats_.dropped_newest;
          return true;  // accepted-and-discarded: producer must not retry
        case OverflowPolicy::kDropOldest:
          ++stats_.dropped_oldest;
          head_ = (head_ + 1) % slots_.size();
          --size_;
          break;
      }
    }
    slots_[(head_ + size_) % slots_.size()] = std::move(r);
    ++size_;
    ++stats_.pushed;
    stats_.peak_depth = std::max(stats_.peak_depth, size_);
    return true;
  }

  /// Removes and returns the oldest record; nullopt when empty.
  std::optional<Record> pop() {
    if (size_ == 0) return std::nullopt;
    Record r = std::move(slots_[head_]);
    head_ = (head_ + 1) % slots_.size();
    --size_;
    ++stats_.popped;
    return r;
  }

  /// Discards everything buffered (a leaf agent crash: in-memory records
  /// die with the process). Returns how many records were dropped so the
  /// caller can account the loss; lifetime counters are left untouched.
  std::size_t clear() {
    const std::size_t n = size_;
    head_ = 0;
    size_ = 0;
    return n;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t free_slots() const { return capacity() - size_; }
  [[nodiscard]] OverflowPolicy policy() const { return policy_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// Doubles the ring (16 slots at first, never past capacity_), moving the
  /// buffered records to its front in FIFO order.
  void grow() {
    std::vector<Record> wider(
        std::min(capacity_, std::max<std::size_t>(16, 2 * slots_.size())));
    for (std::size_t i = 0; i < size_; ++i) {
      wider[i] = std::move(slots_[(head_ + i) % slots_.size()]);
    }
    slots_.swap(wider);
    head_ = 0;
  }

  std::vector<Record> slots_;  ///< the ring allocated so far (<= capacity_)
  std::size_t capacity_;
  OverflowPolicy policy_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  Stats stats_;
};

}  // namespace mscope::collector
