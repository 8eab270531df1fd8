#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

namespace mscope::collector {

/// Offset-gap accounting for one fan-in point, shared by every hop of a
/// collection tree (a rack or pod RelayAggregator, the root collector).
/// Tailers emit contiguous byte ranges per (node, file, generation), so at
/// any hop the only way an arriving chunk's offset can jump past the bytes
/// seen so far is a batch some upstream link abandoned after exhausting its
/// retries. The tracker detects the hole, sizes it, and attributes it to the
/// origin node — the attribution survives re-framing because chunks carry
/// their origin (node, file, offset, generation) unchanged through every
/// hop.
///
/// Under chaos the tracker also powers the *dedup* side of at-least-once
/// delivery: an ack-lost transfer is retransmitted, so a chunk can arrive
/// whose offset is *behind* the position already seen. Per-channel delivery
/// is in order, so any such overlap is a strict prefix of the chunk —
/// admit() sizes it as `dup_bytes` and the hop trims exactly that prefix
/// before ingesting, making redelivery idempotent keyed by (node, file,
/// generation, offset).
class GapTracker {
 public:
  struct Stats {
    std::uint64_t gaps = 0;        ///< holes detected at this hop
    std::uint64_t gap_bytes = 0;   ///< log bytes lost in those holes
    std::uint64_t dups = 0;        ///< chunks that re-covered seen bytes
    std::uint64_t dup_bytes = 0;   ///< redelivered bytes trimmed at this hop
    std::uint64_t abandoned = 0;   ///< local-link abandonment events
    std::uint64_t abandoned_bytes = 0;  ///< bytes those abandonments dropped
  };

  /// What admit() decided about one arriving chunk.
  struct Admit {
    std::uint64_t skipped = 0;    ///< hole in front of the chunk (gap bytes)
    std::uint64_t dup_bytes = 0;  ///< leading bytes already seen (trim these)
  };

  /// Admits a chunk of `size` bytes of (node, file) at `offset` within
  /// `generation`: reports the bytes skipped since the last admitted
  /// position (0 = contiguous) and how many leading bytes of the chunk were
  /// already admitted at this hop (an ack-loss redelivery overlap). A
  /// rotation (new generation) resets the expected position without
  /// counting a gap. The caller must drop exactly `dup_bytes` from the
  /// chunk's front before forwarding/ingesting it — after the trim the
  /// remainder is brand new.
  Admit admit(const std::string& node, const std::string& file,
              std::uint64_t generation, std::uint64_t offset,
              std::uint64_t size) {
    StreamPos& pos = positions_[{node, file}];
    if (generation != pos.generation) {
      pos.generation = generation;
      pos.offset = 0;
    }
    Admit out;
    if (offset > pos.offset) {
      out.skipped = offset - pos.offset;
      ++stats_.gaps;
      stats_.gap_bytes += out.skipped;
      per_node_[node].gaps += 1;
      per_node_[node].gap_bytes += out.skipped;
    } else if (offset < pos.offset) {
      out.dup_bytes = std::min(pos.offset - offset, size);
      ++stats_.dups;
      stats_.dup_bytes += out.dup_bytes;
      per_node_[node].dups += 1;
      per_node_[node].dup_bytes += out.dup_bytes;
    }
    if (offset + size > pos.offset) pos.offset = offset + size;
    return out;
  }

  /// Sets a channel's position without observing (and without counting a
  /// gap or a dup). A restarted hop primes each channel from the first
  /// chunk that arrives after the resume handshake: the hop cannot tell
  /// how much was delivered to its previous incarnation, so attribution of
  /// the crash window is left to the hop above (whose tracker never lost
  /// state and remains authoritative).
  void prime(const std::string& node, const std::string& file,
             std::uint64_t generation, std::uint64_t offset) {
    StreamPos& pos = positions_[{node, file}];
    pos.generation = generation;
    pos.offset = offset;
  }

  /// True once a channel has been observed or primed at this hop.
  [[nodiscard]] bool known(const std::string& node,
                           const std::string& file) const {
    return positions_.count({node, file}) != 0;
  }

  /// Records a *local* abandonment: this hop's own uplink gave up on a
  /// payload carrying `bytes` of the origin node's log. The bytes will
  /// surface as a gap at the hop above; recording them here too means the
  /// loss is attributed at the hop that caused it, not just where it was
  /// noticed.
  void note_abandoned(const std::string& node, std::uint64_t bytes) {
    ++stats_.abandoned;
    stats_.abandoned_bytes += bytes;
    per_node_[node].abandoned += 1;
    per_node_[node].abandoned_bytes += bytes;
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Loss attributed to each origin node (for per-hop meta gauges and the
  /// run report's "which replica lost data" line).
  [[nodiscard]] const std::map<std::string, Stats>& per_node() const {
    return per_node_;
  }

 private:
  struct StreamPos {
    std::uint64_t generation = 0;
    std::uint64_t offset = 0;  ///< next expected byte position
  };

  std::map<std::pair<std::string, std::string>, StreamPos> positions_;
  std::map<std::string, Stats> per_node_;
  Stats stats_;
};

}  // namespace mscope::collector
