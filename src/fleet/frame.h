#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/simtime.h"

namespace mscope::fleet {

/// One contiguous run of raw log bytes for a single origin stream, as
/// re-framed by a relay: the pre-merged concatenation of every leaf Record
/// of that (node, file, generation) the relay had queued, split only where
/// the byte stream itself has a hole (an abandoned transfer upstream) or a
/// rotation boundary. The origin coordinates ride along unchanged through
/// every hop, so any downstream fan-in point can re-run the exact same
/// offset-gap accounting a leaf's first hop does — and attribute
/// every hole to the origin node that lost it.
struct ChannelChunk {
  std::string node;              ///< origin monitored node, e.g. "db3"
  std::string file;              ///< log file name on that node
  std::uint64_t offset = 0;      ///< byte offset of `data` within generation
  std::uint64_t generation = 0;  ///< file rotation counter at capture time
  std::string data;              ///< raw bytes, concatenated in offset order

  [[nodiscard]] std::size_t bytes() const { return data.size(); }
};

/// A relay's unit of upward transfer: pre-merged chunks from every stream
/// the relay buffered since its last forward tick, in sorted (node, file)
/// order. Like collector::Batch one level down, frames move hop-by-hop over
/// a stop-and-wait ReliableLink, so a parent sees each origin stream's
/// bytes in offset order.
struct RelayFrame {
  std::string relay;      ///< sending relay's name, e.g. "relay1"
  std::uint64_t seq = 0;  ///< per-relay frame sequence number
  /// Oldest leaf-batch assembly time folded into this frame: the root's
  /// end-to-end collection latency for a frame is now - oldest_assembled.
  util::SimTime oldest_assembled = 0;
  std::vector<ChannelChunk> chunks;

  [[nodiscard]] std::size_t bytes() const {
    std::size_t n = 0;
    for (const auto& c : chunks) n += c.bytes();
    return n;
  }
};

}  // namespace mscope::fleet
