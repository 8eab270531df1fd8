#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/simtime.h"

namespace mscope::collector {

/// One chunk of raw log bytes captured by a LogTailer. Chunks preserve the
/// file's byte stream exactly (the collector re-assembles them by
/// concatenation in offset order), and — except for the final flush of a
/// file that does not end in a newline — always end on a line boundary.
struct Record {
  std::string file;           ///< log file name, e.g. "apache_access.log"
  std::uint64_t offset = 0;   ///< byte offset of `data` within `generation`
  std::uint64_t generation = 0;  ///< file rotation counter at capture time
  std::string data;           ///< raw bytes, exactly as appended to the file

  [[nodiscard]] std::size_t bytes() const { return data.size(); }
};

/// A shipper's unit of transfer: records from one node, in capture order.
struct Batch {
  std::string node;        ///< source node (log directory name)
  std::uint64_t seq = 0;   ///< per-shipper batch sequence number
  /// Virtual time the shipper assembled this batch. Carried through every
  /// hop of a collection tree so the root can measure true end-to-end
  /// collection latency (now - oldest assembled_at still in flight).
  util::SimTime assembled_at = 0;
  std::vector<Record> records;

  [[nodiscard]] std::size_t bytes() const {
    std::size_t n = 0;
    for (const auto& r : records) n += r.bytes();
    return n;
  }
};

}  // namespace mscope::collector
