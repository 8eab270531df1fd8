#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/trace.h"
#include "db/database.h"

namespace mscope::core {

/// The per-ID reference reconstruction the bulk flow::Materializer must
/// match cell for cell: for one request id it scans every event table row
/// by row, resolving each column per row and matching the request-id cell
/// by string against IdCodec::encode(id). It deliberately shares no layout
/// or decoding code with the materializer (not even core::event_columns),
/// so a bug there cannot pass the parity suites.
class TraceReconstructor {
 public:
  /// `event_tables` front-to-back, `services` the matching service names.
  TraceReconstructor(const db::Catalog& db,
                     std::vector<std::string> event_tables,
                     std::vector<std::string> services);

  /// Replica-aware form: `tier_tables[t]` lists every replica's event table
  /// of tier t (a request visits exactly one replica per tier, so scanning
  /// the whole group finds its records wherever they landed). The flat
  /// constructor above is the single-replica special case. A named factory
  /// rather than an overload: brace-initialized table lists would otherwise
  /// be ambiguous between the two vector shapes.
  [[nodiscard]] static TraceReconstructor for_groups(
      const db::Catalog& db, std::vector<std::vector<std::string>> tier_tables,
      std::vector<std::string> services);

  /// Reconstructs one request's trace; nullopt if the ID appears nowhere.
  [[nodiscard]] std::optional<Trace> reconstruct(std::uint64_t req_id) const;

 private:
  const db::Catalog& db_;
  std::vector<std::vector<std::string>> tier_tables_;
  std::vector<std::string> services_;
};

}  // namespace mscope::core
