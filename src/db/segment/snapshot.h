#pragma once

#include <cstdint>
#include <iosfwd>

#include "db/table.h"

namespace mscope::db::segment {

/// On-disk snapshot format version ("MSEG" magic + this byte). Bump on any
/// layout change; readers reject versions they do not understand, so an old
/// binary never silently misreads a new warehouse.
///
/// Version history:
///   1 — raw encoded chunks, no integrity metadata (still readable).
///   2 — every encoded chunk is length-prefixed and CRC32C-checked, and the
///       file ends in a "MEND" footer carrying a whole-file CRC32C, so a
///       torn write or a flipped bit is always *detected* (a v2 snapshot
///       either loads exactly or fails loudly — never silently wrong).
inline constexpr std::uint8_t kSnapshotVersion = 2;

/// Writes the table in binary segment form: schema, then each sealed
/// segment's encoded chunks verbatim (delta+varint bytes, validity words,
/// dictionaries), then the active tail encoded as one trailing chunk-set.
/// All integers little-endian; doubles as IEEE-754 bit patterns, so the
/// round trip is bit-exact. `version` selects the on-disk layout (tests use
/// it to exercise the v1 compatibility path).
void write_table(std::ostream& out, const Table& table,
                 std::uint8_t version = kSnapshotVersion);

/// Reads a table written by write_table (either version), adopting the
/// sealed segments without re-parsing or re-encoding (the tail chunk-set is
/// decoded back into the store's tail arrays, and nothing seals, so the
/// loaded table has the saved layout). For v2 files the footer checksum is
/// verified before anything is decoded and every chunk is re-checked
/// against its CRC32C. Throws std::runtime_error on any mismatch; messages
/// carry the byte offset and, once known, the table name and the
/// segment/column being decoded, so a damaged archive is diagnosable.
[[nodiscard]] Table read_table(std::istream& in);

}  // namespace mscope::db::segment
