#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace mscope::transform {

/// RFC-4180-ish CSV: fields containing comma, quote or newline are quoted;
/// quotes are doubled. The XMLtoCSV converter and the warehouse archive
/// (WarehouseIO) write through this and read it back, so the pair must
/// round-trip arbitrary text.
class Csv {
 public:
  /// Renders one row.
  [[nodiscard]] static std::string write_row(
      const std::vector<std::string>& fields);

  /// Parses one line into fields (handles quoting; the input must be a
  /// single logical record — use split_records for full documents).
  [[nodiscard]] static std::vector<std::string> parse_row(std::string_view line);

  /// Splits a document into logical records, honoring quoted newlines.
  [[nodiscard]] static std::vector<std::string> split_records(
      std::string_view text);
};

}  // namespace mscope::transform
