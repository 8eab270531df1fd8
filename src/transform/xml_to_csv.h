#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "db/table.h"
#include "transform/xml.h"

namespace mscope::transform {

/// The output of the mScope XMLtoCSV Converter: an inferred relational
/// schema plus string-typed rows aligned to it (empty cell = NULL).
struct Conversion {
  db::Schema schema;
  std::vector<std::vector<std::string>> rows;
  std::string source;
  std::string node;
  std::string file;
  /// 1-based source line number per row, when the producing parser tracked
  /// it (the fast path does; the XML reference path and from_csv leave it
  /// empty). Used only for error context — never affects the warehouse.
  std::vector<std::uint32_t> row_lines;
};

/// mScope XMLtoCSV Converter (paper Section III-B.3).
///
/// Separates the parsers' data annotation from warehouse schema creation:
///  * columns  = the *union* of all <field> names across <log> entries,
///    in first-appearance order;
///  * datatype = the "best match principle": the narrowest type
///    (Int < Double < Text) that can store every value of that field;
///  * missing fields in an entry become NULL.
class XmlToCsvConverter {
 public:
  /// Converts an annotated <logfile> tree.
  [[nodiscard]] static Conversion convert(const XmlNode& logfile_root);

  /// Renders the conversion as a CSV document (header row first).
  [[nodiscard]] static std::string to_csv(const Conversion& c);

  /// Renders the schema sidecar ("column:type" per line) that accompanies
  /// the CSV so a loader can create the table without re-inferring.
  [[nodiscard]] static std::string schema_sidecar(const Conversion& c);

  /// Reconstructs a Conversion from a CSV document + schema sidecar
  /// (how WarehouseIO::load reads an archived table back).
  [[nodiscard]] static Conversion from_csv(std::string_view csv,
                                           std::string_view sidecar);
};

}  // namespace mscope::transform
