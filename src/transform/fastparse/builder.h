#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "db/table.h"
#include "db/value.h"

namespace mscope::transform {

/// One parsed log file (or piece of one) in the shape the paper's XMLtoCSV
/// converter gives it (Section III-B.3): an inferred relational schema plus
/// string-typed rows aligned to it (empty cell = NULL).
struct Conversion {
  db::Schema schema;
  std::vector<std::vector<std::string>> rows;
  std::string source;
  std::string node;
  std::string file;
  /// 1-based source line number per row, when the producing parser tracked
  /// it (the scanners do). Used only for error context — never affects the
  /// warehouse.
  std::vector<std::uint32_t> row_lines;
};

}  // namespace mscope::transform

namespace mscope::transform::fastparse {

/// Builds a Conversion directly from emitted (column, value) pairs, with the
/// paper's XMLtoCSV typing rules and no XML in between:
///  * columns are the union of all emitted names in first-appearance order;
///  * each column's type is the best-match accumulation (widen over
///    infer_type of every occurrence, Null finalized to Text);
///  * cells missing from an entry stay "" (NULL);
///  * a column emitted twice in one entry keeps the last value but both
///    occurrences contribute to the type.
///
/// Column ids are stable for the builder's lifetime, so parsers resolve a
/// name once per (instruction, field) slot and then emit by id — the name
/// lookup leaves the per-line hot loop.
class ConversionBuilder {
 public:
  using ColId = std::uint32_t;

  /// Find-or-create the column for `name`; first use fixes its position.
  ColId column(std::string_view name);

  /// Starts a new entry (row). `source_line` is the 1-based line number in
  /// the original log file, recorded for error context.
  void begin_entry(std::uint32_t source_line);

  /// Emits a value into the current entry.
  void set(ColId col, std::string value);

  /// Emits a value the caller guarantees is the canonical decimal form of
  /// an int64 (std::to_string output) — skips the infer_type scan.
  void set_known_int(ColId col, std::string value);

  [[nodiscard]] std::size_t entries() const { return rows_.size(); }

  /// Hands out a Conversion: the schema of every column seen so far at its
  /// running type, plus the rows begun since the previous take(), padded to
  /// that schema's width. Columns and types stay, so the builder can keep
  /// accumulating the same file and take() again.
  [[nodiscard]] Conversion take(std::string source, std::string node,
                                std::string file);

 private:
  struct Col {
    std::string name;
    db::DataType type = db::DataType::kNull;
  };
  std::vector<Col> cols_;
  std::map<std::string, ColId, std::less<>> index_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::uint32_t> lines_;
};

}  // namespace mscope::transform::fastparse
