#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "db/value.h"

namespace mscope::db {

/// A column definition: name + datatype.
struct ColumnDef {
  std::string name;
  DataType type = DataType::kText;

  friend bool operator==(const ColumnDef&, const ColumnDef&) = default;
};

using Schema = std::vector<ColumnDef>;

/// A run of rows in column-major form, each column typed once: the unit the
/// compiled scanners hand the store (Table::append) and the live row
/// observers, and the layout of the store's own tail. `schema` names and
/// types the columns; `columns[c]` holds column c's `rows` cells in the one
/// array its type selects, with a validity flag per row (0 = NULL):
///  * kInt: `ints`, kDouble: `doubles`, one value per row (unspecified
///    where NULL);
///  * kText: `texts`, engaged exactly where the row is valid.
/// A scanned batch never holds a kNull column (the typing rules finalize an
/// all-NULL column to Text); the store's tail does, for a kNull column.
struct ColumnBatch {
  struct Column {
    DataType type = DataType::kText;
    std::vector<std::uint8_t> valid;
    std::vector<std::int64_t> ints;
    std::vector<double> doubles;
    std::vector<std::optional<TextRef>> texts;

    /// Appends one cell: NULL, or a value of this column's type.
    void push_back(const Value& v) {
      const bool ok = !is_null(v);
      valid.push_back(ok ? 1 : 0);
      switch (type) {
        case DataType::kInt:
          ints.push_back(ok ? std::get<std::int64_t>(v) : 0);
          break;
        case DataType::kDouble:
          doubles.push_back(ok ? std::get<double>(v) : 0.0);
          break;
        case DataType::kText:
          texts.push_back(ok ? std::optional<TextRef>(std::get<TextRef>(v))
                             : std::nullopt);
          break;
        case DataType::kNull:
          break;
      }
    }

    /// Drops every cell, keeping the arrays' capacity.
    void clear() {
      valid.clear();
      ints.clear();
      doubles.clear();
      texts.clear();
    }
  };

  Schema schema;
  std::vector<Column> columns;
  std::size_t rows = 0;

  /// The cell at (row, col) as a Value (NULL where invalid).
  [[nodiscard]] Value cell(std::size_t row, std::size_t col) const {
    const Column& c = columns[col];
    if (c.valid[row] == 0) return Value{};
    switch (c.type) {
      case DataType::kInt: return Value{c.ints[row]};
      case DataType::kDouble: return Value{c.doubles[row]};
      case DataType::kText: return Value{*c.texts[row]};
      case DataType::kNull: break;
    }
    return Value{};
  }
};

}  // namespace mscope::db
