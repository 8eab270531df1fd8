#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string_view>
#include <vector>

#include "db/sqlengine/vec.h"
#include "db/table.h"

namespace mscope::db {

/// Sequential reader of a few columns of one table, in row order: the read
/// path of the warehouse analyses (PIT, queue length, resource series).
/// Entering a sealed segment decodes each requested column's chunk once
/// (with the SQL scan's decoder, sqlengine::ColumnVec); rows of the
/// row-major tail are read in place. Cells read through as_int / as_double,
/// so NULL and Text cells read as absent. The table must not change while
/// a reader walks it.
class ColumnReader {
 public:
  /// Reads the named columns, starting at row 0. Throws std::out_of_range
  /// naming the first column the table lacks.
  ColumnReader(const Table& table,
               std::initializer_list<std::string_view> columns);

  /// Advances to the next row; false past the last one.
  bool next();

  /// The current row's cell in the i-th requested column.
  [[nodiscard]] std::optional<std::int64_t> as_int(std::size_t i) const {
    return db::as_int(cell(i));
  }
  [[nodiscard]] std::optional<double> as_double(std::size_t i) const {
    return db::as_double(cell(i));
  }

 private:
  [[nodiscard]] Value cell(std::size_t i) const {
    return tail_row_ != nullptr ? (*tail_row_)[cols_[i]]
                                : chunks_[i].get(row_ - seg_base_);
  }

  const Table* table_;
  std::vector<std::size_t> cols_;
  std::vector<sqlengine::ColumnVec> chunks_;  ///< current segment, per column
  std::size_t next_row_ = 0;
  std::size_t row_ = 0;
  std::size_t seg_i_ = 0;    ///< next sealed segment to enter
  std::size_t seg_base_ = 0;
  std::size_t seg_end_ = 0;  ///< one past the current segment's last row
  const Table::Row* tail_row_ = nullptr;
};

}  // namespace mscope::db
