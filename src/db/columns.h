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
/// Entering a storage run (a sealed segment, then the tail) takes one
/// sqlengine::ColumnVec view per requested column, the SQL scan's view, so
/// a sealed chunk decodes once and the tail is read in place. Cells read
/// through as_int / as_double, so NULL and Text cells read as absent. The
/// table must not change while a reader walks it.
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
    return cols_[i].as_int(row_ - run_base_);
  }
  [[nodiscard]] std::optional<double> as_double(std::size_t i) const {
    return cols_[i].as_double(row_ - run_base_);
  }

 private:
  const Table* table_;
  std::vector<std::size_t> col_ids_;
  std::vector<sqlengine::ColumnVec> cols_;  ///< current run, per column
  std::size_t next_row_ = 0;
  std::size_t row_ = 0;
  std::size_t run_i_ = 0;  ///< next storage run to enter
  std::size_t run_base_ = 0;
  std::size_t run_end_ = 0;  ///< one past the current run's last row
};

}  // namespace mscope::db
