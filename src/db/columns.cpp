#include "db/columns.h"

#include <stdexcept>
#include <string>

namespace mscope::db {

ColumnReader::ColumnReader(const Table& table,
                           std::initializer_list<std::string_view> columns)
    : table_(&table), cols_(columns.size()) {
  for (const std::string_view name : columns) {
    const auto c = table.column_index(name);
    if (!c) {
      throw std::out_of_range("table '" + table.name() + "' has no column '" +
                              std::string(name) + "'");
    }
    col_ids_.push_back(*c);
  }
}

bool ColumnReader::next() {
  const segment::SegmentStore& store = table_->storage();
  if (next_row_ >= store.row_count()) return false;
  row_ = next_row_++;
  while (row_ >= run_end_) {  // entering the next storage run
    const segment::SegmentStore::Run run = store.run(run_i_++);
    for (std::size_t i = 0; i < col_ids_.size(); ++i) {
      cols_[i] = sqlengine::ColumnVec::from_run(store, run, col_ids_[i]);
    }
    run_base_ = run.base_row;
    run_end_ = run.base_row + run.rows;
  }
  return true;
}

}  // namespace mscope::db
