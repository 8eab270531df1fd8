#include "db/columns.h"

#include <stdexcept>
#include <string>

namespace mscope::db {

ColumnReader::ColumnReader(const Table& table,
                           std::initializer_list<std::string_view> columns)
    : table_(&table), chunks_(columns.size()) {
  for (const std::string_view name : columns) {
    const auto c = table.column_index(name);
    if (!c) {
      throw std::out_of_range("table '" + table.name() + "' has no column '" +
                              std::string(name) + "'");
    }
    cols_.push_back(*c);
  }
}

bool ColumnReader::next() {
  const segment::SegmentStore& store = table_->storage();
  if (next_row_ >= store.row_count()) return false;
  row_ = next_row_++;
  if (row_ >= store.sealed_row_count()) {
    tail_row_ = &store.tail()[row_ - store.sealed_row_count()];
    return true;
  }
  while (row_ >= seg_end_) {  // entering the next sealed segment
    const segment::Segment& seg = store.segments()[seg_i_++];
    for (std::size_t i = 0; i < cols_.size(); ++i) {
      chunks_[i] = sqlengine::ColumnVec::from_chunk(seg.column(cols_[i]));
    }
    seg_base_ = seg.base_row();
    seg_end_ = seg_base_ + seg.row_count();
  }
  return true;
}

}  // namespace mscope::db
