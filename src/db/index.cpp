#include "db/index.h"

#include <algorithm>

#include "db/table.h"

namespace mscope::db {

TimeIndex TimeIndex::build(const Table& table, std::size_t col) {
  TimeIndex idx;
  idx.entries_.reserve(table.row_count());
  // Sealed segments decode the column in one sequential pass; only the
  // row-major tail goes cell-by-cell.
  const segment::SegmentStore& store = table.storage();
  for (const segment::Segment& seg : store.segments()) {
    const auto base = static_cast<std::uint32_t>(seg.base_row());
    seg.column(col).for_each_as_int([&](std::size_t i, std::int64_t t) {
      idx.entries_.push_back({t, base + static_cast<std::uint32_t>(i)});
    });
  }
  const auto tail_base = static_cast<std::uint32_t>(store.sealed_row_count());
  for (std::size_t i = 0; i < store.tail().size(); ++i) {
    if (const auto t = as_int(store.tail()[i][col])) {
      idx.entries_.push_back({*t, tail_base + static_cast<std::uint32_t>(i)});
    }
  }
  std::sort(idx.entries_.begin(), idx.entries_.end());
  return idx;
}

void TimeIndex::append(std::int64_t time, std::uint32_t row) {
  const Entry e{time, row};
  if (entries_.empty() || !(e < entries_.back())) {
    entries_.push_back(e);
    return;
  }
  entries_.insert(std::lower_bound(entries_.begin(), entries_.end(), e), e);
}

std::span<const TimeIndex::Entry> TimeIndex::range(std::int64_t lo,
                                                   std::int64_t hi) const {
  if (hi <= lo) return {};
  const auto b =
      std::lower_bound(entries_.begin(), entries_.end(), Entry{lo, 0});
  const auto e =
      std::lower_bound(b, entries_.end(), Entry{hi, 0});
  return {b, e};
}

}  // namespace mscope::db
