#include "db/index.h"

#include <algorithm>

#include "db/table.h"

namespace mscope::db {

TimeIndex TimeIndex::build(const Table& table, std::size_t col) {
  TimeIndex idx;
  idx.entries_.reserve(table.row_count());
  table.storage().for_each_as_int(col, [&idx](std::size_t r, std::int64_t t) {
    idx.entries_.push_back({t, static_cast<std::uint32_t>(r)});
  });
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
