#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace mscope::db {

class Table;

/// A sorted time index over one numeric column of a Table, used by
/// mScopeSQL's scan pushdown: entries are (time, row) pairs ordered
/// lexicographically, so every half-open time range `[lo, hi)` is a
/// *contiguous slice* of the index — two binary searches bound the rows a
/// range predicate can match before any chunk is decoded.
///
/// `time` is the column value through `as_int` (doubles are rounded exactly
/// like range predicates round them); rows whose cell is NULL or Text are
/// not indexed — the predicates they would fail are never tested.
///
/// Lifecycle: built lazily by Table::time_index() (one O(n log n) sort),
/// then maintained incrementally by Table::insert() and append() — an
/// append in time order (the overwhelmingly common case for monitoring
/// logs) is O(1), an out-of-order append is a sorted insert. The streaming importer's
/// schema-widening rebuild drops the table, which discards the index; the
/// rebuilt table re-indexes on first use.
class TimeIndex {
 public:
  struct Entry {
    std::int64_t time = 0;
    std::uint32_t row = 0;

    friend bool operator<(const Entry& a, const Entry& b) {
      return a.time != b.time ? a.time < b.time : a.row < b.row;
    }
  };

  /// Scans rows [0, table.row_count()) of column `col` and sorts.
  static TimeIndex build(const Table& table, std::size_t col);

  /// Incremental maintenance for a newly appended row (row ids only grow, so
  /// an in-order append lands at the back without a search).
  void append(std::int64_t time, std::uint32_t row);

  /// All entries, sorted by (time, row).
  [[nodiscard]] std::span<const Entry> entries() const { return entries_; }

  /// Entries with time in [lo, hi), sorted by (time, row). Because row ids
  /// are insertion order, equal-time runs preserve insertion order too.
  [[nodiscard]] std::span<const Entry> range(std::int64_t lo,
                                             std::int64_t hi) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Smallest / largest indexed time (undefined when empty).
  [[nodiscard]] std::int64_t min_time() const { return entries_.front().time; }
  [[nodiscard]] std::int64_t max_time() const { return entries_.back().time; }

 private:
  std::vector<Entry> entries_;
};

}  // namespace mscope::db
