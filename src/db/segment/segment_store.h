#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "db/column_batch.h"
#include "db/segment/segment.h"
#include "db/value.h"

namespace mscope::db::sqlengine {
class ColumnVec;
}

namespace mscope::db::segment {

/// Storage policy knobs. Defaults suit monitoring logs: a few thousand rows
/// per seal, partition boundaries snapped to whole seconds of the anchor
/// timestamp column.
struct SegmentConfig {
  /// Tail size that triggers sealing. 0 never seals: every row stays in the
  /// tail (benchmark baseline / tiny scratch tables).
  std::size_t seal_rows = 4096;
  /// Time-partition width (microseconds) for boundary alignment; <= 0
  /// disables alignment (pure row-count sealing).
  std::int64_t partition_usec = 1'000'000;
};

/// Storage engine behind db::Table: sealed immutable columnar segments plus
/// one active tail that absorbs appends. The tail is a ColumnBatch — one
/// typed array per column plus validity — so an append copies column
/// ranges and a seal encodes the arrays without boxing a cell. Rows keep
/// table-global ids (segment base_row + local offset; tail rows follow the
/// last segment), so indexes and query results are oblivious to where a row
/// physically lives. Readers walk the store as runs (run()), and see each
/// run's columns through sqlengine::ColumnVec.
///
/// Seal policy: when the tail reaches `seal_rows`, the store seals the
/// longest tail prefix whose anchor times fall strictly before the time
/// partition containing the newest row — segment boundaries then land on
/// partition_usec multiples of the anchor column (Table::anchor_span), so
/// a time-range scan skips whole segments via zone maps. When every tail
/// row shares the newest row's partition (or
/// there is no anchor column), the whole tail seals: memory stays bounded
/// even for single-partition or unordered data.
class SegmentStore {
 public:
  SegmentStore() = default;
  SegmentStore(std::vector<DataType> types, std::optional<std::size_t> anchor,
               SegmentConfig cfg = {});

  /// Appends one pre-validated row (Table::insert checks the schema and
  /// converts Int cells of Double columns). Returns the number of seals it
  /// caused (0 or 1).
  std::size_t append(std::span<const Value> row);

  /// Appends rows [first, end) of `batch`, whose column types Table::append
  /// has checked: each equals the store's, or is Int into a Double column
  /// (converted here). Seals land on the same rows as appending the rows
  /// one at a time; returns how many seals there were.
  std::size_t append(const ColumnBatch& batch, std::size_t first,
                     std::size_t end);

  [[nodiscard]] std::size_t row_count() const {
    return sealed_rows_ + tail_.rows;
  }
  [[nodiscard]] std::size_t sealed_row_count() const { return sealed_rows_; }
  [[nodiscard]] const std::vector<Segment>& segments() const {
    return segments_;
  }

  /// One run of consecutive rows: a sealed segment, or the tail (`segment`
  /// null).
  struct Run {
    std::size_t base_row = 0;
    std::size_t rows = 0;
    const Segment* segment = nullptr;
  };
  /// The store in row order: run k < segments().size() is segment k; the
  /// tail, when it holds rows, is the last run.
  [[nodiscard]] std::size_t run_count() const {
    return segments_.size() + (tail_.rows > 0 ? 1 : 0);
  }
  [[nodiscard]] Run run(std::size_t k) const {
    if (k < segments_.size()) {
      const Segment& s = segments_[k];
      return {s.base_row(), s.row_count(), &s};
    }
    return {sealed_rows_, tail_.rows, nullptr};
  }

  /// Materializes one cell by global row id (bounds-checked).
  [[nodiscard]] Value cell(std::size_t row, std::size_t col) const;

  /// f(std::size_t row, std::int64_t value) for every row whose cell in
  /// `col` is numeric, through as_int (doubles rounded with llround), in
  /// row order; each sealed chunk decodes in one pass.
  template <class F>
  void for_each_as_int(std::size_t col, F&& f) const {
    for (const Segment& s : segments_) {
      const std::size_t base = s.base_row();
      s.column(col).for_each_as_int(
          [&](std::size_t i, std::int64_t v) { f(base + i, v); });
    }
    for (std::size_t i = 0; i < tail_.rows; ++i) {
      if (const auto v = tail_as_int(col, i)) f(sealed_rows_ + i, *v);
    }
  }

  /// Min/max of column `col` through as_int: the sealed segments' zone maps
  /// plus the tail's cells.
  [[nodiscard]] ZoneMap zone(std::size_t col) const;

  /// The tail encoded with the codecs a seal uses, as one chunk-set
  /// starting at row sealed_row_count() (the snapshot writer's tail). The
  /// store is unchanged.
  [[nodiscard]] Segment encode_tail() const;

  /// Seals the whole tail. No-op when the tail is empty.
  void seal_all();

  /// Drops all rows and releases segment and tail memory (swap idiom — a
  /// cleared table must not keep a run's worth of capacity alive).
  void clear();

  void reserve(std::size_t n);

  /// Approximate resident bytes of all storage (segments + tail).
  [[nodiscard]] std::size_t byte_size() const;

  [[nodiscard]] const SegmentConfig& config() const { return cfg_; }
  void set_config(SegmentConfig cfg) { cfg_ = cfg; }
  [[nodiscard]] std::optional<std::size_t> anchor() const { return anchor_; }
  void set_anchor(std::optional<std::size_t> a) { anchor_ = a; }

  // --- in-place schema widening (sealed segments stay sealed) -------------

  /// True when no cell of the column holds a value (sealed or tail).
  [[nodiscard]] bool column_all_null(std::size_t col) const;

  /// Int -> Double: every sealed chunk re-encodes and the tail's array
  /// converts (values are exact). Caller updates the schema.
  void retype_int_to_double(std::size_t col);

  /// Retypes an all-NULL column (any representation change is exact).
  void retype_all_null(std::size_t col, DataType to);

  /// Appends a new column whose every existing row is NULL.
  void add_null_column(DataType type);

  // --- snapshot adoption ---------------------------------------------------

  /// Installs a sealed segment during binary snapshot load. Segments must
  /// arrive in order; the tail must still be empty.
  void adopt_segment(Segment seg);

  /// Decodes a snapshot's tail chunk-set (encode_tail's output) into the
  /// empty tail, after the last adopted segment. Nothing seals: the loaded
  /// store holds the segments and tail that were saved.
  void adopt_tail(const Segment& tail);

 private:
  /// The tail's one reader outside this module (ColumnVec::from_run).
  friend class sqlengine::ColumnVec;

  [[nodiscard]] std::optional<std::int64_t> tail_as_int(std::size_t col,
                                                        std::size_t i) const {
    const ColumnBatch::Column& t = tail_.columns[col];
    if (t.valid[i] == 0) return std::nullopt;
    if (t.type == DataType::kInt) return t.ints[i];
    if (t.type == DataType::kDouble) {
      return static_cast<std::int64_t>(std::llround(t.doubles[i]));
    }
    return std::nullopt;
  }

  /// Tail rows [0, k) encoded as one chunk per column.
  [[nodiscard]] std::vector<ColumnChunk> encode_prefix(std::size_t k) const;
  void seal_prefix(std::size_t k);
  /// Seals per the policy above once the tail reaches seal_rows; true when
  /// it sealed.
  bool maybe_seal();

  std::optional<std::size_t> anchor_;
  SegmentConfig cfg_;
  std::vector<Segment> segments_;
  std::size_t sealed_rows_ = 0;
  /// The tail: row i is global row sealed_rows_ + i. Its schema is unused;
  /// a column of `rows` NULLs keeps its array at full length (kNull: none).
  ColumnBatch tail_;
};

}  // namespace mscope::db::segment
