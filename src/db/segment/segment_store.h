#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "db/segment/segment.h"
#include "db/value.h"

namespace mscope::db::segment {

/// Storage policy knobs. Defaults suit monitoring logs: a few thousand rows
/// per seal, partition boundaries snapped to whole seconds of the anchor
/// timestamp column.
struct SegmentConfig {
  /// Tail size that triggers sealing. 0 disables row-count sealing.
  std::size_t seal_rows = 4096;
  /// Time-partition width (microseconds) for boundary alignment; <= 0
  /// disables alignment (pure row-count sealing).
  std::int64_t partition_usec = 1'000'000;
  /// Master switch: false keeps every row in the row-major tail (benchmark
  /// baseline / tiny scratch tables).
  bool seal = true;
};

/// Storage engine behind db::Table: sealed immutable columnar segments plus
/// one active row-major tail that absorbs inserts. Rows keep table-global
/// ids (segment base_row + local offset; tail rows follow the last segment),
/// so indexes and query results are oblivious to where a row physically
/// lives.
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
  using Row = std::vector<Value>;

  SegmentStore() = default;
  SegmentStore(std::vector<DataType> types, std::optional<std::size_t> anchor,
               SegmentConfig cfg = {});

  /// Appends a pre-validated row (Table::insert does schema checks); may
  /// seal the tail as a side effect.
  void append(Row row);

  [[nodiscard]] std::size_t row_count() const {
    return sealed_rows_ + tail_.size();
  }
  [[nodiscard]] std::size_t sealed_row_count() const { return sealed_rows_; }
  [[nodiscard]] const std::vector<Segment>& segments() const {
    return segments_;
  }
  /// The active row-major tail; global id of tail[i] is
  /// sealed_row_count() + i.
  [[nodiscard]] const std::vector<Row>& tail() const { return tail_; }

  /// Materializes one cell by global row id (bounds-checked).
  [[nodiscard]] Value cell(std::size_t row, std::size_t col) const;

  /// Seals the whole tail (snapshot writers call this so a saved warehouse
  /// is fully columnar). No-op when the tail is empty.
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

  /// Int -> Double: every sealed chunk re-encodes (values are exact), tail
  /// cells re-box. Caller updates the schema.
  void retype_int_to_double(std::size_t col);

  /// Retypes an all-NULL column (any representation change is exact).
  void retype_all_null(std::size_t col, DataType to);

  /// Appends a new column whose every existing row is NULL.
  void add_null_column(DataType type);

  // --- snapshot adoption ---------------------------------------------------

  /// Installs a sealed segment during binary snapshot load. Segments must
  /// arrive in order; the tail must still be empty.
  void adopt_segment(Segment seg);

 private:
  void seal_prefix(std::size_t k);
  void maybe_seal();

  std::vector<DataType> types_;
  std::optional<std::size_t> anchor_;
  SegmentConfig cfg_;
  std::vector<Segment> segments_;
  std::vector<Row> tail_;
  std::size_t sealed_rows_ = 0;
};

}  // namespace mscope::db::segment
