#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "db/segment/column_chunk.h"
#include "db/value.h"

namespace mscope::db::segment {

/// Sealed storage of one column: the chunk kind follows the column's
/// declared DataType (an all-NULL *typed* column is still an Int/Double/Text
/// chunk whose validity bitmap is all clear; only DataType::kNull columns
/// use NullChunk). Carries the zone map used for segment skipping.
class ColumnChunk {
 public:
  using Data = std::variant<NullChunk, IntChunk, DoubleChunk, TextChunk>;

  /// Deserialization: wraps an already-decoded chunk, recomputing the zone.
  explicit ColumnChunk(Data data);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const ZoneMap& zone() const { return zone_; }
  [[nodiscard]] const Data& data() const { return data_; }

  /// Materializes one cell (NULL-aware).
  [[nodiscard]] Value cell(std::size_t i) const;

  /// f(std::size_t row, std::int64_t value) for every non-NULL numeric cell,
  /// through as_int semantics (doubles rounded with llround). No calls for
  /// Text/Null chunks.
  template <class F>
  void for_each_as_int(F&& f) const {
    if (const auto* ic = std::get_if<IntChunk>(&data_)) {
      ic->for_each([&](std::size_t i, bool valid, std::int64_t v) {
        if (valid) f(i, v);
      });
    } else if (const auto* dc = std::get_if<DoubleChunk>(&data_)) {
      for (std::size_t i = 0; i < dc->size(); ++i) {
        if (dc->valid(i)) {
          f(i, static_cast<std::int64_t>(std::llround(dc->value(i))));
        }
      }
    }
  }

  [[nodiscard]] std::size_t byte_size() const;

  /// In-place schema widening support (see SegmentStore): Int -> Double
  /// keeps every value exactly (cells are exact integers), all-NULL chunks
  /// can take any type.
  [[nodiscard]] bool all_null() const;
  void retype_int_to_double();
  void retype_all_null(DataType to);

 private:
  Data data_;
  ZoneMap zone_;

  void compute_zone();
};

/// An immutable run of rows in columnar form. `base_row` is the table-global
/// id of local row 0; rows of a table are the concatenation of its segments
/// followed by the store's tail.
class Segment {
 public:
  Segment(std::size_t base_row, std::size_t rows,
          std::vector<ColumnChunk> cols);

  [[nodiscard]] std::size_t base_row() const { return base_row_; }
  [[nodiscard]] std::size_t row_count() const { return rows_; }
  [[nodiscard]] std::size_t column_count() const { return cols_.size(); }
  [[nodiscard]] const ColumnChunk& column(std::size_t c) const {
    return cols_[c];
  }
  [[nodiscard]] ColumnChunk& column_mut(std::size_t c) { return cols_[c]; }

  [[nodiscard]] Value cell(std::size_t local_row, std::size_t c) const {
    return cols_[c].cell(local_row);
  }

  void append_column(ColumnChunk c) { cols_.push_back(std::move(c)); }

  [[nodiscard]] std::size_t byte_size() const;

 private:
  std::size_t base_row_;
  std::size_t rows_;
  std::vector<ColumnChunk> cols_;
};

}  // namespace mscope::db::segment
