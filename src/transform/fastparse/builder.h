#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "db/column_batch.h"
#include "db/value.h"

namespace mscope::transform::fastparse {

/// Builds a typed db::ColumnBatch directly from emitted (column, value)
/// pairs, with the paper's XMLtoCSV typing rules (Section III-B.3) and no
/// XML or text round trip in between:
///  * columns are the union of all emitted names in first-appearance order;
///  * each column's type is the best-match accumulation (widen over
///    infer_type of every occurrence; a column that only ever held Null is
///    finalized to Text);
///  * cells missing from an entry are NULL;
///  * a column emitted twice in one entry keeps the last value, and both
///    occurrences count toward its type;
///  * a whitespace-only cell is NULL, and text is trimmed.
///
/// Each cell is typed once, where it is emitted: a raw field keeps the
/// int64 or double its type inference parsed, and a scanned time is an
/// int64 from the start. At take(), a cell in a column that ended wider
/// than the cell converts exactly as db::parse_as(trimmed text, column
/// type) would, so "-0" in a column that ends Double is -0.0. Text cells
/// get private TextRefs, shared within a column through a small cache while
/// the column has few distinct values and through the thread's table of
/// recent values after that; no cell looks itself up in the process-wide
/// TextRef pool.
///
/// Column ids are stable for the builder's lifetime, so parsers resolve a
/// name once per (instruction, field) slot and then emit by id — the name
/// lookup leaves the per-line hot loop.
class BatchBuilder {
 public:
  using ColId = std::uint32_t;

  /// Find-or-create the column for `name`; first use fixes its position.
  ColId column(std::string_view name);

  /// Starts a new entry (row).
  void begin_entry() { ++rows_; }

  /// Emits a raw field into the current entry. `raw` must stay alive until
  /// the next take().
  void set(ColId col, std::string_view raw);

  /// set() for a value the builder keeps its own copy of (sar XML's
  /// unescaped attribute values).
  void set_owned(ColId col, std::string raw);

  /// Emits a scanned time: an int64 with no text behind it.
  void set_int(ColId col, std::int64_t value);

  /// Hands out a batch: the schema of every column seen so far at its
  /// running type, and the entries begun since the previous take(), typed
  /// to that schema. Columns and types stay, so the builder can keep
  /// accumulating the same file and take() again.
  [[nodiscard]] db::ColumnBatch take();

  /// True once a batch from this builder stored a negative-zero cell ("-0")
  /// of `col` as Int 0: an in-place Int -> Double widening of that column
  /// would give +0.0 where a one-pass parse gives -0.0.
  [[nodiscard]] bool stored_negative_zero(ColId col) const {
    return cols_[col].negative_zero;
  }

 private:
  /// Shares one TextRef per distinct value of a column until the column
  /// shows more distinct values than the cache holds; from then on its
  /// cells go through the thread's recent-value table (request ids repeat
  /// across tables, not within a few dozen values of one column).
  class TextCache {
   public:
    db::TextRef get(std::string_view s);

   private:
    /// Keys view into the cached TextRefs' heap strings.
    std::unordered_map<std::string_view, db::TextRef> map_;
    std::size_t misses_ = 0;
    bool off_ = false;
  };

  /// One column: its running type, and its cells since the last take().
  /// `num` and `raw` are sized lazily (a column of scanned times never
  /// stores text), so either may be shorter than `kind`; every cell whose
  /// kind reads them lies within them.
  struct Col {
    std::string name;
    db::DataType type = db::DataType::kNull;
    bool negative_zero = false;  ///< see stored_negative_zero()
    bool window_negative_zero = false;
    std::vector<std::uint8_t> kind;  ///< per entry: a CellKind
    std::vector<std::int64_t> num;   ///< int64, or a double's bits
    std::vector<std::string_view> raw;  ///< trimmed text of raw cells
    TextCache texts;
  };

  /// The slot of `c` for the current entry, NULL until set.
  std::size_t slot(Col& c);

  std::vector<Col> cols_;
  std::map<std::string, ColId, std::less<>> index_;
  std::size_t rows_ = 0;
  std::deque<std::string> owned_;  ///< set_owned() values until take()
};

}  // namespace mscope::transform::fastparse
