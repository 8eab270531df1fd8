#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "db/segment/segment_store.h"
#include "db/value.h"

namespace mscope::db::sqlengine {

/// The unit of vectorized execution: a typed view over one column of a run
/// of rows. On the fast path nothing is boxed into db::Value —
///
///  - Double columns borrow the sealed chunk's raw double array (zero copy);
///  - Text columns borrow the sealed chunk's dictionary codes + dictionary
///    (zero copy; predicates test the handful of dictionary entries once and
///    then scan 4-byte codes);
///  - Int columns decode the zigzag-delta varint stream once, sequentially,
///    into a scratch array owned by the view (one memory-bandwidth pass —
///    the same work a chunk's for_each does, but reusable by every operator
///    that touches the column);
///  - the store's tail lends its Int and Double arrays and their validity;
///    its Text column gets a dictionary built for the view;
///  - computed expressions and boxed rows materialize into owned typed
///    arrays.
///
/// Views borrow from the Table's storage, which must outlive them and must
/// not change while they are in use (an append may move the tail).
class ColumnVec {
 public:
  [[nodiscard]] DataType type() const { return type_; }
  [[nodiscard]] std::size_t size() const { return rows_; }

  /// Typed spans (meaningful per type(); empty otherwise).
  [[nodiscard]] std::span<const std::int64_t> ints() const { return ints_; }
  [[nodiscard]] std::span<const double> doubles() const { return doubles_; }
  [[nodiscard]] std::span<const std::uint32_t> codes() const { return codes_; }
  [[nodiscard]] std::span<const TextRef> dict() const { return dict_; }

  [[nodiscard]] bool valid(std::size_t i) const {
    switch (type_) {
      case DataType::kText:
        return codes_[i] != segment::TextChunk::kNullCode;
      case DataType::kNull:
        return false;
      default:
        if (valid_bytes_ != nullptr) return valid_bytes_[i] != 0;
        return validity_ == nullptr || validity_->get(i);
    }
  }

  /// Materializes one cell (NULL-aware). Off the fast path — operators that
  /// can should read the typed spans instead.
  [[nodiscard]] Value get(std::size_t i) const;

  /// Numeric cell as double (only meaningful when valid() and numeric).
  [[nodiscard]] double num(std::size_t i) const {
    return type_ == DataType::kInt ? static_cast<double>(ints_[i])
                                   : doubles_[i];
  }

  /// db::as_int / db::as_double of get(i), without boxing the cell: nullopt
  /// where NULL or not numeric, doubles rounded with llround by as_int.
  [[nodiscard]] std::optional<std::int64_t> as_int(std::size_t i) const {
    if (type_ == DataType::kInt && valid(i)) return ints_[i];
    if (type_ == DataType::kDouble && valid(i)) {
      return static_cast<std::int64_t>(std::llround(doubles_[i]));
    }
    return std::nullopt;
  }
  [[nodiscard]] std::optional<double> as_double(std::size_t i) const {
    if ((type_ == DataType::kInt || type_ == DataType::kDouble) && valid(i)) {
      return num(i);
    }
    return std::nullopt;
  }

  // --- builders -------------------------------------------------------------

  /// View over column `col` of one storage run: a sealed segment's chunk
  /// or the tail's arrays (see above).
  static ColumnVec from_run(const segment::SegmentStore& store,
                            const segment::SegmentStore::Run& run,
                            std::size_t col);

  /// Materializes column `col` of boxed rows.
  static ColumnVec from_rows(std::span<const std::vector<Value>> rows,
                             std::size_t col, DataType type);

  /// Materializes a computed column from boxed values (Project outputs).
  static ColumnVec from_values(std::span<const Value> vals, DataType type);

  /// Compacts the selected rows into an owned column of the same type
  /// (typed copy — no boxing; the dictionary of a Text column is copied,
  /// codes are gathered).
  [[nodiscard]] ColumnVec gather(std::span<const std::uint32_t> rows) const;

 private:
  struct Backing {
    std::vector<std::int64_t> ints;
    std::vector<double> doubles;
    std::vector<std::uint32_t> codes;
    std::vector<TextRef> dict;
    segment::ValidityBitmap validity;
  };

  /// An owned Text view of n cells, dictionary-encoded in first-seen order;
  /// `text(i)` is cell i's TextRef, or nullptr where it is not Text.
  template <class Text>
  static ColumnVec text_view(std::size_t n, Text text);

  DataType type_ = DataType::kNull;
  std::size_t rows_ = 0;
  std::span<const std::int64_t> ints_;
  std::span<const double> doubles_;
  std::span<const std::uint32_t> codes_;
  std::span<const TextRef> dict_;
  const segment::ValidityBitmap* validity_ = nullptr;  ///< nullptr: all valid
  const std::uint8_t* valid_bytes_ = nullptr;  ///< the tail's flags, if set
  std::shared_ptr<Backing> backing_;  ///< owns decoded / materialized storage
};

/// A batch of rows flowing between operators: one ColumnVec per output
/// column plus a selection vector of the rows that are still alive.
/// Filters refine `sel` without touching the column views — a filtered
/// batch costs a selection vector, never a copy of the data.
struct Batch {
  std::size_t rows = 0;      ///< physical rows in the views
  std::size_t base_row = 0;  ///< table-global id of local row 0 (scans)
  std::vector<ColumnVec> cols;
  std::vector<std::uint32_t> sel;  ///< selected local rows, ascending
  bool has_sel = false;            ///< false: every row selected

  [[nodiscard]] std::size_t active() const {
    return has_sel ? sel.size() : rows;
  }
  [[nodiscard]] std::uint32_t row_at(std::size_t k) const {
    return has_sel ? sel[k] : static_cast<std::uint32_t>(k);
  }

  /// Intersects the selection with `mask` (one byte per physical row).
  void apply_mask(const std::vector<std::uint8_t>& mask);
};

}  // namespace mscope::db::sqlengine
