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
///    its Text column is dictionary-encoded for the view (TextChunk::encode,
///    as a seal would encode it);
///  - operators that materialize rows (sorts, joins, aggregates, computed
///    projections) build owned typed arrays through a Builder, or gather().
///
/// An owned Text column's dictionary may repeat a string (a Builder adds it
/// once per append that uses it, and once per pushed cell), so readers
/// compare dictionary entries by value and never assume one code per string.
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

  /// Compacts the selected rows into an owned column of the same type
  /// (typed copy — no boxing). A Text column copies only its codes and
  /// shares this view's dictionary, keeping whatever owns it alive.
  [[nodiscard]] ColumnVec gather(std::span<const std::uint32_t> rows) const;

  /// Builds one owned column (below).
  class Builder;

 private:
  struct Backing;  ///< an owned column's arrays (vec.cpp)

  DataType type_ = DataType::kNull;
  std::size_t rows_ = 0;
  std::span<const std::int64_t> ints_;
  std::span<const double> doubles_;
  std::span<const std::uint32_t> codes_;
  std::span<const TextRef> dict_;
  const segment::ValidityBitmap* validity_ = nullptr;  ///< nullptr: all valid
  const std::uint8_t* valid_bytes_ = nullptr;  ///< the tail's flags, if set
  /// Owns the arrays the spans view, unless they are the store's.
  std::shared_ptr<const void> owner_;
};

/// Builds one owned column of `type`, row after row: typed copies of other
/// views' rows, and boxed cells (computed values, aggregate outputs). The
/// one way an operator materializes a column.
class ColumnVec::Builder {
 public:
  explicit Builder(DataType type);

  /// Copies rows `rows` of `src`, which must have this builder's type.
  /// Text maps the source's codes through a table indexed by source code:
  /// one new entry per distinct code used, no hashing, and work bounded by
  /// `rows` however large the source's dictionary (the table grows to the
  /// largest one once per builder).
  void append(const ColumnVec& src, std::span<const std::uint32_t> rows);

  /// Appends one cell: NULL where `v` is NULL or not of this type (Int and
  /// Double convert into each other through as_int / as_double). A Text
  /// cell adds its own dictionary entry.
  void push(const Value& v);

  /// The column built; call once.
  [[nodiscard]] ColumnVec finish();

 private:
  DataType type_;
  std::size_t rows_ = 0;
  std::shared_ptr<Backing> b_;
  /// Source code -> built code; all kNullCode between appends.
  std::vector<std::uint32_t> remap_;
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
