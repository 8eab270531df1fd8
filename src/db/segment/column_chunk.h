#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "db/value.h"

namespace mscope::db::segment {

/// One bit per row; set = the cell holds a value, clear = SQL NULL.
class ValidityBitmap {
 public:
  void push_back(bool valid) {
    const std::size_t w = size_ / 64;
    if (w >= words_.size()) words_.push_back(0);
    if (valid) {
      words_[w] |= std::uint64_t{1} << (size_ % 64);
    } else {
      ++nulls_;
    }
    ++size_;
  }

  [[nodiscard]] bool get(std::size_t i) const {
    return (words_[i / 64] >> (i % 64)) & 1u;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t null_count() const { return nulls_; }
  [[nodiscard]] bool all_valid() const { return nulls_ == 0; }

  [[nodiscard]] const std::vector<std::uint64_t>& words() const {
    return words_;
  }

  /// Rebuilds from serialized words (null count is recomputed).
  static ValidityBitmap from_words(std::vector<std::uint64_t> words,
                                   std::size_t size);

  /// `size` clear bits.
  static ValidityBitmap nulls(std::size_t size) {
    return from_words(std::vector<std::uint64_t>((size + 63) / 64, 0), size);
  }

  [[nodiscard]] std::size_t byte_size() const {
    return words_.capacity() * sizeof(std::uint64_t);
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
  std::size_t nulls_ = 0;
};

/// Per-chunk min/max of the column's values *through as_int semantics*
/// (doubles rounded with llround, exactly like the typed range predicates
/// and the TimeIndex) — lets a scan skip a whole segment when no cell can
/// match a numeric filter.
struct ZoneMap {
  bool has_value = false;  ///< any non-NULL numeric cell at all
  std::int64_t min = 0;
  std::int64_t max = 0;

  void add(std::int64_t v) {
    if (!has_value || v < min) min = v;
    if (!has_value || v > max) max = v;
    has_value = true;
  }
};

/// Sealed storage of one Int column: zigzag(delta) varints. Monitoring
/// timestamps and counters are near-monotone, so deltas are tiny — a
/// microsecond timestamp column compresses from 8 B to ~2 B per row. NULL
/// rows are encoded as delta 0 (repeat the previous value) and masked by the
/// validity bitmap, which keeps row index == decode position (no rank
/// structure needed for random access).
///
/// Random access decodes at most one block (kBlock varints) from the nearest
/// block boundary; sequential access (`for_each`) is a single pass.
class IntChunk {
 public:
  static constexpr std::size_t kBlock = 128;

  /// `cells[i]` is the value for valid rows; ignored where `valid` is clear.
  IntChunk(std::span<const std::int64_t> cells, ValidityBitmap valid);

  /// Deserialization: rebuilds the block directory from the byte stream.
  IntChunk(std::vector<std::uint8_t> bytes, ValidityBitmap valid);

  [[nodiscard]] std::size_t size() const { return valid_.size(); }
  [[nodiscard]] bool valid(std::size_t i) const { return valid_.get(i); }

  /// Value of row i (meaningful only when valid(i)).
  [[nodiscard]] std::int64_t value(std::size_t i) const;

  /// f(std::size_t row, bool valid, std::int64_t value) for every row, in
  /// order; one sequential decode pass.
  template <class F>
  void for_each(F&& f) const {
    const std::uint8_t* p = bytes_.data();
    std::int64_t prev = 0;
    for (std::size_t i = 0; i < size(); ++i) {
      prev += decode_varint(p);
      f(i, valid_.get(i), prev);
    }
  }

  [[nodiscard]] const ValidityBitmap& validity() const { return valid_; }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }

  [[nodiscard]] std::size_t byte_size() const {
    return bytes_.capacity() + offsets_.capacity() * sizeof(std::uint32_t) +
           bases_.capacity() * sizeof(std::int64_t) + valid_.byte_size();
  }

  /// Decodes one zigzag varint and advances p.
  static std::int64_t decode_varint(const std::uint8_t*& p) {
    std::uint64_t u = 0;
    int shift = 0;
    for (;;) {
      const std::uint8_t b = *p++;
      u |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) break;
      shift += 7;
    }
    // Un-zigzag: (u >> 1) ^ -(u & 1), all in unsigned arithmetic.
    const std::uint64_t v = (u >> 1) ^ (~(u & 1) + 1);
    std::int64_t out;
    std::memcpy(&out, &v, sizeof(out));
    return out;
  }

 private:
  void build_directory();

  ValidityBitmap valid_;
  std::vector<std::uint8_t> bytes_;  ///< zigzag varint deltas, one per row
  /// Block directory: byte offset of block k and the decoded value of the
  /// row just before it (0 for block 0), so random access starts mid-stream.
  std::vector<std::uint32_t> offsets_;
  std::vector<std::int64_t> bases_;
  std::uint64_t id_ = 0;  ///< process-unique, keys the decode cache
};

/// Sealed storage of one Double column: raw doubles (bit-exact — analysis
/// reproducibility forbids lossy encodings) plus a validity bitmap; NULL
/// rows store 0.0.
class DoubleChunk {
 public:
  DoubleChunk(std::vector<double> cells, ValidityBitmap valid)
      : valid_(std::move(valid)), vals_(std::move(cells)) {}

  [[nodiscard]] std::size_t size() const { return valid_.size(); }
  [[nodiscard]] bool valid(std::size_t i) const { return valid_.get(i); }
  [[nodiscard]] double value(std::size_t i) const { return vals_[i]; }

  [[nodiscard]] const ValidityBitmap& validity() const { return valid_; }
  [[nodiscard]] const std::vector<double>& values() const { return vals_; }

  [[nodiscard]] std::size_t byte_size() const {
    return vals_.capacity() * sizeof(double) + valid_.byte_size();
  }

 private:
  ValidityBitmap valid_;
  std::vector<double> vals_;
};

/// Sealed storage of one Text column: a per-chunk dictionary of distinct
/// TextRefs plus one 32-bit code per row. Low-cardinality columns (tier
/// names, URLs) collapse to a handful of dictionary entries; NULL is the
/// reserved code kNullCode.
class TextChunk {
 public:
  static constexpr std::uint32_t kNullCode = 0xffffffffu;

  TextChunk(std::vector<TextRef> dict, std::vector<std::uint32_t> codes)
      : dict_(std::move(dict)), codes_(std::move(codes)) {}

  /// Builds the dictionary from cells in row order (nullopt = NULL).
  static TextChunk encode(std::span<const std::optional<TextRef>> cells);

  [[nodiscard]] std::size_t size() const { return codes_.size(); }
  [[nodiscard]] bool valid(std::size_t i) const {
    return codes_[i] != kNullCode;
  }
  [[nodiscard]] const TextRef& value(std::size_t i) const {
    return dict_[codes_[i]];
  }

  [[nodiscard]] const std::vector<TextRef>& dict() const { return dict_; }
  [[nodiscard]] const std::vector<std::uint32_t>& codes() const {
    return codes_;
  }

  [[nodiscard]] std::size_t byte_size() const;

 private:
  std::vector<TextRef> dict_;
  std::vector<std::uint32_t> codes_;
};

/// Sealed storage of an all-NULL (DataType::kNull) column.
struct NullChunk {
  std::size_t rows = 0;
};

}  // namespace mscope::db::segment
