#include "db/segment/segment_store.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace mscope::db::segment {

namespace {

/// A tail column of `rows` NULLs.
ColumnBatch::Column null_column(DataType type, std::size_t rows) {
  ColumnBatch::Column t;
  t.type = type;
  t.valid.assign(rows, 0);
  if (type == DataType::kInt) t.ints.assign(rows, 0);
  if (type == DataType::kDouble) t.doubles.assign(rows, 0.0);
  if (type == DataType::kText) t.texts.resize(rows);
  return t;
}

/// Drops the first k cells together with the capacity they needed, so a
/// tail that just sealed holds only what it kept.
template <class T>
void erase_prefix(std::vector<T>& v, std::size_t k) {
  const auto from = v.begin() + static_cast<std::ptrdiff_t>(
                                    std::min(k, v.size()));
  v = std::vector<T>(std::make_move_iterator(from),
                     std::make_move_iterator(v.end()));
}

}  // namespace

SegmentStore::SegmentStore(std::vector<DataType> types,
                           std::optional<std::size_t> anchor,
                           SegmentConfig cfg)
    : anchor_(anchor), cfg_(cfg) {
  for (const DataType t : types) tail_.columns.push_back(null_column(t, 0));
}

std::size_t SegmentStore::append(std::span<const Value> row) {
  for (std::size_t c = 0; c < tail_.columns.size(); ++c) {
    tail_.columns[c].push_back(row[c]);
  }
  ++tail_.rows;
  return maybe_seal() ? 1 : 0;
}

std::size_t SegmentStore::append(const ColumnBatch& batch, std::size_t first,
                                 std::size_t end) {
  std::size_t seals = 0;
  while (first < end) {
    // Copy up to the next seal point only, so the seals fall on the rows a
    // row-at-a-time append would seal at.
    std::size_t stop = end;
    if (cfg_.seal_rows > 0) {
      stop = std::min(end, first + std::max<std::size_t>(
                                       1, cfg_.seal_rows - std::min(
                                              cfg_.seal_rows, tail_.rows)));
    }
    const auto range = [first, stop](const auto& v) {
      return std::span(v).subspan(first, stop - first);
    };
    for (std::size_t c = 0; c < tail_.columns.size(); ++c) {
      ColumnBatch::Column& t = tail_.columns[c];
      const ColumnBatch::Column& src = batch.columns[c];
      const auto valid = range(src.valid);
      t.valid.insert(t.valid.end(), valid.begin(), valid.end());
      if (t.type == DataType::kInt) {
        const auto ints = range(src.ints);
        t.ints.insert(t.ints.end(), ints.begin(), ints.end());
      } else if (t.type == DataType::kDouble && src.type == DataType::kInt) {
        for (std::size_t r = first; r < stop; ++r) {
          t.doubles.push_back(static_cast<double>(src.ints[r]));
        }
      } else if (t.type == DataType::kDouble) {
        const auto doubles = range(src.doubles);
        t.doubles.insert(t.doubles.end(), doubles.begin(), doubles.end());
      } else if (t.type == DataType::kText) {
        const auto texts = range(src.texts);
        t.texts.insert(t.texts.end(), texts.begin(), texts.end());
      }
    }
    tail_.rows += stop - first;
    first = stop;
    if (maybe_seal()) ++seals;
  }
  return seals;
}

bool SegmentStore::maybe_seal() {
  if (cfg_.seal_rows == 0 || tail_.rows < cfg_.seal_rows) return false;
  std::size_t k = tail_.rows;
  if (anchor_ && cfg_.partition_usec > 0) {
    // Align the seal point with the time partition containing the newest
    // anchor value: rows at or past that partition's start stay in the tail.
    if (const auto t_last = tail_as_int(*anchor_, tail_.rows - 1)) {
      std::int64_t b = *t_last / cfg_.partition_usec;
      if (*t_last < 0 && *t_last % cfg_.partition_usec != 0) --b;
      const std::int64_t boundary = b * cfg_.partition_usec;
      std::size_t j = tail_.rows;
      while (j > 0) {
        // NULL anchors ride with their neighbors (they have no time of
        // their own, and global row order must be preserved).
        const auto t = tail_as_int(*anchor_, j - 1);
        if (t && *t < boundary) break;
        --j;
      }
      // j == 0 means the whole tail shares the hot partition — seal it all
      // rather than let one partition grow without bound.
      if (j > 0) k = j;
    }
  }
  seal_prefix(k);
  return true;
}

std::vector<ColumnChunk> SegmentStore::encode_prefix(std::size_t k) const {
  std::vector<ColumnChunk> cols;
  cols.reserve(tail_.columns.size());
  for (const ColumnBatch::Column& t : tail_.columns) {
    ValidityBitmap valid;
    for (std::size_t i = 0; i < k; ++i) valid.push_back(t.valid[i] != 0);
    switch (t.type) {
      case DataType::kInt:
        cols.emplace_back(ColumnChunk::Data{IntChunk(
            std::span(t.ints).first(k), std::move(valid))});
        break;
      case DataType::kDouble: {
        // NULL rows store 0.0, whatever a batch left in their slots.
        std::vector<double> vals(k, 0.0);
        for (std::size_t i = 0; i < k; ++i) {
          if (t.valid[i] != 0) vals[i] = t.doubles[i];
        }
        cols.emplace_back(
            ColumnChunk::Data{DoubleChunk(std::move(vals), std::move(valid))});
        break;
      }
      case DataType::kText:
        cols.emplace_back(
            ColumnChunk::Data{TextChunk::encode(std::span(t.texts).first(k))});
        break;
      case DataType::kNull:
        cols.emplace_back(ColumnChunk::Data{NullChunk{k}});
        break;
    }
  }
  return cols;
}

void SegmentStore::seal_prefix(std::size_t k) {
  if (k == 0) return;
  segments_.emplace_back(sealed_rows_, k, encode_prefix(k));
  sealed_rows_ += k;
  for (ColumnBatch::Column& t : tail_.columns) {
    erase_prefix(t.valid, k);
    erase_prefix(t.ints, k);
    erase_prefix(t.doubles, k);
    erase_prefix(t.texts, k);
  }
  tail_.rows -= k;
}

Segment SegmentStore::encode_tail() const {
  return Segment(sealed_rows_, tail_.rows, encode_prefix(tail_.rows));
}

Value SegmentStore::cell(std::size_t row, std::size_t col) const {
  if (row >= sealed_rows_) {
    if (row - sealed_rows_ >= tail_.rows || col >= tail_.columns.size()) {
      throw std::out_of_range("SegmentStore::cell: out of range");
    }
    return tail_.cell(row - sealed_rows_, col);
  }
  // Segments are contiguous and ordered by base_row: binary search.
  const auto it = std::upper_bound(
      segments_.begin(), segments_.end(), row,
      [](std::size_t r, const Segment& s) { return r < s.base_row(); });
  const Segment& seg = *(it - 1);
  return seg.cell(row - seg.base_row(), col);
}

ZoneMap SegmentStore::zone(std::size_t col) const {
  ZoneMap z;
  for (const Segment& seg : segments_) {
    const ZoneMap& s = seg.column(col).zone();
    if (s.has_value) {
      z.add(s.min);
      z.add(s.max);
    }
  }
  for (std::size_t i = 0; i < tail_.rows; ++i) {
    if (const auto v = tail_as_int(col, i)) z.add(*v);
  }
  return z;
}

void SegmentStore::seal_all() { seal_prefix(tail_.rows); }

void SegmentStore::clear() {
  std::vector<Segment>().swap(segments_);
  for (ColumnBatch::Column& t : tail_.columns) t = null_column(t.type, 0);
  sealed_rows_ = 0;
  tail_.rows = 0;
}

void SegmentStore::reserve(std::size_t n) {
  // Never reserve past one seal's worth: the tail is bounded by design.
  if (cfg_.seal_rows > 0) n = std::min(n, cfg_.seal_rows);
  for (ColumnBatch::Column& t : tail_.columns) {
    t.valid.reserve(n);
    if (t.type == DataType::kInt) t.ints.reserve(n);
    if (t.type == DataType::kDouble) t.doubles.reserve(n);
    if (t.type == DataType::kText) t.texts.reserve(n);
  }
}

std::size_t SegmentStore::byte_size() const {
  std::size_t n = segments_.capacity() * sizeof(Segment);
  for (const Segment& s : segments_) n += s.byte_size();
  n += tail_.columns.capacity() * sizeof(ColumnBatch::Column);
  for (const ColumnBatch::Column& t : tail_.columns) {
    n += t.valid.capacity() + t.ints.capacity() * sizeof(std::int64_t) +
         t.doubles.capacity() * sizeof(double) +
         t.texts.capacity() * sizeof(std::optional<TextRef>);
  }
  return n;
}

bool SegmentStore::column_all_null(std::size_t col) const {
  for (const Segment& s : segments_) {
    if (!s.column(col).all_null()) return false;
  }
  const auto& valid = tail_.columns[col].valid;
  return std::find(valid.begin(), valid.end(), 1) == valid.end();
}

void SegmentStore::retype_int_to_double(std::size_t col) {
  for (Segment& s : segments_) s.column_mut(col).retype_int_to_double();
  ColumnBatch::Column& t = tail_.columns[col];
  t.doubles.assign(t.ints.begin(), t.ints.end());
  std::vector<std::int64_t>().swap(t.ints);
  t.type = DataType::kDouble;
}

void SegmentStore::retype_all_null(std::size_t col, DataType to) {
  for (Segment& s : segments_) s.column_mut(col).retype_all_null(to);
  tail_.columns[col] = null_column(to, tail_.rows);
}

void SegmentStore::add_null_column(DataType type) {
  for (Segment& s : segments_) {
    ColumnChunk c(ColumnChunk::Data{NullChunk{s.row_count()}});
    c.retype_all_null(type);
    s.append_column(std::move(c));
  }
  tail_.columns.push_back(null_column(type, tail_.rows));
}

void SegmentStore::adopt_segment(Segment seg) {
  if (tail_.rows != 0) {
    throw std::logic_error("SegmentStore::adopt_segment: tail not empty");
  }
  if (seg.base_row() != sealed_rows_ ||
      seg.column_count() != tail_.columns.size()) {
    throw std::logic_error("SegmentStore::adopt_segment: shape mismatch");
  }
  sealed_rows_ += seg.row_count();
  segments_.push_back(std::move(seg));
}

void SegmentStore::adopt_tail(const Segment& tail) {
  if (tail_.rows != 0 || tail.base_row() != sealed_rows_ ||
      tail.column_count() != tail_.columns.size()) {
    throw std::logic_error("SegmentStore::adopt_tail: shape mismatch");
  }
  // Column by column, so an Int chunk's block cache decodes each block once.
  for (std::size_t c = 0; c < tail_.columns.size(); ++c) {
    for (std::size_t i = 0; i < tail.row_count(); ++i) {
      tail_.columns[c].push_back(tail.cell(i, c));
    }
  }
  tail_.rows = tail.row_count();
}

}  // namespace mscope::db::segment
