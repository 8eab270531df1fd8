#include "db/sqlengine/vec.h"

#include <stdexcept>

namespace mscope::db::sqlengine {

struct ColumnVec::Backing {
  std::vector<std::int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::uint32_t> codes;
  std::vector<TextRef> dict;
  segment::ValidityBitmap validity;
  std::shared_ptr<const void> dict_owner;  ///< a gathered view's dictionary
};

Value ColumnVec::get(std::size_t i) const {
  if (!valid(i)) return Value{};
  switch (type_) {
    case DataType::kInt:
      return Value{ints_[i]};
    case DataType::kDouble:
      return Value{doubles_[i]};
    case DataType::kText:
      return Value{dict_[codes_[i]]};
    default:
      return Value{};
  }
}

ColumnVec ColumnVec::from_run(const segment::SegmentStore& store,
                              const segment::SegmentStore::Run& run,
                              std::size_t col) {
  ColumnVec v;
  v.rows_ = run.rows;
  if (run.segment == nullptr) {
    const ColumnBatch::Column& tail = store.tail_.columns[col];
    v.type_ = tail.type;
    if (tail.type == DataType::kText) {
      const auto chunk = std::make_shared<const segment::TextChunk>(
          segment::TextChunk::encode(std::span(tail.texts).first(run.rows)));
      v.codes_ = chunk->codes();
      v.dict_ = chunk->dict();
      v.owner_ = chunk;
      return v;
    }
    v.ints_ = tail.ints;
    v.doubles_ = tail.doubles;
    v.valid_bytes_ = tail.valid.data();
    return v;
  }
  const segment::ColumnChunk::Data& d = run.segment->column(col).data();
  if (const auto* ic = std::get_if<segment::IntChunk>(&d)) {
    v.type_ = DataType::kInt;
    auto ints = std::make_shared<std::vector<std::int64_t>>(ic->size());
    std::vector<std::int64_t>& out = *ints;
    ic->for_each([&](std::size_t i, bool, std::int64_t val) { out[i] = val; });
    v.ints_ = out;
    v.owner_ = std::move(ints);
    v.validity_ = &ic->validity();
  } else if (const auto* dc = std::get_if<segment::DoubleChunk>(&d)) {
    v.type_ = DataType::kDouble;
    v.doubles_ = dc->values();
    v.validity_ = &dc->validity();
  } else if (const auto* tc = std::get_if<segment::TextChunk>(&d)) {
    v.type_ = DataType::kText;
    v.codes_ = tc->codes();
    v.dict_ = tc->dict();
  } else {
    v.type_ = DataType::kNull;
  }
  return v;
}

ColumnVec ColumnVec::gather(std::span<const std::uint32_t> rows) const {
  if (type_ != DataType::kText) {
    Builder b(type_);
    b.append(*this, rows);
    return b.finish();
  }
  auto b = std::make_shared<Backing>();
  b->codes.reserve(rows.size());
  for (const std::uint32_t r : rows) b->codes.push_back(codes_[r]);
  b->dict_owner = owner_;
  ColumnVec v;
  v.type_ = DataType::kText;
  v.rows_ = rows.size();
  v.codes_ = b->codes;
  v.dict_ = dict_;
  v.owner_ = std::move(b);
  return v;
}

ColumnVec::Builder::Builder(DataType type)
    : type_(type), b_(std::make_shared<Backing>()) {}

void ColumnVec::Builder::append(const ColumnVec& src,
                                std::span<const std::uint32_t> rows) {
  if (src.type_ != type_) {
    throw std::logic_error("ColumnVec::Builder: source type differs");
  }
  rows_ += rows.size();
  Backing& b = *b_;
  switch (type_) {
    case DataType::kInt: {
      const std::size_t at = b.ints.size();
      b.ints.resize(at + rows.size());
      for (std::size_t k = 0; k < rows.size(); ++k) {
        b.ints[at + k] = src.ints_[rows[k]];
        b.validity.push_back(src.valid(rows[k]));
      }
      break;
    }
    case DataType::kDouble: {
      const std::size_t at = b.doubles.size();
      b.doubles.resize(at + rows.size());
      for (std::size_t k = 0; k < rows.size(); ++k) {
        b.doubles[at + k] = src.doubles_[rows[k]];
        b.validity.push_back(src.valid(rows[k]));
      }
      break;
    }
    case DataType::kText: {
      // kNullCode marks a source code not yet given an entry here. Between
      // appends every entry of remap_ is kNullCode: it grows to the largest
      // source dictionary seen, and each append resets only the entries it
      // set. An append costs its rows, not its source's dictionary (a
      // join's output shares the whole build-side dictionary).
      constexpr std::uint32_t kNull = segment::TextChunk::kNullCode;
      if (remap_.size() < src.dict_.size()) {
        remap_.resize(src.dict_.size(), kNull);
      }
      const std::size_t at = b.codes.size();
      b.codes.resize(at + rows.size(), kNull);
      for (std::size_t k = 0; k < rows.size(); ++k) {
        const std::uint32_t code = src.codes_[rows[k]];
        if (code == kNull) continue;
        std::uint32_t& mapped = remap_[code];
        if (mapped == kNull) {
          mapped = static_cast<std::uint32_t>(b.dict.size());
          b.dict.push_back(src.dict_[code]);
        }
        b.codes[at + k] = mapped;
      }
      for (const std::uint32_t r : rows) {
        if (src.codes_[r] != kNull) remap_[src.codes_[r]] = kNull;
      }
      break;
    }
    case DataType::kNull:
      break;
  }
}

void ColumnVec::Builder::push(const Value& v) {
  ++rows_;
  Backing& b = *b_;
  switch (type_) {
    case DataType::kInt: {
      const auto n = db::as_int(v);
      b.ints.push_back(n.value_or(0));
      b.validity.push_back(n.has_value());
      break;
    }
    case DataType::kDouble: {
      const auto n = db::as_double(v);
      b.doubles.push_back(n.value_or(0.0));
      b.validity.push_back(n.has_value());
      break;
    }
    case DataType::kText:
      if (const auto* t = std::get_if<TextRef>(&v)) {
        b.codes.push_back(static_cast<std::uint32_t>(b.dict.size()));
        b.dict.push_back(*t);
      } else {
        b.codes.push_back(segment::TextChunk::kNullCode);
      }
      break;
    case DataType::kNull:
      break;
  }
}

ColumnVec ColumnVec::Builder::finish() {
  ColumnVec v;
  v.type_ = type_;
  v.rows_ = rows_;
  v.ints_ = b_->ints;
  v.doubles_ = b_->doubles;
  v.codes_ = b_->codes;
  v.dict_ = b_->dict;
  if (type_ == DataType::kInt || type_ == DataType::kDouble) {
    v.validity_ = &b_->validity;
  }
  v.owner_ = std::move(b_);
  return v;
}

void Batch::apply_mask(const std::vector<std::uint8_t>& mask) {
  if (!has_sel) {
    sel.clear();
    sel.reserve(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      if (mask[i]) sel.push_back(static_cast<std::uint32_t>(i));
    }
    has_sel = true;
    return;
  }
  std::size_t keep = 0;
  for (const std::uint32_t r : sel) {
    if (mask[r]) sel[keep++] = r;
  }
  sel.resize(keep);
}

}  // namespace mscope::db::sqlengine
