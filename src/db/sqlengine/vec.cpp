#include "db/sqlengine/vec.h"

#include <unordered_map>

namespace mscope::db::sqlengine {

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

template <class Text>
ColumnVec ColumnVec::text_view(std::size_t n, Text text) {
  ColumnVec v;
  v.rows_ = n;
  v.type_ = DataType::kText;
  v.backing_ = std::make_shared<Backing>();
  Backing& b = *v.backing_;
  b.codes.resize(n, segment::TextChunk::kNullCode);
  std::unordered_map<std::string_view, std::uint32_t> seen;
  for (std::size_t i = 0; i < n; ++i) {
    const TextRef* t = text(i);
    if (t == nullptr) continue;
    const auto [it, fresh] = seen.emplace(
        std::string_view(t->str()), static_cast<std::uint32_t>(b.dict.size()));
    if (fresh) b.dict.push_back(*t);
    b.codes[i] = it->second;
  }
  v.codes_ = b.codes;
  v.dict_ = b.dict;
  return v;
}

ColumnVec ColumnVec::from_run(const segment::SegmentStore& store,
                              const segment::SegmentStore::Run& run,
                              std::size_t col) {
  ColumnVec v;
  v.rows_ = run.rows;
  if (run.segment == nullptr) {
    const ColumnBatch::Column& tail = store.tail_.columns[col];
    if (tail.type == DataType::kText) {
      return text_view(run.rows, [&tail](std::size_t i) -> const TextRef* {
        return tail.texts[i] ? &*tail.texts[i] : nullptr;
      });
    }
    v.type_ = tail.type;
    v.ints_ = tail.ints;
    v.doubles_ = tail.doubles;
    v.valid_bytes_ = tail.valid.data();
    return v;
  }
  const segment::ColumnChunk::Data& d = run.segment->column(col).data();
  if (const auto* ic = std::get_if<segment::IntChunk>(&d)) {
    v.type_ = DataType::kInt;
    v.backing_ = std::make_shared<Backing>();
    v.backing_->ints.resize(ic->size());
    auto& out = v.backing_->ints;
    ic->for_each([&](std::size_t i, bool, std::int64_t val) { out[i] = val; });
    v.ints_ = out;
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

ColumnVec ColumnVec::from_rows(std::span<const std::vector<Value>> rows,
                               std::size_t col, DataType type) {
  if (type == DataType::kText) {
    return text_view(rows.size(), [&](std::size_t i) -> const TextRef* {
      return std::get_if<TextRef>(&rows[i][col]);
    });
  }
  ColumnVec v;
  v.rows_ = rows.size();
  v.type_ = type;
  v.backing_ = std::make_shared<Backing>();
  Backing& b = *v.backing_;
  switch (type) {
    case DataType::kInt: {
      b.ints.resize(rows.size(), 0);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const Value& c = rows[i][col];
        const bool ok = !is_null(c);
        b.validity.push_back(ok);
        if (ok) b.ints[i] = std::get<std::int64_t>(c);
      }
      v.ints_ = b.ints;
      v.validity_ = &b.validity;
      break;
    }
    case DataType::kDouble: {
      b.doubles.resize(rows.size(), 0.0);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const Value& c = rows[i][col];
        const bool ok = !is_null(c);
        b.validity.push_back(ok);
        // Int cells are accepted into Double columns pre-widening.
        if (ok) b.doubles[i] = *db::as_double(c);
      }
      v.doubles_ = b.doubles;
      v.validity_ = &b.validity;
      break;
    }
    default:
      v.type_ = DataType::kNull;
      break;
  }
  return v;
}

ColumnVec ColumnVec::from_values(std::span<const Value> vals, DataType type) {
  if (type == DataType::kText) {
    return text_view(vals.size(), [&](std::size_t i) -> const TextRef* {
      return std::get_if<TextRef>(&vals[i]);
    });
  }
  ColumnVec v;
  v.rows_ = vals.size();
  v.type_ = type;
  v.backing_ = std::make_shared<Backing>();
  Backing& b = *v.backing_;
  switch (type) {
    case DataType::kInt: {
      b.ints.resize(vals.size(), 0);
      for (std::size_t i = 0; i < vals.size(); ++i) {
        const auto n = db::as_int(vals[i]);
        b.validity.push_back(n.has_value());
        if (n) b.ints[i] = *n;
      }
      v.ints_ = b.ints;
      v.validity_ = &b.validity;
      break;
    }
    case DataType::kDouble: {
      b.doubles.resize(vals.size(), 0.0);
      for (std::size_t i = 0; i < vals.size(); ++i) {
        const auto n = db::as_double(vals[i]);
        b.validity.push_back(n.has_value());
        if (n) b.doubles[i] = *n;
      }
      v.doubles_ = b.doubles;
      v.validity_ = &b.validity;
      break;
    }
    default:
      v.type_ = DataType::kNull;
      break;
  }
  return v;
}

ColumnVec ColumnVec::gather(std::span<const std::uint32_t> rows) const {
  ColumnVec v;
  v.rows_ = rows.size();
  v.type_ = type_;
  v.backing_ = std::make_shared<Backing>();
  Backing& b = *v.backing_;
  switch (type_) {
    case DataType::kInt: {
      b.ints.resize(rows.size(), 0);
      for (std::size_t k = 0; k < rows.size(); ++k) {
        b.ints[k] = ints_[rows[k]];
        b.validity.push_back(valid(rows[k]));
      }
      v.ints_ = b.ints;
      v.validity_ = &b.validity;
      break;
    }
    case DataType::kDouble: {
      b.doubles.resize(rows.size(), 0.0);
      for (std::size_t k = 0; k < rows.size(); ++k) {
        b.doubles[k] = doubles_[rows[k]];
        b.validity.push_back(valid(rows[k]));
      }
      v.doubles_ = b.doubles;
      v.validity_ = &b.validity;
      break;
    }
    case DataType::kText: {
      b.dict.assign(dict_.begin(), dict_.end());
      b.codes.resize(rows.size());
      for (std::size_t k = 0; k < rows.size(); ++k) {
        b.codes[k] = codes_[rows[k]];
      }
      v.codes_ = b.codes;
      v.dict_ = b.dict;
      break;
    }
    default:
      v.type_ = DataType::kNull;
      break;
  }
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
