#include "db/segment/segment.h"

#include <cmath>
#include <stdexcept>

namespace mscope::db::segment {

ColumnChunk::ColumnChunk(Data data) : data_(std::move(data)) {
  compute_zone();
}

void ColumnChunk::compute_zone() {
  zone_ = ZoneMap{};
  for_each_as_int([this](std::size_t, std::int64_t v) { zone_.add(v); });
}

std::size_t ColumnChunk::size() const {
  return std::visit(
      [](const auto& c) -> std::size_t {
        using T = std::decay_t<decltype(c)>;
        if constexpr (std::is_same_v<T, NullChunk>) {
          return c.rows;
        } else {
          return c.size();
        }
      },
      data_);
}

Value ColumnChunk::cell(std::size_t i) const {
  switch (data_.index()) {
    case 0:
      return Value{};
    case 1: {
      const auto& c = std::get<IntChunk>(data_);
      return c.valid(i) ? Value{c.value(i)} : Value{};
    }
    case 2: {
      const auto& c = std::get<DoubleChunk>(data_);
      return c.valid(i) ? Value{c.value(i)} : Value{};
    }
    default: {
      const auto& c = std::get<TextChunk>(data_);
      return c.valid(i) ? Value{c.value(i)} : Value{};
    }
  }
}

std::size_t ColumnChunk::byte_size() const {
  return std::visit(
      [](const auto& c) -> std::size_t {
        using T = std::decay_t<decltype(c)>;
        if constexpr (std::is_same_v<T, NullChunk>) {
          return sizeof(NullChunk);
        } else {
          return c.byte_size();
        }
      },
      data_);
}

bool ColumnChunk::all_null() const {
  switch (data_.index()) {
    case 0: return true;
    case 1: return std::get<IntChunk>(data_).validity().null_count() ==
                   std::get<IntChunk>(data_).size();
    case 2: return std::get<DoubleChunk>(data_).validity().null_count() ==
                   std::get<DoubleChunk>(data_).size();
    default: {
      const auto& c = std::get<TextChunk>(data_);
      for (std::size_t i = 0; i < c.size(); ++i) {
        if (c.valid(i)) return false;
      }
      return true;
    }
  }
}

void ColumnChunk::retype_int_to_double() {
  const auto& ic = std::get<IntChunk>(data_);
  std::vector<double> cells(ic.size(), 0.0);
  ValidityBitmap valid;
  ic.for_each([&](std::size_t i, bool ok, std::int64_t v) {
    if (ok) cells[i] = static_cast<double>(v);
    valid.push_back(ok);
  });
  data_ = Data{DoubleChunk(std::move(cells), std::move(valid))};
  compute_zone();  // llround(double(x)) == x: the zone is in fact unchanged
}

void ColumnChunk::retype_all_null(DataType to) {
  const std::size_t n = size();
  switch (to) {
    case DataType::kInt:
      data_ = Data{IntChunk(std::vector<std::int64_t>(n, 0),
                            ValidityBitmap::nulls(n))};
      break;
    case DataType::kDouble:
      data_ = Data{DoubleChunk(std::vector<double>(n, 0.0),
                               ValidityBitmap::nulls(n))};
      break;
    case DataType::kText:
      data_ = Data{TextChunk({}, std::vector<std::uint32_t>(
                                     n, TextChunk::kNullCode))};
      break;
    case DataType::kNull:
      data_ = Data{NullChunk{n}};
      break;
  }
  compute_zone();
}

Segment::Segment(std::size_t base_row, std::size_t rows,
                 std::vector<ColumnChunk> cols)
    : base_row_(base_row), rows_(rows), cols_(std::move(cols)) {
  for (const ColumnChunk& c : cols_) {
    if (c.size() != rows_) {
      throw std::logic_error("Segment: column/row count mismatch");
    }
  }
}

std::size_t Segment::byte_size() const {
  std::size_t n = sizeof(Segment);
  for (const ColumnChunk& c : cols_) n += c.byte_size();
  return n;
}

}  // namespace mscope::db::segment
