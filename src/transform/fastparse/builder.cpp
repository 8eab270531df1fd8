#include "transform/fastparse/builder.h"

#include <charconv>
#include <cstring>
#include <functional>
#include <optional>
#include <utility>

#include "util/strings.h"

namespace mscope::transform::fastparse {

namespace {

/// What one cell of a column holds until take() types it.
enum CellKind : std::uint8_t {
  kNullCell = 0,
  kIntCell,     ///< raw text that parses as int64 (value in num)
  kDoubleCell,  ///< raw text that parses as double (bits in num)
  kTextCell,    ///< raw text of no narrower type
  kTimeCell,    ///< a scanned time: int64 in num, no text
};

/// Past this many distinct values a column's TextCache stops caching.
constexpr std::size_t kTextCacheEntries = 64;

/// Slots of a thread's recent_text() table (a power of two).
constexpr std::size_t kRecentTexts = 1024;

/// The text of a cell in a column with too many distinct values for its
/// TextCache. A request id repeats in every event table its request
/// touched, so one thread's files share each recent value through a
/// direct-mapped table (a collision replaces the slot): about one string
/// per request instead of one per (request, table) cell, with no lock.
db::TextRef recent_text(std::string_view s) {
  thread_local std::vector<std::optional<db::TextRef>> slots(kRecentTexts);
  std::optional<db::TextRef>& slot =
      slots[std::hash<std::string_view>{}(s) & (kRecentTexts - 1)];
  if (!slot || slot->str() != s) slot.emplace(db::TextRef::Unpooled{}, s);
  return *slot;
}

std::int64_t double_bits(double d) {
  std::int64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double bits_double(std::int64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

}  // namespace

db::TextRef BatchBuilder::TextCache::get(std::string_view s) {
  if (off_) return recent_text(s);
  if (const auto it = map_.find(s); it != map_.end()) return it->second;
  db::TextRef t(db::TextRef::Unpooled{}, s);
  if (map_.size() < kTextCacheEntries) {
    map_.emplace(std::string_view(t.str()), t);
  } else if (++misses_ > kTextCacheEntries) {
    off_ = true;
    map_ = {};
  }
  return t;
}

BatchBuilder::ColId BatchBuilder::column(std::string_view name) {
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const ColId id = static_cast<ColId>(cols_.size());
  cols_.emplace_back();
  cols_.back().name = std::string(name);
  index_.emplace(std::string(name), id);
  return id;
}

std::size_t BatchBuilder::slot(Col& c) {
  const std::size_t r = rows_ - 1;
  if (c.kind.size() <= r) c.kind.resize(r + 1, kNullCell);
  return r;
}

void BatchBuilder::set(ColId col, std::string_view raw) {
  Col& c = cols_[col];
  const std::size_t r = slot(c);
  const std::string_view t = util::trim(raw);
  if (t.empty()) {
    c.kind[r] = kNullCell;  // infers to Null, which never widens
    return;
  }
  if (c.raw.size() <= r) c.raw.resize(r + 1);
  c.raw[r] = t;
  // Once a column is Text it stays Text: skip the number parses.
  if (c.type == db::DataType::kText) {
    c.kind[r] = kTextCell;
    return;
  }
  const char* b = t.data();
  const char* e = b + t.size();
  std::int64_t i = 0;
  if (const auto [p, ec] = std::from_chars(b, e, i);
      ec == std::errc{} && p == e) {
    if (c.num.size() <= r) c.num.resize(r + 1);
    c.num[r] = i;
    c.kind[r] = kIntCell;
    c.type = db::widen(c.type, db::DataType::kInt);
    if (i == 0 && t.front() == '-') c.window_negative_zero = true;
    return;
  }
  double d = 0;
  if (const auto [p, ec] = std::from_chars(b, e, d);
      ec == std::errc{} && p == e) {
    if (c.num.size() <= r) c.num.resize(r + 1);
    c.num[r] = double_bits(d);
    c.kind[r] = kDoubleCell;
    c.type = db::widen(c.type, db::DataType::kDouble);
    return;
  }
  c.kind[r] = kTextCell;
  c.type = db::DataType::kText;
}

void BatchBuilder::set_owned(ColId col, std::string raw) {
  owned_.push_back(std::move(raw));
  set(col, owned_.back());
}

void BatchBuilder::set_int(ColId col, std::int64_t value) {
  Col& c = cols_[col];
  const std::size_t r = slot(c);
  if (c.num.size() <= r) c.num.resize(r + 1);
  c.num[r] = value;
  c.kind[r] = kTimeCell;
  c.type = db::widen(c.type, db::DataType::kInt);
}

db::ColumnBatch BatchBuilder::take() {
  db::ColumnBatch b;
  const std::size_t n = rows_;
  b.rows = n;
  b.schema.reserve(cols_.size());
  b.columns.resize(cols_.size());
  for (std::size_t ci = 0; ci < cols_.size(); ++ci) {
    Col& c = cols_[ci];
    db::ColumnBatch::Column& out = b.columns[ci];
    // An all-empty column is Text (the reference's inference quirk).
    out.type = c.type == db::DataType::kNull ? db::DataType::kText : c.type;
    b.schema.push_back({c.name, out.type});
    c.kind.resize(n, kNullCell);
    switch (out.type) {
      case db::DataType::kInt:
        // Only Int and time cells: the values are already the column.
        c.num.resize(n);
        out.ints = std::move(c.num);
        if (c.window_negative_zero) c.negative_zero = true;
        break;
      case db::DataType::kDouble:
        out.doubles.resize(n);
        for (std::size_t r = 0; r < n; ++r) {
          switch (c.kind[r]) {
            case kDoubleCell: out.doubles[r] = bits_double(c.num[r]); break;
            // parse_as(text, kDouble): "-0" keeps its sign.
            case kIntCell: (void)std::from_chars(c.raw[r].data(),
                                                 c.raw[r].data() +
                                                     c.raw[r].size(),
                                                 out.doubles[r]);
              break;
            case kTimeCell:
              out.doubles[r] = static_cast<double>(c.num[r]);
              break;
            default: break;
          }
        }
        break;
      default:
        out.texts.resize(n);
        for (std::size_t r = 0; r < n; ++r) {
          const std::uint8_t k = c.kind[r];
          if (k == kNullCell) continue;
          if (k == kTimeCell) {
            // The decimal rendering a time cell has in a Text column.
            char buf[24];
            const auto res = std::to_chars(buf, buf + sizeof(buf), c.num[r]);
            out.texts[r] = c.texts.get(
                std::string_view(buf, static_cast<std::size_t>(res.ptr - buf)));
          } else {
            out.texts[r] = c.texts.get(c.raw[r]);
          }
        }
        break;
    }
    for (std::uint8_t& k : c.kind) k = k != kNullCell ? 1 : 0;
    out.valid = std::move(c.kind);
    c.kind = {};
    c.num = {};
    c.raw = {};
    c.window_negative_zero = false;
  }
  rows_ = 0;
  owned_.clear();
  return b;
}

}  // namespace mscope::transform::fastparse
