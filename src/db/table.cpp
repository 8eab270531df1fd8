#include "db/table.h"

#include <stdexcept>

#include "db/column_batch.h"

#include "obs/metrics.h"
#include "util/strings.h"

namespace mscope::db {

namespace {

std::vector<DataType> types_of(const Schema& schema) {
  std::vector<DataType> t;
  t.reserve(schema.size());
  for (const auto& c : schema) t.push_back(c.type);
  return t;
}

}  // namespace

std::optional<std::size_t> Table::detect_anchor(const Schema& schema) {
  // The event tables' ts/ua columns, then any *_usec column. Type is not
  // checked — non-numeric anchors simply never align a seal (as_int yields
  // nothing).
  for (const char* name : {"ts_usec", "ua_usec"}) {
    for (std::size_t i = 0; i < schema.size(); ++i) {
      if (schema[i].name == name) return i;
    }
  }
  for (std::size_t i = 0; i < schema.size(); ++i) {
    if (util::ends_with(schema[i].name, "_usec")) return i;
  }
  return std::nullopt;
}

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  if (schema_.empty())
    throw std::invalid_argument("Table '" + name_ + "': empty schema");
  for (std::size_t i = 0; i < schema_.size(); ++i) {
    if (schema_[i].name.empty())
      throw std::invalid_argument("Table '" + name_ + "': unnamed column");
    for (std::size_t j = i + 1; j < schema_.size(); ++j) {
      if (schema_[i].name == schema_[j].name)
        throw std::invalid_argument("Table '" + name_ +
                                    "': duplicate column " + schema_[i].name);
    }
  }
  store_ = segment::SegmentStore(types_of(schema_), detect_anchor(schema_));
}

Table::Table(std::string name, Schema schema, segment::SegmentStore store)
    : Table(std::move(name), std::move(schema)) {
  store_ = std::move(store);
  store_.set_anchor(detect_anchor(schema_));
}

std::optional<std::size_t> Table::column_index(std::string_view name) const {
  for (std::size_t i = 0; i < schema_.size(); ++i) {
    if (schema_[i].name == name) return i;
  }
  return std::nullopt;
}

void Table::insert(Row row) {
  if (row.size() != schema_.size()) {
    throw std::invalid_argument("Table '" + name_ + "': arity mismatch (" +
                                std::to_string(row.size()) + " vs " +
                                std::to_string(schema_.size()) + ")");
  }
  for (std::size_t i = 0; i < row.size(); ++i) {
    const DataType cell = type_of(row[i]);
    if (cell == DataType::kNull) continue;
    const DataType col = schema_[i].type;
    if (cell == col) continue;
    if (cell == DataType::kInt && col == DataType::kDouble) {
      row[i] = Value{static_cast<double>(std::get<std::int64_t>(row[i]))};
      continue;
    }
    throw std::invalid_argument("Table '" + name_ + "': type mismatch in " +
                                schema_[i].name + " (cell " +
                                std::string(to_string(cell)) + ", column " +
                                std::string(to_string(col)) + ")");
  }
  put(std::move(row));
}

void Table::append(const ColumnBatch& batch, std::size_t first,
                   std::size_t end) {
  if (batch.columns.size() != schema_.size()) {
    throw std::invalid_argument("Table '" + name_ + "': arity mismatch (" +
                                std::to_string(batch.columns.size()) +
                                " vs " + std::to_string(schema_.size()) + ")");
  }
  std::vector<std::uint8_t> int_to_double(schema_.size(), 0);
  for (std::size_t c = 0; c < schema_.size(); ++c) {
    const DataType cell = batch.columns[c].type;
    const DataType col = schema_[c].type;
    if (cell == col) continue;
    if (cell == DataType::kInt && col == DataType::kDouble) {
      int_to_double[c] = 1;
      continue;
    }
    throw std::invalid_argument("Table '" + name_ + "': type mismatch in " +
                                schema_[c].name + " (batch column " +
                                std::string(to_string(cell)) + ", column " +
                                std::string(to_string(col)) + ")");
  }
  for (std::size_t r = first; r < end; ++r) {
    Row row;
    row.reserve(schema_.size());
    for (std::size_t c = 0; c < schema_.size(); ++c) {
      const ColumnBatch::Column& bc = batch.columns[c];
      if (int_to_double[c] != 0 && bc.valid[r] != 0) {
        row.emplace_back(static_cast<double>(bc.ints[r]));
      } else {
        row.push_back(batch.cell(r, c));
      }
    }
    put(std::move(row));
  }
}

void Table::put(Row row) {
  if (!indexes_.empty()) {
    // Incremental index maintenance: monitoring logs append mostly in time
    // order, so this is an O(1) push_back on the hot path. Read the cells
    // before the row moves into the store (which may seal it away).
    const auto r = static_cast<std::uint32_t>(store_.row_count());
    for (auto& [col, idx] : indexes_) {
      if (const auto t = as_int(row[col])) idx.append(*t, r);
    }
  }
  // Journal after validation/conversion, before the row reaches storage
  // (WAL-before-apply): replaying the journaled row re-runs the same insert.
  if (journal_ != nullptr) journal_->on_insert(name_, store_.row_count(), row);
  static obs::Counter& inserts =
      obs::Registry::global().counter("db.table.inserts");
  static obs::Counter& seals =
      obs::Registry::global().counter("db.table.seals");
  const std::size_t sealed_before = store_.segments().size();
  store_.append(std::move(row));
  inserts.inc();
  if (store_.segments().size() != sealed_before) seals.inc();
}

Value Table::at(std::size_t row, std::size_t col) const {
  if (row >= store_.row_count() || col >= schema_.size()) {
    throw std::out_of_range("Table '" + name_ + "': cell (" +
                            std::to_string(row) + ", " + std::to_string(col) +
                            ") out of range");
  }
  return store_.cell(row, col);
}

Value Table::at(std::size_t row, std::string_view col) const {
  const auto idx = column_index(col);
  if (!idx)
    throw std::out_of_range("Table '" + name_ + "': no column " +
                            std::string(col));
  return at(row, *idx);
}

segment::ZoneMap Table::anchor_span() const {
  segment::ZoneMap span;
  const auto anchor = store_.anchor();
  if (!anchor) return span;
  for (const segment::Segment& seg : store_.segments()) {
    const segment::ZoneMap& z = seg.column(*anchor).zone();
    if (z.has_value) {
      span.add(z.min);
      span.add(z.max);
    }
  }
  for (const Row& row : store_.tail()) {
    if (const auto t = as_int(row[*anchor])) span.add(*t);
  }
  return span;
}

const TimeIndex* Table::time_index(std::string_view col) const {
  const auto c = column_index(col);
  if (!c) return nullptr;
  const DataType t = schema_[*c].type;
  if (t != DataType::kInt && t != DataType::kDouble) return nullptr;
  auto it = indexes_.find(*c);
  if (it == indexes_.end()) {
    it = indexes_.emplace(*c, TimeIndex::build(*this, *c)).first;
  }
  return &it->second;
}

const TimeIndex* Table::find_time_index(std::size_t col) const {
  const auto it = indexes_.find(col);
  return it == indexes_.end() ? nullptr : &it->second;
}

bool Table::try_widen(const Schema& wider) {
  if (wider.size() < schema_.size()) return false;
  for (std::size_t i = 0; i < schema_.size(); ++i) {
    if (wider[i].name != schema_[i].name) return false;
  }
  enum class Op : std::uint8_t { kKeep, kIntToDouble, kAllNull };
  std::vector<Op> ops(schema_.size(), Op::kKeep);
  for (std::size_t i = 0; i < schema_.size(); ++i) {
    if (wider[i].type == schema_[i].type) continue;
    if (schema_[i].type == DataType::kInt &&
        wider[i].type == DataType::kDouble) {
      // Exact: integer cells convert to the same double that a re-parse of
      // their rendering would produce, and as_int rounds straight back.
      ops[i] = Op::kIntToDouble;
    } else if (store_.column_all_null(i)) {
      // Exact trivially: there is no value to re-represent. Covers the
      // all-empty-column kNull -> kText inference quirk and any later
      // retype of such a column.
      ops[i] = Op::kAllNull;
    } else {
      // Anything else (notably Int/Double -> Text) is lossy: "042" infers
      // as Int 42 and would re-render as "42". Caller must rebuild.
      return false;
    }
  }
  // Every op below applies exactly, so the widening is committed from here
  // on; journal it before touching storage (WAL-before-apply).
  if (journal_ != nullptr) journal_->on_widen(name_, wider);
  static obs::Counter& widens =
      obs::Registry::global().counter("db.table.widens");
  widens.inc();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i] == Op::kIntToDouble) {
      store_.retype_int_to_double(i);
    } else if (ops[i] == Op::kAllNull) {
      store_.retype_all_null(i, wider[i].type);
      // A (necessarily empty) index on the old type may not be valid for
      // the new one (e.g. retyped to Text); drop it.
      indexes_.erase(i);
    }
  }
  for (std::size_t j = schema_.size(); j < wider.size(); ++j) {
    store_.add_null_column(wider[j].type);
  }
  schema_ = wider;
  store_.set_anchor(detect_anchor(schema_));
  return true;
}

bool RowCursor::next() {
  const segment::SegmentStore& store = table_->store_;
  if (next_row_ >= store.row_count()) return false;
  if (next_row_ < store.sealed_row_count()) {
    const auto& segs = store.segments();
    for (;;) {
      if (!reader_) reader_.emplace(segs[seg_i_]);
      if (reader_->next(buf_)) break;
      reader_.reset();
      ++seg_i_;
    }
    cur_ = &buf_;
  } else {
    cur_ = &store.tail()[next_row_ - store.sealed_row_count()];
  }
  row_id_ = next_row_++;
  return true;
}

}  // namespace mscope::db
