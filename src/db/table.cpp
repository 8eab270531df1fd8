#include "db/table.h"

#include <stdexcept>

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
  // Journal after validation/conversion, before the row reaches storage
  // (WAL-before-apply): replaying the journaled row re-runs the same insert.
  const std::size_t from = store_.row_count();
  if (journal_ != nullptr) journal_->on_insert(name_, schema_, from, row);
  landed(from, store_.append(row));
}

void Table::append(const ColumnBatch& batch, std::size_t first,
                   std::size_t end) {
  if (batch.columns.size() != schema_.size()) {
    throw std::invalid_argument("Table '" + name_ + "': arity mismatch (" +
                                std::to_string(batch.columns.size()) +
                                " vs " + std::to_string(schema_.size()) + ")");
  }
  for (std::size_t c = 0; c < schema_.size(); ++c) {
    const DataType cell = batch.columns[c].type;
    const DataType col = schema_[c].type;
    if (cell == col || (cell == DataType::kInt && col == DataType::kDouble)) {
      continue;
    }
    throw std::invalid_argument("Table '" + name_ + "': type mismatch in " +
                                schema_[c].name + " (batch column " +
                                std::string(to_string(cell)) + ", column " +
                                std::string(to_string(col)) + ")");
  }
  const std::size_t from = store_.row_count();
  if (journal_ != nullptr && first < end) {
    journal_->on_append(name_, schema_, from, batch, first, end);
  }
  landed(from, store_.append(batch, first, end));
}

void Table::landed(std::size_t from, std::size_t seals) {
  // Incremental index maintenance: monitoring logs append mostly in time
  // order, so each entry is an O(1) push_back.
  for (auto& [col, idx] : indexes_) {
    for (std::size_t r = from; r < store_.row_count(); ++r) {
      if (const auto t = as_int(store_.cell(r, col))) {
        idx.append(*t, static_cast<std::uint32_t>(r));
      }
    }
  }
  static obs::Counter& inserts =
      obs::Registry::global().counter("db.table.inserts");
  static obs::Counter& seal_count =
      obs::Registry::global().counter("db.table.seals");
  inserts.add(store_.row_count() - from);
  seal_count.add(seals);
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
  const auto anchor = store_.anchor();
  return anchor ? store_.zone(*anchor) : segment::ZoneMap{};
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
  while (next_row_ >= run_end_) {  // entering the next storage run
    const segment::SegmentStore::Run run = store.run(run_i_++);
    cols_.clear();
    for (std::size_t c = 0; c < table_->column_count(); ++c) {
      cols_.push_back(sqlengine::ColumnVec::from_run(store, run, c));
    }
    run_base_ = run.base_row;
    run_end_ = run.base_row + run.rows;
  }
  row_.clear();
  for (const sqlengine::ColumnVec& v : cols_) {
    row_.push_back(v.get(next_row_ - run_base_));
  }
  row_id_ = next_row_++;
  return true;
}

}  // namespace mscope::db
