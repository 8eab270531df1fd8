#include "db/sqlengine/exec.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "db/sqlengine/expr_eval.h"
#include "obs/metrics.h"

namespace mscope::db::sqlengine {

void Operator::count_batch(const Batch& b) {
  static obs::Counter& rows = obs::Registry::global().counter("db.sql.rows_out");
  static obs::Counter& batches =
      obs::Registry::global().counter("db.sql.batches");
  stat_rows_out += b.active();
  ++stat_batches;
  rows.add(b.active());
  batches.inc();
}

// ------------------------------- ScanOp --------------------------------------

ScanOp::ScanOp(const Table& table, std::vector<std::size_t> cols,
               std::vector<KernelPtr> pushed)
    : table_(&table), cols_(std::move(cols)), pushed_(std::move(pushed)) {
  row_hi_ = table.row_count() == 0 ? 0 : table.row_count() - 1;
  // TimeIndex pushdown: the first pushed kernel that can bound its matches
  // *and* finds a warm index narrows the global row range before any chunk
  // is decoded. Only warm indexes are used — a cold build would cost more
  // than the scan it saves.
  for (const auto& k : pushed_) {
    std::int64_t lo = 0, hi = 0;
    const int col = k->index_col();
    if (col < 0 || !k->index_range(lo, hi)) continue;
    const TimeIndex* idx = table.find_time_index(static_cast<std::size_t>(col));
    if (idx == nullptr) continue;
    const auto slice = idx->range(lo, hi);
    index_used_ = true;
    if (slice.empty()) {
      index_empty_ = true;
      break;
    }
    std::uint32_t rlo = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t rhi = 0;
    for (const auto& e : slice) {
      rlo = std::min(rlo, e.row);
      rhi = std::max(rhi, e.row);
    }
    row_lo_ = std::max(row_lo_, static_cast<std::size_t>(rlo));
    row_hi_ = std::min(row_hi_, static_cast<std::size_t>(rhi));
    break;
  }
  if (table.row_count() == 0 || index_empty_ || row_lo_ > row_hi_) {
    done_ = true;
  }
}

bool ScanOp::load_run(const segment::SegmentStore::Run& run, Batch& out) {
  out.rows = run.rows;
  out.base_row = run.base_row;
  out.cols.clear();
  out.sel.clear();
  out.has_sel = false;
  for (const std::size_t c : cols_) {
    out.cols.push_back(ColumnVec::from_run(table_->storage(), run, c));
  }
  // Partial index overlap: restrict the selection to the surviving global
  // row range before the kernels run.
  const std::size_t lo =
      row_lo_ > out.base_row ? row_lo_ - out.base_row : 0;
  const std::size_t hi =
      std::min(out.rows - 1, row_hi_ - out.base_row);
  if (lo > 0 || hi + 1 < out.rows) {
    out.has_sel = true;
    out.sel.reserve(hi - lo + 1);
    for (std::size_t i = lo; i <= hi; ++i) {
      out.sel.push_back(static_cast<std::uint32_t>(i));
    }
  }
  std::vector<std::uint8_t> mask;
  for (const auto& k : pushed_) {
    if (out.active() == 0) break;
    k->eval(out, mask);
    out.apply_mask(mask);
  }
  return out.active() > 0;
}

bool ScanOp::next(Batch& out) {
  static obs::Counter& scanned =
      obs::Registry::global().counter("db.sql.segments_scanned");
  static obs::Counter& skipped =
      obs::Registry::global().counter("db.sql.segments_skipped");
  static obs::Counter& rows_scanned =
      obs::Registry::global().counter("db.sql.rows_scanned");
  if (done_) return false;
  const segment::SegmentStore& store = table_->storage();
  while (run_i_ < store.run_count()) {
    const segment::SegmentStore::Run run = store.run(run_i_++);
    // Row-range pruning (TimeIndex), then zone-map pruning of sealed runs.
    bool skip = run.base_row + run.rows <= row_lo_ || run.base_row > row_hi_;
    for (const auto& k : pushed_) {
      if (skip || run.segment == nullptr) break;
      skip = !k->may_match(*run.segment);
    }
    if (run.segment != nullptr) {
      ++(skip ? segs_skipped_ : segs_scanned_);
      (skip ? skipped : scanned).inc();
    }
    if (skip) continue;
    rows_scanned.add(run.rows);
    if (load_run(run, out)) {
      count_batch(out);
      return true;
    }
  }
  done_ = true;
  return false;
}

std::string ScanOp::describe() const {
  std::string out = "Scan " + table_->name();
  if (!pushed_.empty()) {
    out += " [pushed:";
    for (const auto& k : pushed_) out += " " + k->describe();
    out += "]";
  }
  if (index_used_) out += " [time-index]";
  return out;
}

std::vector<std::string> ScanOp::detail() const {
  std::vector<std::string> out;
  if (segs_scanned_ + segs_skipped_ > 0) {
    out.push_back("segments: " + std::to_string(segs_scanned_) +
                  " scanned, " + std::to_string(segs_skipped_) + " skipped");
  }
  return out;
}

// ------------------------------ FilterOp -------------------------------------

FilterOp::FilterOp(OpPtr child, KernelPtr kernel)
    : child_(std::move(child)), kernel_(std::move(kernel)) {
  out_names = child_->out_names;
  out_types = child_->out_types;
}

bool FilterOp::next(Batch& out) {
  while (child_->next(out)) {
    kernel_->eval(out, mask_);
    out.apply_mask(mask_);
    if (out.active() > 0) {
      count_batch(out);
      return true;
    }
  }
  return false;
}

std::string FilterOp::describe() const {
  return "Filter " + kernel_->describe();
}

// ------------------------------ RowEmitter -----------------------------------

Batch RowEmitter::make_batch(const std::vector<Table::Row>& rows,
                             std::size_t from, std::size_t n,
                             const std::vector<DataType>& types) {
  Batch b;
  b.rows = n;
  const std::span<const Table::Row> slice(rows.data() + from, n);
  for (std::size_t c = 0; c < types.size(); ++c) {
    b.cols.push_back(ColumnVec::from_rows(slice, c, types[c]));
  }
  return b;
}

namespace {

/// Drains an operator into a join's flat build side.
void materialize(Operator& op, BuildRows& out) {
  out.width = op.out_types.size();
  Batch b;
  while (op.next(b)) {
    for (std::size_t k = 0; k < b.active(); ++k) {
      const std::uint32_t r = b.row_at(k);
      for (const auto& c : b.cols) out.cells.push_back(c.get(r));
      ++out.rows;
    }
  }
}

}  // namespace

// ------------------------------ HashJoinOp -----------------------------------

HashJoinOp::HashJoinOp(OpPtr left, OpPtr right, int left_key, int right_key,
                       std::string key_desc)
    : left_(std::move(left)), right_(std::move(right)), left_key_(left_key),
      right_key_(right_key), key_desc_(std::move(key_desc)) {
  out_names = left_->out_names;
  out_names.insert(out_names.end(), right_->out_names.begin(),
                   right_->out_names.end());
  out_types = left_->out_types;
  out_types.insert(out_types.end(), right_->out_types.begin(),
                   right_->out_types.end());
}

void HashJoinOp::build() {
  materialize(*right_, build_rows_);
  index_.reserve(build_rows_.rows);
  for (std::size_t i = 0; i < build_rows_.rows; ++i) {
    const Value& key =
        build_rows_.row(i)[static_cast<std::size_t>(right_key_)];
    if (is_null(key)) continue;
    index_[value_to_string(key)].push_back(static_cast<std::uint32_t>(i));
  }
  built_ = true;
}

bool HashJoinOp::next(Batch& out) {
  static obs::Counter& probes =
      obs::Registry::global().counter("db.sql.join_probes");
  if (!built_) build();
  Batch in;
  std::vector<Table::Row> matched;
  while (left_->next(in)) {
    const std::size_t key_col = static_cast<std::size_t>(left_key_);
    for (std::size_t k = 0; k < in.active(); ++k) {
      const std::uint32_t r = in.row_at(k);
      const Value key = in.cols[key_col].get(r);
      if (is_null(key)) continue;
      probes.inc();
      const auto it = index_.find(value_to_string(key));
      if (it == index_.end()) continue;
      for (const std::uint32_t bi : it->second) {
        Table::Row row;
        row.reserve(out_types.size());
        for (const auto& c : in.cols) row.push_back(c.get(r));
        const Value* br = build_rows_.row(bi);
        row.insert(row.end(), br, br + build_rows_.width);
        matched.push_back(std::move(row));
      }
    }
    if (!matched.empty()) {
      out = RowEmitter::make_batch(matched, 0, matched.size(), out_types);
      count_batch(out);
      return true;
    }
  }
  return false;
}

std::string HashJoinOp::describe() const {
  return "HashJoin " + key_desc_ + " [build=" +
         std::to_string(build_rows_.rows) + " rows]";
}

// ----------------------------- AlignJoinOp -----------------------------------

AlignJoinOp::AlignJoinOp(OpPtr left, OpPtr right, int left_time,
                         int right_time, std::int64_t tolerance,
                         std::string key_desc)
    : left_(std::move(left)), right_(std::move(right)), left_time_(left_time),
      right_time_(right_time), tol_(tolerance),
      key_desc_(std::move(key_desc)) {
  out_names = left_->out_names;
  out_names.insert(out_names.end(), right_->out_names.begin(),
                   right_->out_names.end());
  out_types = left_->out_types;
  out_types.insert(out_types.end(), right_->out_types.begin(),
                   right_->out_types.end());
}

void AlignJoinOp::build() {
  materialize(*right_, build_rows_);
  times_.reserve(build_rows_.rows);
  for (std::size_t i = 0; i < build_rows_.rows; ++i) {
    const auto t =
        as_int(build_rows_.row(i)[static_cast<std::size_t>(right_time_)]);
    if (!t) continue;
    times_.emplace_back(*t, static_cast<std::uint32_t>(i));
  }
  std::sort(times_.begin(), times_.end());
  built_ = true;
}

bool AlignJoinOp::next(Batch& out) {
  if (!built_) build();
  Batch in;
  std::vector<Table::Row> matched;
  std::vector<std::uint32_t> band;
  while (left_->next(in)) {
    const std::size_t tcol = static_cast<std::size_t>(left_time_);
    for (std::size_t k = 0; k < in.active(); ++k) {
      const std::uint32_t r = in.row_at(k);
      const auto t = as_int(in.cols[tcol].get(r));
      if (!t) continue;
      const auto lo = std::lower_bound(
          times_.begin(), times_.end(),
          std::make_pair(*t - tol_, std::uint32_t{0}));
      const auto hi = std::upper_bound(
          times_.begin(), times_.end(),
          std::make_pair(*t + tol_,
                         std::numeric_limits<std::uint32_t>::max()));
      if (lo == hi) continue;
      // Emit matches in build insertion order (band is time-ordered).
      band.clear();
      for (auto it = lo; it != hi; ++it) band.push_back(it->second);
      std::sort(band.begin(), band.end());
      for (const std::uint32_t bi : band) {
        Table::Row row;
        row.reserve(out_types.size());
        for (const auto& c : in.cols) row.push_back(c.get(r));
        const Value* br = build_rows_.row(bi);
        row.insert(row.end(), br, br + build_rows_.width);
        matched.push_back(std::move(row));
      }
    }
    if (!matched.empty()) {
      out = RowEmitter::make_batch(matched, 0, matched.size(), out_types);
      count_batch(out);
      return true;
    }
  }
  return false;
}

std::string AlignJoinOp::describe() const {
  return "AlignJoin " + key_desc_ + " [build=" +
         std::to_string(build_rows_.rows) + " rows]";
}

// ------------------------------ HashAggOp ------------------------------------

bool HashAggOp::Less::operator()(const std::vector<Value>& a,
                                 const std::vector<Value>& b) const {
  for (std::size_t i = 0; i < a.size(); ++i) {
    const int c = compare(a[i], b[i]);
    if (c != 0) return c < 0;
  }
  return false;
}

HashAggOp::HashAggOp(OpPtr child, std::vector<const Expr*> keys,
                     std::vector<std::string> key_names,
                     std::vector<DataType> key_types, std::vector<AggSpec> aggs)
    : child_(std::move(child)), keys_(std::move(keys)), aggs_(std::move(aggs)) {
  out_names = std::move(key_names);
  out_types = std::move(key_types);
  for (const auto& a : aggs_) {
    out_names.push_back(a.out_name);
    out_types.push_back(a.func == "COUNT" ? DataType::kInt
                                          : DataType::kDouble);
    if (a.func == "COUNT") fns_.push_back(Fn::kCount);
    else if (a.func == "MIN") fns_.push_back(Fn::kMin);
    else if (a.func == "MAX") fns_.push_back(Fn::kMax);
    else if (a.func == "AVG") fns_.push_back(Fn::kAvg);
    else fns_.push_back(Fn::kSum);
  }
}

void HashAggOp::drain() {
  Batch in;
  std::vector<Value> key(keys_.size());
  // Monitoring batches are roughly time-ordered: consecutive rows usually
  // land in the same group, so cache the last group's slot.
  std::vector<AggState>* cached = nullptr;
  std::vector<Value> cached_key;
  while (child_->next(in)) {
    for (std::size_t k = 0; k < in.active(); ++k) {
      const std::uint32_t r = in.row_at(k);
      for (std::size_t i = 0; i < keys_.size(); ++i) {
        key[i] = eval_value(*keys_[i], in, r);
      }
      std::vector<AggState>* stats;
      if (cached != nullptr && key == cached_key) {
        stats = cached;
      } else {
        auto [it, fresh] = groups_.try_emplace(key);
        if (fresh) it->second.resize(aggs_.size());
        stats = &it->second;
        cached = stats;
        cached_key = key;
      }
      for (std::size_t i = 0; i < aggs_.size(); ++i) {
        if (fns_[i] == Fn::kCount) {
          ++(*stats)[i].count;
        } else {
          const auto v = as_double(eval_value(*aggs_[i].arg, in, r));
          if (v) (*stats)[i].stats.add(*v);
        }
      }
    }
  }
  // A global aggregate (no keys) over zero rows still reports one row —
  // COUNT 0, zeroed stats.
  if (keys_.empty() && groups_.empty()) {
    groups_.try_emplace(std::vector<Value>{})
        .first->second.resize(aggs_.size());
  }
  drained_ = true;
  emit_it_ = groups_.begin();
}

bool HashAggOp::next(Batch& out) {
  if (!drained_) drain();
  if (emit_it_ == groups_.end()) return false;
  std::vector<Table::Row> rows;
  const std::size_t cap = RowEmitter::kBatch;
  while (emit_it_ != groups_.end() && rows.size() < cap) {
    Table::Row row;
    row.reserve(out_types.size());
    for (const auto& v : emit_it_->first) row.push_back(v);
    for (std::size_t i = 0; i < aggs_.size(); ++i) {
      const AggState& s = emit_it_->second[i];
      switch (fns_[i]) {
        case Fn::kCount:
          row.push_back(Value{static_cast<std::int64_t>(s.count)});
          break;
        case Fn::kMin: row.push_back(Value{s.stats.min()}); break;
        case Fn::kMax: row.push_back(Value{s.stats.max()}); break;
        case Fn::kAvg: row.push_back(Value{s.stats.mean()}); break;
        case Fn::kSum: row.push_back(Value{s.stats.sum()}); break;
      }
    }
    rows.push_back(std::move(row));
    ++emit_it_;
  }
  out = RowEmitter::make_batch(rows, 0, rows.size(), out_types);
  count_batch(out);
  return true;
}

std::string HashAggOp::describe() const {
  std::string out = "HashAggregate";
  if (!keys_.empty()) {
    out += " keys=[";
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (i) out += ", ";
      out += render_expr(*keys_[i]);
    }
    out += "]";
  }
  out += " aggs=[";
  for (std::size_t i = 0; i < aggs_.size(); ++i) {
    if (i) out += ", ";
    out += aggs_[i].out_name;
  }
  return out + "]";
}

// ------------------------------- SortOp --------------------------------------

SortOp::SortOp(OpPtr child, std::vector<const Expr*> keys,
               std::vector<bool> asc, std::string desc)
    : child_(std::move(child)), keys_(std::move(keys)), asc_(std::move(asc)),
      desc_(std::move(desc)) {
  out_names = child_->out_names;
  out_types = child_->out_types;
}

bool SortOp::next(Batch& out) {
  if (!sorted_) {
    // Materialize rows plus their key tuples, then one stable sort.
    std::vector<std::vector<Value>> sort_keys;
    Batch in;
    while (child_->next(in)) {
      for (std::size_t k = 0; k < in.active(); ++k) {
        const std::uint32_t r = in.row_at(k);
        Table::Row row;
        row.reserve(in.cols.size());
        for (const auto& c : in.cols) row.push_back(c.get(r));
        rows_.push_back(std::move(row));
        std::vector<Value> kv;
        kv.reserve(keys_.size());
        for (const Expr* e : keys_) kv.push_back(eval_value(*e, in, r));
        sort_keys.push_back(std::move(kv));
      }
    }
    std::vector<std::uint32_t> order(rows_.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<std::uint32_t>(i);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       for (std::size_t i = 0; i < keys_.size(); ++i) {
                         const int c =
                             compare(sort_keys[a][i], sort_keys[b][i]);
                         if (c != 0) return asc_[i] ? c < 0 : c > 0;
                       }
                       return false;
                     });
    std::vector<Table::Row> sorted;
    sorted.reserve(rows_.size());
    for (const std::uint32_t i : order) sorted.push_back(std::move(rows_[i]));
    rows_ = std::move(sorted);
    sorted_ = true;
  }
  if (emit_ >= rows_.size()) return false;
  const std::size_t n = std::min(RowEmitter::kBatch, rows_.size() - emit_);
  out = RowEmitter::make_batch(rows_, emit_, n, out_types);
  emit_ += n;
  count_batch(out);
  return true;
}

std::string SortOp::describe() const { return "Sort " + desc_; }

// ------------------------------- LimitOp -------------------------------------

LimitOp::LimitOp(OpPtr child, std::size_t n)
    : child_(std::move(child)), remaining_(n) {
  out_names = child_->out_names;
  out_types = child_->out_types;
}

bool LimitOp::next(Batch& out) {
  if (remaining_ == 0) return false;
  while (child_->next(out)) {
    if (out.active() <= remaining_) {
      remaining_ -= out.active();
      count_batch(out);
      return true;
    }
    // Truncate: keep only the first `remaining_` selected rows.
    if (!out.has_sel) {
      out.has_sel = true;
      out.sel.clear();
      for (std::size_t i = 0; i < remaining_; ++i) {
        out.sel.push_back(static_cast<std::uint32_t>(i));
      }
    } else {
      out.sel.resize(remaining_);
    }
    remaining_ = 0;
    count_batch(out);
    return true;
  }
  return false;
}

std::string LimitOp::describe() const {
  return "Limit";
}

// ------------------------------ ProjectOp ------------------------------------

ProjectOp::ProjectOp(OpPtr child, std::vector<Item> items)
    : child_(std::move(child)), items_(std::move(items)) {}

bool ProjectOp::next(Batch& out) {
  Batch in;
  if (!child_->next(in)) return false;
  out.rows = in.active();
  out.base_row = 0;
  out.cols.clear();
  out.sel.clear();
  out.has_sel = false;
  std::vector<Value> scratch;
  for (const Item& item : items_) {
    if (item.col >= 0) {
      const ColumnVec& src = in.cols[static_cast<std::size_t>(item.col)];
      if (!in.has_sel) {
        out.cols.push_back(src);  // zero copy: shares the view
      } else {
        out.cols.push_back(src.gather(in.sel));
      }
    } else {
      scratch.clear();
      scratch.reserve(in.active());
      for (std::size_t k = 0; k < in.active(); ++k) {
        scratch.push_back(eval_value(*item.expr, in, in.row_at(k)));
      }
      out.cols.push_back(ColumnVec::from_values(scratch, item.type));
    }
  }
  count_batch(out);
  return true;
}

std::string ProjectOp::describe() const {
  std::string out = "Project [";
  for (std::size_t i = 0; i < out_names.size(); ++i) {
    if (i) out += ", ";
    out += out_names[i];
  }
  return out + "]";
}

}  // namespace mscope::db::sqlengine
