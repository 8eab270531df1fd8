#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/sqlengine/ast.h"
#include "db/sqlengine/kernel.h"
#include "db/sqlengine/vec.h"
#include "db/table.h"
#include "util/stats.h"

namespace mscope::db::sqlengine {

/// A physical operator in the vectorized pipeline: pull-based, one Batch at
/// a time. next() returns false when exhausted; every returned batch has at
/// least one active row (operators loop internally over empty batches).
///
/// Output schema (names + types) is fixed at plan time and carried on the
/// operator so EXPLAIN and the result materializer never re-derive it.
/// Per-operator row/batch counters feed both the EXPLAIN rendering and the
/// process-wide obs registry.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Produces the next non-empty batch; false when exhausted.
  virtual bool next(Batch& out) = 0;

  /// One-line description for EXPLAIN ("Filter: rt > 100").
  [[nodiscard]] virtual std::string describe() const = 0;

  [[nodiscard]] virtual std::size_t child_count() const { return 0; }
  [[nodiscard]] virtual const Operator* child(std::size_t) const {
    return nullptr;
  }

  std::vector<std::string> out_names;
  std::vector<DataType> out_types;

  // Execution statistics (filled while the pipeline drains).
  std::size_t stat_rows_out = 0;
  std::size_t stat_batches = 0;

 protected:
  /// Bumps stats + the shared obs counters; call on every emitted batch.
  void count_batch(const Batch& b);
};

using OpPtr = std::unique_ptr<Operator>;

/// Base-table scan: one batch per storage run — each sealed segment, then
/// the tail, all through ColumnVec::from_run. Pushed-down kernels run
/// inside the scan, where their zone hints skip whole segments and their
/// TimeIndex hints bound the global row range before any chunk is touched.
class ScanOp final : public Operator {
 public:
  /// `cols` are the original table columns the scan outputs (pruned set).
  ScanOp(const Table& table, std::vector<std::size_t> cols,
         std::vector<KernelPtr> pushed);

  bool next(Batch& out) override;
  [[nodiscard]] std::string describe() const override;

  /// EXPLAIN detail: pushdown + pruning summary lines.
  [[nodiscard]] std::vector<std::string> detail() const;

 private:
  bool load_run(const segment::SegmentStore::Run& run, Batch& out);

  const Table* table_;
  std::vector<std::size_t> cols_;
  std::vector<KernelPtr> pushed_;
  std::size_t run_i_ = 0;
  bool done_ = false;

  // TimeIndex-derived global row bounds [row_lo_, row_hi_] (inclusive).
  std::size_t row_lo_ = 0;
  std::size_t row_hi_ = 0;
  bool index_used_ = false;
  bool index_empty_ = false;  ///< index slice empty: no rows can match

  std::size_t segs_skipped_ = 0;
  std::size_t segs_scanned_ = 0;
};

/// Residual predicate: evaluates a kernel over each child batch and refines
/// the selection vector.
class FilterOp final : public Operator {
 public:
  FilterOp(OpPtr child, KernelPtr kernel);

  bool next(Batch& out) override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::size_t child_count() const override { return 1; }
  [[nodiscard]] const Operator* child(std::size_t) const override {
    return child_.get();
  }

 private:
  OpPtr child_;
  KernelPtr kernel_;
  std::vector<std::uint8_t> mask_;
};

/// A join's build side drained into one flat array: row i is cells
/// [i * width, (i + 1) * width). One growing allocation for the whole side,
/// not one per row, so building it costs the same wherever the allocator's
/// free chunks happen to lie.
struct BuildRows {
  std::size_t width = 0;
  std::size_t rows = 0;
  std::vector<Value> cells;

  [[nodiscard]] const Value* row(std::size_t i) const {
    return cells.data() + i * width;
  }
};

/// Hash join (equality). Builds on the right child (materialized), probes
/// with the left child's batches in order; matches of one probe row emit in
/// build insertion order. Keys hash by value_to_string so Int 7 and Double
/// 7.0 join, NULL keys never match.
class HashJoinOp final : public Operator {
 public:
  HashJoinOp(OpPtr left, OpPtr right, int left_key, int right_key,
             std::string key_desc);

  bool next(Batch& out) override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::size_t child_count() const override { return 2; }
  [[nodiscard]] const Operator* child(std::size_t i) const override {
    return i == 0 ? left_.get() : right_.get();
  }

 private:
  void build();

  OpPtr left_, right_;
  int left_key_, right_key_;
  std::string key_desc_;
  bool built_ = false;
  BuildRows build_rows_;
  std::unordered_map<std::string, std::vector<std::uint32_t>> index_;
};

/// Time-alignment interval join: ALIGN(l.ts, r.ts, tol) pairs every left row
/// with the right rows whose time is within +/- tol (as_int semantics, like
/// the TimeIndex). The shape an equi-join cannot express — correlating
/// resource samples with the events they bracket.
class AlignJoinOp final : public Operator {
 public:
  AlignJoinOp(OpPtr left, OpPtr right, int left_time, int right_time,
              std::int64_t tolerance, std::string key_desc);

  bool next(Batch& out) override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::size_t child_count() const override { return 2; }
  [[nodiscard]] const Operator* child(std::size_t i) const override {
    return i == 0 ? left_.get() : right_.get();
  }

 private:
  void build();

  OpPtr left_, right_;
  int left_time_, right_time_;
  std::int64_t tol_;
  std::string key_desc_;
  bool built_ = false;
  BuildRows build_rows_;
  /// (time, build row) sorted — band lookups are two binary searches.
  std::vector<std::pair<std::int64_t, std::uint32_t>> times_;
};

/// One aggregate in a HashAggOp.
struct AggSpec {
  std::string func;      ///< COUNT/MIN/MAX/AVG/SUM (upper-case)
  const Expr* arg = nullptr;  ///< null for COUNT(*) / COUNT
  std::string out_name;
};

/// Per-group accumulator of one aggregate. COUNT counts rows with a plain
/// integer — no Welford update on the hot loop; the other functions share a
/// RunningStats (including its empty-input -> 0.0 convention).
struct AggState {
  util::RunningStats stats;
  std::uint64_t count = 0;
};

/// Hash aggregation with optional group keys. Groups live in an ordered map
/// under Value comparison, so output rows stream in ascending key order
/// with no extra sort. Monitoring data arrives roughly time-ordered, so a
/// one-entry cache of the last key makes the common consecutive-same-bucket
/// case map-lookup-free. With no group keys the operator always emits
/// exactly one row (COUNT 0 / zeroed stats on empty input).
class HashAggOp final : public Operator {
 public:
  HashAggOp(OpPtr child, std::vector<const Expr*> keys,
            std::vector<std::string> key_names,
            std::vector<DataType> key_types, std::vector<AggSpec> aggs);

  bool next(Batch& out) override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::size_t child_count() const override { return 1; }
  [[nodiscard]] const Operator* child(std::size_t) const override {
    return child_.get();
  }

 private:
  struct Less {
    bool operator()(const std::vector<Value>& a,
                    const std::vector<Value>& b) const;
  };
  using GroupMap = std::map<std::vector<Value>, std::vector<AggState>, Less>;

  enum class Fn : std::uint8_t { kCount, kMin, kMax, kAvg, kSum };

  void drain();

  OpPtr child_;
  std::vector<const Expr*> keys_;
  std::vector<AggSpec> aggs_;
  std::vector<Fn> fns_;  ///< aggs_[i].func resolved once, not per row
  bool drained_ = false;
  GroupMap groups_;
  GroupMap::iterator emit_it_;
};

/// Full materialize + stable multi-key sort (NULL < numbers < text, ties
/// keep input order). Runs pre-projection so ORDER BY can reference columns
/// the SELECT list drops.
class SortOp final : public Operator {
 public:
  SortOp(OpPtr child, std::vector<const Expr*> keys, std::vector<bool> asc,
         std::string desc);

  bool next(Batch& out) override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::size_t child_count() const override { return 1; }
  [[nodiscard]] const Operator* child(std::size_t) const override {
    return child_.get();
  }

 private:
  OpPtr child_;
  std::vector<const Expr*> keys_;
  std::vector<bool> asc_;
  std::string desc_;
  bool sorted_ = false;
  std::vector<Table::Row> rows_;
  std::size_t emit_ = 0;
};

class LimitOp final : public Operator {
 public:
  LimitOp(OpPtr child, std::size_t n);

  bool next(Batch& out) override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::size_t child_count() const override { return 1; }
  [[nodiscard]] const Operator* child(std::size_t) const override {
    return child_.get();
  }

 private:
  OpPtr child_;
  std::size_t remaining_;
};

/// Final projection. Bare-column items pass the child's ColumnVec through
/// (zero copy when the batch has no selection, typed gather otherwise);
/// computed items evaluate per selected row. Output batches are compact
/// (no selection vector) so the result materializer reads them linearly.
class ProjectOp final : public Operator {
 public:
  /// Each item is either a pass-through child column (col >= 0) or a
  /// computed expression.
  struct Item {
    int col = -1;
    const Expr* expr = nullptr;
    DataType type = DataType::kNull;
  };

  ProjectOp(OpPtr child, std::vector<Item> items);

  bool next(Batch& out) override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::size_t child_count() const override { return 1; }
  [[nodiscard]] const Operator* child(std::size_t) const override {
    return child_.get();
  }

 private:
  OpPtr child_;
  std::vector<Item> items_;
};

/// Materializes rows into batches (join/sort/aggregate outputs).
class RowEmitter {
 public:
  static constexpr std::size_t kBatch = 4096;

  /// Emits rows [from, from+n) of `rows` as one compact batch.
  static Batch make_batch(const std::vector<Table::Row>& rows,
                          std::size_t from, std::size_t n,
                          const std::vector<DataType>& types);
};

}  // namespace mscope::db::sqlengine
