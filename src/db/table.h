#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "db/column_batch.h"
#include "db/index.h"
#include "db/segment/segment_store.h"
#include "db/sqlengine/vec.h"
#include "db/value.h"

namespace mscope::db {

class Table;

/// Observer of warehouse mutations, attached via Database::set_journal —
/// the seam the write-ahead log hangs off. Callbacks fire *before* the
/// mutation is applied (standard WAL-before-apply ordering) with the exact
/// arguments the mutation will use, so replaying the journal against a
/// fresh Database reproduces the warehouse cell-for-cell.
class MutationJournal {
 public:
  virtual ~MutationJournal() = default;

  virtual void on_create_table(const std::string& name,
                               const Schema& schema) = 0;
  virtual void on_drop_table(const std::string& name) = 0;
  /// Table::append (and Table::insert, a one-row append): rows [first, end)
  /// of `batch` are about to land as the table's rows row_index,
  /// row_index + 1, ... `schema` is the table's; the batch's column types
  /// have been checked against it (each equal, or Int cells into a Double
  /// column, which land converted).
  virtual void on_append(const std::string& table, const Schema& schema,
                         std::size_t row_index, const ColumnBatch& batch,
                         std::size_t first, std::size_t end) = 0;
  virtual void on_widen(const std::string& table, const Schema& wider) = 0;
};

/// Forward iterator over a table's rows in insertion order, independent of
/// physical layout: each storage run (a sealed segment, then the tail) is
/// read through one sqlengine::ColumnVec per column, so a sealed column
/// decodes once per segment, not once per cell. The only sanctioned way to
/// walk whole rows — storage layout is not part of Table's public contract.
/// The table must not change while a cursor walks it.
class RowCursor {
 public:
  /// Advances to the next row; false at the end. The reference returned by
  /// row() stays valid until the next call.
  bool next();

  [[nodiscard]] const std::vector<Value>& row() const { return row_; }
  [[nodiscard]] std::size_t row_id() const { return row_id_; }

 private:
  friend class Table;
  explicit RowCursor(const Table& t) : table_(&t) {}

  const Table* table_;
  std::size_t next_row_ = 0;
  std::size_t row_id_ = 0;
  std::size_t run_i_ = 0;  ///< next storage run to enter
  std::size_t run_base_ = 0;
  std::size_t run_end_ = 0;  ///< one past the current run's last row
  std::vector<sqlengine::ColumnVec> cols_;
  std::vector<Value> row_;
};

/// A relational table in mScopeDB. Storage is a segment::SegmentStore:
/// sealed immutable columnar segments (delta+varint Ints, dictionary Text,
/// validity bitmaps) plus one active tail of typed column arrays that
/// absorbs appends — a multi-hour run never lives in one allocation, and
/// full-column scans run at memory bandwidth instead of chasing per-row
/// heap vectors.
/// Schemas are created dynamically by the Data Importer from inferred CSV
/// schemas, so inserts validate arity and type (a cell must be NULL or
/// match — or be narrower than — its column's declared type).
///
/// Numeric columns can carry a sorted TimeIndex (see db/index.h): built on
/// first use or prewarmed by the importers, then maintained incrementally by
/// insert(). Tables are append-only (no update/delete), which keeps the
/// index invariant trivial; clear() discards all indexes and releases
/// storage.
class Table {
 public:
  using Row = std::vector<Value>;

  Table(std::string name, Schema schema);

  /// Adopts pre-built storage (binary snapshot load). The store's shape must
  /// match the schema.
  Table(std::string name, Schema schema, segment::SegmentStore store);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Schema& schema() const { return schema_; }
  [[nodiscard]] std::size_t row_count() const { return store_.row_count(); }
  [[nodiscard]] std::size_t column_count() const { return schema_.size(); }

  /// Index of a column by name.
  [[nodiscard]] std::optional<std::size_t> column_index(
      std::string_view name) const;

  /// Inserts a row; throws std::invalid_argument on arity or type mismatch.
  /// Int cells are silently accepted into Double columns (widening). A
  /// one-row append() through a batch the table reuses: may seal the tail
  /// into a columnar segment.
  void insert(Row row);

  /// Appends rows [first, end) of `batch`, whose columns match this table's
  /// by position. Each column's type is checked once: it must equal the
  /// table column's, or be Int into a Double column (converted as insert()
  /// converts). Throws std::invalid_argument naming the table and the
  /// column on an arity or type mismatch, before any row lands. The store
  /// copies the column ranges and the journal takes the range as it is; the
  /// index entries, seals and db.table.inserts / seals are those of
  /// inserting the same rows one at a time.
  void append(const ColumnBatch& batch, std::size_t first, std::size_t end);

  /// Cell accessor (bounds-checked). Returns by value: sealed cells are
  /// materialized from columnar storage. Sequential whole-row access should
  /// use scan() instead.
  [[nodiscard]] Value at(std::size_t row, std::size_t col) const;

  /// Cell accessor by column name; throws if the column does not exist.
  [[nodiscard]] Value at(std::size_t row, std::string_view col) const;

  /// Row iterator from row 0 (see RowCursor).
  [[nodiscard]] RowCursor scan() const { return RowCursor(*this); }

  /// The sorted time index of an Int/Double column, building it on first use
  /// (one O(n log n) pass; subsequent inserts maintain it incrementally).
  /// Returns nullptr for a missing column and for Text/Null columns, which
  /// cannot be time-indexed.
  [[nodiscard]] const TimeIndex* time_index(std::string_view col) const;

  /// The index if it has already been built (never builds) — lets callers
  /// choose an index-backed plan only when one is warm.
  [[nodiscard]] const TimeIndex* find_time_index(std::size_t col) const;

  /// Smallest and largest anchor time through as_int (SegmentStore::zone:
  /// the sealed zone maps plus the tail). The anchor is the column seals
  /// partition on: ts_usec, else ua_usec, else the first *_usec column.
  /// has_value is false (min = max = 0) when there is no anchor column or
  /// it holds no numeric cell.
  [[nodiscard]] segment::ZoneMap anchor_span() const;

  /// Read access to physical storage for mScopeSQL's scans, ColumnReader
  /// and the snapshot writer. Layout may change between versions; analysis
  /// code should stay on scan()/ColumnReader.
  [[nodiscard]] const segment::SegmentStore& storage() const {
    return store_;
  }

  /// Storage policy control (benchmarks, tests). Applies to future inserts.
  void set_storage_config(segment::SegmentConfig cfg) {
    store_.set_config(cfg);
  }

  /// Seals the active tail into a columnar segment, for a table that is
  /// complete once written (flow::Materializer::materialize). Snapshots do
  /// not need it: write_table saves the tail as its own chunk-set.
  void seal_all() { store_.seal_all(); }

  /// In-place schema widening: succeeds when the current schema is a
  /// name-preserving prefix of `wider` and every type change is exact —
  /// identical, Int -> Double (integer cells convert exactly), or a column
  /// with no non-NULL cells. New trailing columns backfill NULL. Sealed
  /// segments re-encode only the affected columns; warm indexes survive
  /// (as_int values are unchanged by exact widenings). Returns false — with
  /// the table untouched — when the change cannot be applied exactly
  /// (caller falls back to drop + rebuild).
  bool try_widen(const Schema& wider);

  void clear() {
    store_.clear();
    indexes_.clear();
  }

  void reserve(std::size_t n) { store_.reserve(n); }

  /// Attaches the mutation journal (Database::set_journal propagates it to
  /// every table, present and future). Not an ownership transfer. clear()
  /// is deliberately not journaled: it is a bench/test affordance, not part
  /// of the append-only warehouse contract.
  void set_journal(MutationJournal* j) { journal_ = j; }

 private:
  friend class RowCursor;

  static std::optional<std::size_t> detect_anchor(const Schema& schema);

  /// Bookkeeping once rows [from, row_count()) have landed (by insert() or
  /// append()) with `seals` seals: time indexes and counters.
  void landed(std::size_t from, std::size_t seals);

  std::string name_;
  Schema schema_;
  MutationJournal* journal_ = nullptr;
  segment::SegmentStore store_;
  ColumnBatch row_;  ///< insert()'s row as a one-row batch, reused
  /// Lazily built per-column time indexes; mutable so read-only queries can
  /// warm them (logically const: they cache a derived view of the storage).
  mutable std::map<std::size_t, TimeIndex> indexes_;
};

}  // namespace mscope::db
