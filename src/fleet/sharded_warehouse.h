#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/catalog.h"
#include "db/database.h"
#include "db/table.h"

namespace mscope::fleet {

/// The fleet root's warehouse: N independent mScopeDB instances, each fed by
/// its own StreamingTransformer, presenting one logical warehouse through
/// the db::Catalog seam — mScopeSQL, PIT analysis and the diagnoser all run
/// over it unmodified.
///
/// Sharding is by *origin node*: every dynamic table is per (monitor, node),
/// so routing a node's byte streams to one shard keeps each dynamic table
/// whole in a single shard and its reads zero-copy — find() returns the
/// shard's table directly. Only tables that exist in several shards (the
/// four ms_* static tables, which every Database creates, and any
/// mscope_meta_* telemetry) take the merge-on-read path: their rows are
/// folded into a cached merged Table, re-built only when a shard's version
/// (row count or schema) moves.
///
/// Merge ordering contract: tables whose flat-warehouse order is the
/// finalize order (ms_load_catalog by "file", ms_monitor_deployment by
/// (node, log_file)) are merged by those key columns — each shard's
/// finalize emits its subset already in key order, so the merge reproduces
/// the flat warehouse row-for-row. Everything else concatenates in shard
/// order, which again matches the flat warehouse because such rows are
/// written once, into shard 0.
class ShardedWarehouse : public db::Catalog {
 public:
  explicit ShardedWarehouse(int shards);
  ~ShardedWarehouse() override;

  ShardedWarehouse(const ShardedWarehouse&) = delete;
  ShardedWarehouse& operator=(const ShardedWarehouse&) = delete;

  [[nodiscard]] int shard_count() const {
    return static_cast<int>(shards_.size());
  }
  [[nodiscard]] db::Database& shard(int i) { return *shards_.at(i); }
  [[nodiscard]] const db::Database& shard(int i) const {
    return *shards_.at(i);
  }

  // --- db::Catalog ---------------------------------------------------------
  [[nodiscard]] const db::Table* find(const std::string& name) const override;
  [[nodiscard]] std::vector<std::string> table_names() const override;

 private:
  /// Merge-on-read: folds every shard's `name` rows into one cached Table.
  [[nodiscard]] const db::Table* merged(
      const std::string& name, const std::vector<const db::Table*>& parts)
      const;

  std::vector<std::unique_ptr<db::Database>> shards_;

  /// Cached merged tables, keyed by name, with the per-shard versions
  /// (row count + schema) they were built from.
  struct MergedEntry {
    std::vector<std::size_t> row_counts;
    std::vector<db::Schema> schemas;
    std::unique_ptr<db::Table> table;
  };
  mutable std::map<std::string, MergedEntry> merged_;
};

}  // namespace mscope::fleet
