#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/catalog.h"
#include "db/table.h"
#include "util/simtime.h"

namespace mscope::db {

/// mScopeDB: the dynamic data warehouse (paper Section III-C).
///
/// Four *static* tables store load metadata (experiment configuration, node
/// inventory, monitor deployment, load catalog); *dynamic* tables are
/// created on the fly by the transformer — one per (monitor, node) log
/// file, with the schema its parser inferred by the paper's XMLtoCSV
/// best-match rules.
class Database : public Catalog {
 public:
  /// Names of the four static metadata tables.
  static constexpr const char* kExperimentTable = "ms_experiment";
  static constexpr const char* kNodeTable = "ms_node";
  static constexpr const char* kDeploymentTable = "ms_monitor_deployment";
  static constexpr const char* kLoadCatalogTable = "ms_load_catalog";

  Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Creates a dynamic table; throws std::invalid_argument if it exists.
  Table& create_table(const std::string& name, Schema schema);

  /// Installs a fully built dynamic table (binary snapshot load adopts the
  /// table's sealed storage wholesale); throws std::invalid_argument if the
  /// name exists or is a static table's.
  Table& adopt_table(Table table);

  /// Looks up a table (static or dynamic); nullptr if absent.
  [[nodiscard]] Table* find(const std::string& name);
  [[nodiscard]] const Table* find(const std::string& name) const override;

  /// Like find(), but throws std::out_of_range with a helpful message.
  /// (The const overload is inherited from Catalog.)
  using Catalog::get;
  [[nodiscard]] Table& get(const std::string& name);

  /// Drops a dynamic table; static tables cannot be dropped.
  bool drop(const std::string& name);

  /// Attaches a mutation journal (the write-ahead log) to the warehouse:
  /// every create_table/drop and — via Table::set_journal on all present and
  /// future tables — every insert, append and in-place widening is reported
  /// to `j` before it is applied. Pass nullptr to detach. Attach *before*
  /// populating the warehouse: recovery replays the journal against a fresh
  /// Database, so rows inserted while no journal was attached (and tables
  /// installed via adopt_table) are only recoverable from a snapshot.
  void set_journal(MutationJournal* j);
  [[nodiscard]] MutationJournal* journal() const { return journal_; }

  /// All table names in sorted order.
  [[nodiscard]] std::vector<std::string> table_names() const override;

  // --- static-table convenience writers -----------------------------------

  /// Records an experiment in ms_experiment.
  void record_experiment(const std::string& run_id,
                         const std::string& description, std::int64_t workload,
                         util::SimTime duration);

  /// Records a node in ms_node.
  void record_node(const std::string& node, const std::string& service,
                   std::int64_t cores);

  /// Records a monitor deployment in ms_monitor_deployment.
  void record_deployment(const std::string& node, const std::string& monitor,
                         const std::string& log_file,
                         util::SimTime interval_usec);

  /// Records a completed load in ms_load_catalog (file -> table mapping,
  /// row count, covered time range).
  void record_load(const std::string& file, const std::string& table,
                   std::int64_t rows, util::SimTime t_min,
                   util::SimTime t_max);

 private:
  [[nodiscard]] static bool is_static(const std::string& name);

  std::map<std::string, std::unique_ptr<Table>> tables_;
  MutationJournal* journal_ = nullptr;
};

}  // namespace mscope::db
