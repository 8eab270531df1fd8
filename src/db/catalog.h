#pragma once

#include <string>
#include <vector>

namespace mscope::db {

class Table;

/// Read-side table directory: the minimal surface the SQL engine and every
/// analysis need from a warehouse — name -> Table lookup
/// plus enumeration. `Database` is the canonical implementation (one
/// physical warehouse); `fleet::ShardedWarehouse` implements it over N
/// shard Databases with merge-on-read, so diagnosis and SQL run unmodified
/// over a fleet's sharded root warehouse as if it were one Database.
///
/// Method names deliberately mirror Database's historical API (find / get /
/// exists / table_names), so consumers switch by changing a reference type,
/// not their call sites.
class Catalog {
 public:
  virtual ~Catalog() = default;

  /// Looks up a table by name; nullptr if absent.
  [[nodiscard]] virtual const Table* find(const std::string& name) const = 0;

  /// All table names in sorted order.
  [[nodiscard]] virtual std::vector<std::string> table_names() const = 0;

  /// Like find(), but throws std::out_of_range with a helpful message.
  [[nodiscard]] const Table& get(const std::string& name) const;

  [[nodiscard]] bool exists(const std::string& name) const {
    return find(name) != nullptr;
  }
};

}  // namespace mscope::db
