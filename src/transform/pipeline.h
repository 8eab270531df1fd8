#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "db/database.h"
#include "transform/declaration.h"
#include "transform/transform_config.h"

namespace mscope::transform {

/// mScopeDataTransformer — the multi-stage pipeline façade (paper Fig. 3).
///
/// For every log file under a run directory (layout: run_dir/<node>/<file>):
///   1. *Parsing declaration*: look the file up in the DeclarationRegistry;
///   2. *Adding semantics* + 3. *XMLtoCSV*: parse the file into typed rows
///      under a best-match schema;
///   4. *Import*: create the dynamic table "<prefix>_<node>" in mScopeDB and
///      load the tuples.
/// A run is one StreamingTransformer pass: each complete file is ingested
/// once (its read buffer becomes the parse subject), then finalize() parses
/// and loads every file. Stages 2-3 run on the compiled byte scanners
/// (transform/fastparse); the paper's regex mScopeParsers -> XML ->
/// XMLtoCSV chain survives as their test oracle in tests/oracle/.
class DataTransformer {
 public:
  struct Config {
    TransformConfig transform;  ///< parse worker pool
  };

  struct FileReport {
    std::string node;
    std::string file;
    std::string table;   ///< empty if the file loaded no rows
    std::size_t entries = 0;
    bool matched = false;
  };

  struct Report {
    std::vector<FileReport> files;
    std::size_t tables_created = 0;
    std::size_t rows_loaded = 0;

    [[nodiscard]] std::size_t skipped() const {
      std::size_t n = 0;
      for (const auto& f : files) n += f.matched ? 0 : 1;
      return n;
    }
  };

  DataTransformer();
  explicit DataTransformer(Config cfg);

  /// Access the declaration registry (to add custom log formats).
  [[nodiscard]] DeclarationRegistry& declarations() { return registry_; }

  /// Transforms every recognized log under `run_dir` into `db`. Throws
  /// std::invalid_argument if `run_dir` does not exist, a declaration names
  /// a parser that does not exist, or a file maps onto a table that exists
  /// or that another file loads, and std::runtime_error naming the file if a
  /// file fails to parse.
  Report run(const std::filesystem::path& run_dir, db::Database& db) const;

 private:
  DeclarationRegistry registry_;
  Config cfg_;
};

}  // namespace mscope::transform
