#pragma once

#include <string>
#include <vector>

#include "db/table.h"
#include "transform/declaration.h"

namespace mscope::transform {

/// Context handed to a reference parse: where the bytes come from and which
/// declaration governs them.
struct ParseContext {
  std::string node;  ///< node the log came from (directory name)
  std::string file;  ///< file name
  const Declaration* decl = nullptr;
};

/// One parsed log file in the shape the paper's XMLtoCSV converter gives it
/// (Section III-B.3): an inferred relational schema plus string-typed rows
/// aligned to it (empty cell = NULL). The compiled scanners type each cell
/// where they scan it instead (db::ColumnBatch); this string form is the
/// oracle's.
struct Conversion {
  db::Schema schema;
  std::vector<std::vector<std::string>> rows;
  std::string source;
  std::string node;
  std::string file;
};

}  // namespace mscope::transform
