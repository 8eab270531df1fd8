#pragma once

#include <string>

#include "db/database.h"
#include "transform/xml_to_csv.h"

namespace mscope::transform {

/// Builds the time indexes mScopeSQL's scan pushdown bounds row ranges with
/// (ts_usec, ua_usec, ud_usec) right at import, while the rows are hot in
/// cache. Tables that keep growing afterwards — the streaming transformer's
/// — then maintain them incrementally on each insert.
void prewarm_time_indexes(const db::Table& table);

/// mScope Data Importer (paper Section III-B.3): creates the dynamic table
/// from the converter's inferred schema and loads the tuples, recording the
/// load in mScopeDB's static ms_load_catalog table, with the table's
/// anchor_span() as its time range ({0, 0}: none).
class DataImporter {
 public:
  struct Result {
    std::string table;
    std::size_t rows = 0;
  };

  /// Imports a conversion as table `table_name`. Throws
  /// std::invalid_argument if the table already exists or a cell cannot be
  /// parsed as its column's declared type.
  static Result import(db::Database& db, const std::string& table_name,
                       const Conversion& c);
};

}  // namespace mscope::transform
