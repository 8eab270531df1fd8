#include "transform/importer.h"

#include <stdexcept>

namespace mscope::transform {

void prewarm_time_indexes(const db::Table& table) {
  for (const char* name : {"ts_usec", "ua_usec", "ud_usec"}) {
    if (table.column_index(name)) {
      (void)table.time_index(name);  // builds on miss, no-op for Text columns
    }
  }
}

DataImporter::Result DataImporter::import(db::Database& db,
                                          const std::string& table_name,
                                          const Conversion& c) {
  db::Table& table = db.create_table(table_name, c.schema);
  table.reserve(c.rows.size());

  for (std::size_t r = 0; r < c.rows.size(); ++r) {
    const auto& srow = c.rows[r];
    db::Table::Row row;
    row.reserve(srow.size());
    for (std::size_t i = 0; i < srow.size(); ++i) {
      auto v = db::parse_as(srow[i], c.schema[i].type);
      if (!v) {
        // Point back at the raw log when the fast path recorded per-row
        // source lines; otherwise fall back to the row index.
        std::string where = c.node + "/" + c.file;
        where += r < c.row_lines.size()
                     ? ":" + std::to_string(c.row_lines[r])
                     : " row " + std::to_string(r + 1);
        throw std::invalid_argument("DataImporter: " + where + ": cell '" +
                                    srow[i] + "' does not fit column " +
                                    c.schema[i].name + " of " + table_name);
      }
      row.push_back(std::move(*v));
    }
    table.insert(std::move(row));
  }

  prewarm_time_indexes(table);  // while the rows are cache-hot
  const db::segment::ZoneMap span = table.anchor_span();
  db.record_load(c.node + "/" + c.file, table_name,
                 static_cast<std::int64_t>(table.row_count()), span.min,
                 span.max);
  return {table_name, table.row_count()};
}

}  // namespace mscope::transform
