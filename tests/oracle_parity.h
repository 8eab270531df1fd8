#pragma once

// Parity with the test oracle: the table a warehouse holds for a log file
// must equal the paper's parser -> XML -> XMLtoCSV chain (tests/oracle/)
// run on that file's bytes, cell by cell.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>

#include "catalog_equal.h"
#include "db/database.h"
#include "oracle/parsers.h"
#include "transform/declaration.h"

namespace mscope::test {

/// The table `db` holds for `node`/`file` has the schema and rows of
/// reference_parse(content), each oracle cell read through db::parse_as at
/// its column type (same_value: the sign of zero counts). A file the oracle
/// gives no columns has no table.
inline void expect_table_matches_oracle(const db::Database& db,
                                        const transform::Declaration& decl,
                                        const std::string& node,
                                        const std::string& file,
                                        std::string_view content) {
  const transform::Conversion ref =
      transform::reference_parse(content, {node, file, &decl});
  const std::string name = decl.table_prefix + "_" + node;
  SCOPED_TRACE(node + "/" + file + " -> " + name);
  if (ref.schema.empty()) {
    EXPECT_FALSE(db.exists(name));
    return;
  }
  ASSERT_TRUE(db.exists(name));
  const db::Table& got = db.get(name);
  ASSERT_EQ(got.schema(), ref.schema);
  ASSERT_EQ(got.row_count(), ref.rows.size());
  for (std::size_t r = 0; r < ref.rows.size(); ++r) {
    for (std::size_t c = 0; c < ref.schema.size(); ++c) {
      const auto want = db::parse_as(ref.rows[r][c], ref.schema[c].type);
      ASSERT_TRUE(want.has_value())
          << "row " << r << " col " << ref.schema[c].name;
      ASSERT_TRUE(same_value(got.at(r, c), *want))
          << "row " << r << " col " << ref.schema[c].name;
    }
  }
}

/// expect_table_matches_oracle for every file under `run_dir` (laid out
/// run_dir/<node>/<file>) that a default declaration matches. Returns how
/// many files it compared.
inline std::size_t expect_run_matches_oracle(
    const db::Database& db, const std::filesystem::path& run_dir) {
  namespace fs = std::filesystem;
  const transform::DeclarationRegistry registry;
  std::size_t compared = 0;
  for (const auto& node_dir : fs::directory_iterator(run_dir)) {
    if (!node_dir.is_directory()) continue;
    for (const auto& entry : fs::directory_iterator(node_dir.path())) {
      const std::string file = entry.path().filename().string();
      const transform::Declaration* decl = registry.match(file);
      if (!entry.is_regular_file() || decl == nullptr) continue;
      std::ifstream in(entry.path(), std::ios::binary);
      const std::string content(std::istreambuf_iterator<char>(in), {});
      expect_table_matches_oracle(db, *decl,
                                  node_dir.path().filename().string(), file,
                                  content);
      ++compared;
    }
  }
  return compared;
}

}  // namespace mscope::test
