#pragma once

#include <gtest/gtest.h>

#include "db/catalog.h"
#include "db/table.h"

namespace mscope::test {

/// Cell-by-cell equality across the Catalog seam — works for a flat
/// Database and a ShardedWarehouse alike.
inline void expect_identical_catalogs(const db::Catalog& a,
                                      const db::Catalog& b) {
  ASSERT_EQ(a.table_names(), b.table_names());
  for (const auto& name : a.table_names()) {
    const db::Table& ta = a.get(name);
    const db::Table& tb = b.get(name);
    ASSERT_EQ(ta.schema(), tb.schema()) << "schema mismatch in " << name;
    ASSERT_EQ(ta.row_count(), tb.row_count()) << "row count in " << name;
    for (std::size_t r = 0; r < ta.row_count(); ++r) {
      for (std::size_t c = 0; c < ta.column_count(); ++c) {
        ASSERT_TRUE(ta.at(r, c) == tb.at(r, c))
            << name << " differs at row " << r << " col "
            << ta.schema()[c].name;
      }
    }
  }
}

}  // namespace mscope::test
