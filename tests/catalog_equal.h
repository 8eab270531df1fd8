#pragma once

#include <gtest/gtest.h>

#include <cmath>

#include "db/catalog.h"
#include "db/table.h"

namespace mscope::test {

/// Cell identity: equal values, and for doubles the same sign of zero too
/// (-0.0 == 0.0 numerically, but a store that turns one into the other has
/// changed the cell). NaN is identical to NaN.
inline bool same_value(const db::Value& a, const db::Value& b) {
  if (a.index() == 2 && b.index() == 2) {
    const double x = std::get<double>(a);
    const double y = std::get<double>(b);
    if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
    return x == y && std::signbit(x) == std::signbit(y);
  }
  return a == b;
}

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
        ASSERT_TRUE(same_value(ta.at(r, c), tb.at(r, c)))
            << name << " differs at row " << r << " col "
            << ta.schema()[c].name;
      }
    }
  }
}

}  // namespace mscope::test
