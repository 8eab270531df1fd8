#pragma once

#include "db/database.h"
#include "db/sqlengine/ast.h"
#include "db/sqlengine/exec.h"

namespace mscope::db::sqlengine {

/// A compiled physical plan. Owns every expression node the operators point
/// into (the parsed statement plus planner-synthesized nodes), so the plan
/// is self-contained: drain `root`, then drop the whole thing.
struct Plan {
  SelectStmt stmt;
  std::vector<ExprPtr> extra;  ///< synthesized nodes (star expansion, ...)
  OpPtr root;
  bool explain = false;
};

/// Rule-based planning over the parsed statement:
///   - name resolution (aliases, qualified columns; unknown table/column ->
///     std::out_of_range);
///   - constant folding of literal arithmetic;
///   - WHERE split into conjuncts; single-table conjuncts compile to
///     kernels pushed into that table's scan (zone-map + TimeIndex pruning),
///     cross-table conjuncts stay as a residual post-join filter;
///   - projection pruning: scans read only the columns the query touches;
///   - aggregate validation and rewrite (select items over a grouped query
///     become references into the aggregate's output schema).
///
/// Throws SqlError (std::invalid_argument) on semantic errors,
/// std::out_of_range on unknown tables/columns.
[[nodiscard]] Plan build_plan(const Catalog& db, SelectStmt stmt);

}  // namespace mscope::db::sqlengine
