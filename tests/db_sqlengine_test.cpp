// Tests for the vectorized SQL engine (db/sqlengine/): the new grammar
// (JOIN, ALIGN, GROUP BY, BUCKET, BETWEEN, IN, OR, NOT, aliases, EXPLAIN),
// cell-for-cell parity with row-at-a-time RowCursor oracles on the analyses
// the paper's figures run (time-bucketed roll-ups, cross-tier joins), a
// property test of randomized predicates against a row-at-a-time oracle,
// and fuzz-ish parser robustness (truncations and garbage must throw
// cleanly, never crash).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/sql.h"
#include "db/sqlengine/engine.h"
#include "db/sqlengine/token.h"
#include "util/rng.h"
#include "util/simtime.h"
#include "util/stats.h"

namespace mscope::db {
namespace {

// Two event tiers sharing request ids, sized past the 4096-row segment seal
// so queries exercise sealed columnar segments, zone maps and the tail.
class SqlEngineFixture : public ::testing::Test {
 protected:
  static constexpr int kApacheRows = 6000;

  SqlEngineFixture() {
    auto& ap = db_.create_table("ev_apache", {{"req_id", DataType::kText},
                                              {"ts_usec", DataType::kInt},
                                              {"rt_ms", DataType::kDouble},
                                              {"url", DataType::kText}});
    auto& tc = db_.create_table("ev_tomcat", {{"req_id", DataType::kText},
                                              {"ts_usec", DataType::kInt},
                                              {"svc_ms", DataType::kDouble}});
    util::Rng rng(7);
    const char* urls[] = {"/rubbos/ViewStory", "/rubbos/StoriesOfTheDay",
                          "/rubbos/StoreComment", "/rubbos/BrowseCategories"};
    for (int i = 0; i < kApacheRows; ++i) {
      const std::int64_t ts = util::msec(i);  // one request per msec
      const double rt = 1.0 + 40.0 * rng.next_double();
      ap.insert({Value{std::string("ID") + std::to_string(i)}, Value{ts},
                 Value{rt}, Value{std::string(urls[i % 4])}});
      // Every third request reaches the app tier.
      if (i % 3 == 0) {
        tc.insert({Value{std::string("ID") + std::to_string(i)},
                   Value{ts + 150}, Value{rt * 0.6}});
      }
    }
  }

  const Table& apache() const { return db_.get("ev_apache"); }
  const Table& tomcat() const { return db_.get("ev_tomcat"); }

  db::Database db_;
};

// Collects a table's cells as strings, one vector per row — canonical form
// for order-insensitive comparison of join outputs.
std::vector<std::vector<std::string>> rows_of(const Table& t) {
  std::vector<std::vector<std::string>> out;
  for (RowCursor cur = t.scan(); cur.next();) {
    std::vector<std::string> row;
    for (const Value& v : cur.row()) row.push_back(value_to_string(v));
    out.push_back(std::move(row));
  }
  return out;
}

void expect_cells_equal(const Table& got, const Table& want) {
  ASSERT_EQ(got.row_count(), want.row_count());
  ASSERT_EQ(got.column_count(), want.column_count());
  for (std::size_t r = 0; r < want.row_count(); ++r) {
    for (std::size_t c = 0; c < want.column_count(); ++c) {
      const Value& g = got.at(r, c);
      const Value& w = want.at(r, c);
      const auto gd = as_double(g);
      const auto wd = as_double(w);
      if (gd && wd) {
        EXPECT_NEAR(*gd, *wd, 1e-9 * (1.0 + std::abs(*wd)))
            << "cell (" << r << ", " << c << ")";
      } else {
        EXPECT_EQ(value_to_string(g), value_to_string(w))
            << "cell (" << r << ", " << c << ")";
      }
    }
  }
}

// --- oracle parity: the acceptance-criterion queries -------------------------

// Row-at-a-time roll-up oracle: per 1-second bucket of ts_usec, ascending,
// the RunningStats of rt_ms over the rows `keep` accepts.
std::map<std::int64_t, util::RunningStats> rt_per_second(
    const Table& t, const std::function<bool(const Table::Row&)>& keep) {
  const std::size_t ts = *t.column_index("ts_usec");
  const std::size_t rt = *t.column_index("rt_ms");
  std::map<std::int64_t, util::RunningStats> out;
  for (RowCursor cur = t.scan(); cur.next();) {
    if (!keep(cur.row())) continue;
    const std::int64_t b = *as_int(cur.row()[ts]) / util::sec(1);
    out[b * util::sec(1)].add(*as_double(cur.row()[rt]));
  }
  return out;
}

TEST_F(SqlEngineFixture, TimeBucketedGroupByMatchesNativeOracle) {
  const Table sql = Sql::execute(
      db_,
      "SELECT BUCKET(ts_usec, 1000000), COUNT(*), AVG(rt_ms), MAX(rt_ms) "
      "FROM ev_apache GROUP BY BUCKET(ts_usec, 1000000)");
  Table native("native", {{"bucket_usec", DataType::kInt},
                          {"count", DataType::kInt},
                          {"mean_rt_ms", DataType::kDouble},
                          {"max_rt_ms", DataType::kDouble}});
  for (const auto& [bucket, st] :
       rt_per_second(apache(), [](const Table::Row&) { return true; })) {
    native.insert({Value{bucket},
                   Value{static_cast<std::int64_t>(st.count())},
                   Value{st.mean()}, Value{st.max()}});
  }
  // Same cells in the same (ascending bucket) order; names differ by design.
  expect_cells_equal(sql, native);
  EXPECT_EQ(sql.schema()[0].name, "bucket_ts_usec");
  EXPECT_EQ(sql.schema()[2].name, "avg_rt_ms");
}

TEST_F(SqlEngineFixture, FilteredGroupByMatchesNativeOracle) {
  const Table sql = Sql::execute(
      db_,
      "SELECT BUCKET(ts_usec, 1000000), COUNT(*), SUM(rt_ms) FROM ev_apache "
      "WHERE url = '/rubbos/ViewStory' GROUP BY BUCKET(ts_usec, 1000000)");
  Table native("native", {{"bucket_usec", DataType::kInt},
                          {"count", DataType::kInt},
                          {"sum_rt_ms", DataType::kDouble}});
  const std::size_t url = *apache().column_index("url");
  for (const auto& [bucket, st] :
       rt_per_second(apache(), [url](const Table::Row& row) {
         return as_text(row[url]) == "/rubbos/ViewStory";
       })) {
    native.insert({Value{bucket},
                   Value{static_cast<std::int64_t>(st.count())},
                   Value{st.sum()}});
  }
  expect_cells_equal(sql, native);
}

TEST_F(SqlEngineFixture, CrossTierHashJoinMatchesNativeOracle) {
  const Table sql = Sql::execute(
      db_,
      "SELECT a.req_id, a.rt_ms, t.svc_ms FROM ev_apache AS a "
      "JOIN ev_tomcat AS t ON a.req_id = t.req_id");
  ASSERT_EQ(sql.row_count(), tomcat().row_count());
  // Oracle: every (apache, tomcat) pair with equal rendered req_id.
  std::multimap<std::string, std::string> svc_by_id;
  for (RowCursor tc = tomcat().scan(); tc.next();) {
    svc_by_id.emplace(value_to_string(tc.row()[0]),
                      value_to_string(tc.row()[2]));
  }
  std::vector<std::vector<std::string>> want;
  for (RowCursor ac = apache().scan(); ac.next();) {
    const std::string id = value_to_string(ac.row()[0]);
    const auto [lo, hi] = svc_by_id.equal_range(id);
    for (auto it = lo; it != hi; ++it) {
      want.push_back({id, value_to_string(ac.row()[2]), it->second});
    }
  }
  auto got = rows_of(sql);
  // Join row order is an implementation detail; compare as sets.
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST_F(SqlEngineFixture, JoinWithResidualCrossTablePredicate) {
  // svc_ms > rt_ms never holds (svc = 0.6 * rt): the residual predicate
  // references both sides, so it cannot be pushed below the join.
  const Table none = Sql::execute(
      db_,
      "SELECT a.req_id FROM ev_apache AS a JOIN ev_tomcat AS t "
      "ON a.req_id = t.req_id WHERE t.svc_ms > a.rt_ms");
  EXPECT_EQ(none.row_count(), 0u);
  const Table all = Sql::execute(
      db_,
      "SELECT a.req_id FROM ev_apache AS a JOIN ev_tomcat AS t "
      "ON a.req_id = t.req_id WHERE t.svc_ms < a.rt_ms");
  EXPECT_EQ(all.row_count(), tomcat().row_count());
}

TEST_F(SqlEngineFixture, AlignJoinBandSemantics) {
  // Tomcat timestamps sit exactly 150 usec after their apache request, so a
  // 150-usec band aligns each pair exactly once and a 100-usec band none.
  const Table aligned = Sql::execute(
      db_,
      "SELECT a.req_id, t.req_id FROM ev_apache AS a JOIN ev_tomcat AS t "
      "ON ALIGN(a.ts_usec, t.ts_usec, 150) WHERE a.req_id = t.req_id");
  EXPECT_EQ(aligned.row_count(), tomcat().row_count());
  const Table missed = Sql::execute(
      db_,
      "SELECT a.req_id FROM ev_apache AS a JOIN ev_tomcat AS t "
      "ON ALIGN(a.ts_usec, t.ts_usec, 100) WHERE a.req_id = t.req_id");
  EXPECT_EQ(missed.row_count(), 0u);
}

TEST_F(SqlEngineFixture, AlignJoinMatchesBruteForce) {
  // Full band join (no equality residual) vs a brute-force double loop.
  const std::int64_t tol = 2000;
  const Table sql = Sql::execute(
      db_,
      "SELECT a.ts_usec, t.ts_usec FROM ev_apache AS a JOIN ev_tomcat AS t "
      "ON ALIGN(a.ts_usec, t.ts_usec, 2000) WHERE a.ts_usec < 50000");
  std::size_t expected = 0;
  for (RowCursor ac = apache().scan(); ac.next();) {
    const auto at = as_int(ac.row()[1]);
    if (!at || *at >= 50000) continue;
    for (RowCursor tc = tomcat().scan(); tc.next();) {
      const auto tt = as_int(tc.row()[1]);
      if (tt && std::abs(*at - *tt) <= tol) ++expected;
    }
  }
  EXPECT_EQ(sql.row_count(), expected);
  EXPECT_GT(expected, 0u);
}

// --- the new grammar ---------------------------------------------------------

TEST_F(SqlEngineFixture, BetweenAndIn) {
  const Table between = Sql::execute(
      db_, "SELECT * FROM ev_apache WHERE ts_usec BETWEEN 1000000 AND 1004000");
  EXPECT_EQ(between.row_count(), 5u);  // inclusive both ends, 1-msec spacing
  const Table not_between = Sql::execute(
      db_,
      "SELECT * FROM ev_apache WHERE ts_usec NOT BETWEEN 1000 AND 5998000");
  std::size_t expected = 0;
  for (RowCursor cur = apache().scan(); cur.next();) {
    const auto t = *as_int(cur.row()[1]);
    if (!(t >= 1000 && t <= 5998000)) ++expected;
  }
  EXPECT_EQ(not_between.row_count(), expected);

  const Table in = Sql::execute(
      db_,
      "SELECT * FROM ev_apache WHERE url IN "
      "('/rubbos/ViewStory', '/rubbos/StoreComment')");
  EXPECT_EQ(in.row_count(), 3000u);
  const Table not_in = Sql::execute(
      db_,
      "SELECT * FROM ev_apache WHERE url NOT IN "
      "('/rubbos/ViewStory', '/rubbos/StoreComment')");
  EXPECT_EQ(not_in.row_count(), 3000u);
}

TEST_F(SqlEngineFixture, OrAndNot) {
  const Table r = Sql::execute(
      db_,
      "SELECT * FROM ev_apache WHERE ts_usec < 2000 OR ts_usec >= 5998000");
  EXPECT_EQ(r.row_count(), 4u);  // {0,1} and {5998,5999}
  const Table n = Sql::execute(
      db_,
      "SELECT * FROM ev_apache WHERE NOT (ts_usec >= 2000 AND "
      "ts_usec < 5998000)");
  EXPECT_EQ(n.row_count(), 4u);
}

TEST_F(SqlEngineFixture, SelectAliasesAndArithmetic) {
  const Table r = Sql::execute(
      db_,
      "SELECT req_id AS id, rt_ms + 1 AS padded FROM ev_apache "
      "WHERE ts_usec = 0");
  ASSERT_EQ(r.row_count(), 1u);
  EXPECT_EQ(r.schema()[0].name, "id");
  EXPECT_EQ(r.schema()[1].name, "padded");
  const double rt = *as_double(apache().at(0, 2));
  EXPECT_NEAR(*as_double(r.at(0, 1)), rt + 1.0, 1e-12);
}

TEST_F(SqlEngineFixture, GroupByPlainColumn) {
  const Table r = Sql::execute(
      db_,
      "SELECT url, COUNT(*) FROM ev_apache GROUP BY url ORDER BY url");
  ASSERT_EQ(r.row_count(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(std::get<std::int64_t>(r.at(i, 1)), 1500);
  }
  // Keys come back ascending.
  EXPECT_LT(as_text(r.at(0, 0)), as_text(r.at(3, 0)));
}

TEST_F(SqlEngineFixture, OrderByAggregateAlias) {
  const Table r = Sql::execute(
      db_,
      "SELECT url, MAX(rt_ms) AS peak FROM ev_apache GROUP BY url "
      "ORDER BY peak DESC LIMIT 1");
  ASSERT_EQ(r.row_count(), 1u);
  double best = 0;
  for (RowCursor cur = apache().scan(); cur.next();) {
    best = std::max(best, *as_double(cur.row()[2]));
  }
  EXPECT_DOUBLE_EQ(*as_double(r.at(0, 1)), best);
}

TEST_F(SqlEngineFixture, ExplainReportsPlanAndPushdown) {
  (void)apache().time_index("ts_usec");  // warm, so the planner can use it
  const Table plan = Sql::execute(
      db_,
      "EXPLAIN SELECT COUNT(*) FROM ev_apache "
      "WHERE ts_usec >= 1000000 AND ts_usec < 2000000");
  ASSERT_GT(plan.row_count(), 0u);
  ASSERT_EQ(plan.column_count(), 1u);
  std::string all;
  for (RowCursor cur = plan.scan(); cur.next();) {
    all += as_text(cur.row()[0]);
    all += '\n';
  }
  EXPECT_NE(all.find("Scan ev_apache"), std::string::npos) << all;
  EXPECT_NE(all.find("pushed:"), std::string::npos) << all;
  EXPECT_NE(all.find("time-index"), std::string::npos) << all;
  EXPECT_NE(all.find("rows="), std::string::npos) << all;
  EXPECT_NE(all.find("HashAggregate"), std::string::npos) << all;
}

TEST_F(SqlEngineFixture, TimeIndexPushdownMatchesScan) {
  (void)apache().time_index("ts_usec");
  const Table indexed = Sql::execute(
      db_,
      "SELECT COUNT(*) FROM ev_apache WHERE ts_usec >= 1500000 AND "
      "ts_usec < 3250000");
  std::int64_t scanned = 0;
  for (RowCursor cur = apache().scan(); cur.next();) {
    const auto t = as_int(cur.row()[1]);
    if (t && *t >= 1500000 && *t < 3250000) ++scanned;
  }
  EXPECT_EQ(std::get<std::int64_t>(indexed.at(0, 0)), scanned);
}

// --- property test: random predicates vs a row-at-a-time oracle --------------

struct RandomPredicate {
  std::size_t col;
  std::string col_name;
  int op;  // 0 = < 1 <= 2 > 3 >= 4 = 5 !=
  Value literal;

  [[nodiscard]] std::string to_sql() const {
    static const char* kOps[] = {"<", "<=", ">", ">=", "=", "!="};
    std::string lit;
    if (const auto d = as_double(literal); d && !std::holds_alternative<TextRef>(literal)) {
      lit = value_to_string(literal);
    } else {
      lit = "'" + value_to_string(literal) + "'";
    }
    return col_name + " " + kOps[op] + " " + lit;
  }

  [[nodiscard]] bool matches(const Value& v) const {
    if (is_null(v)) return false;  // dialect: NULLs never match vs non-NULL
    const int c = compare(v, literal);
    switch (op) {
      case 0: return c < 0;
      case 1: return c <= 0;
      case 2: return c > 0;
      case 3: return c >= 0;
      case 4: return c == 0;
      default: return c != 0;
    }
  }
};

TEST_F(SqlEngineFixture, PropertyRandomPredicatesMatchOracle) {
  util::Rng rng(2024);
  const Table& t = apache();
  for (int iter = 0; iter < 200; ++iter) {
    // 1-2 conjuncts over random columns with data-driven literals.
    const int n_conj = 1 + static_cast<int>(rng.next_below(2));
    std::vector<RandomPredicate> preds;
    for (int k = 0; k < n_conj; ++k) {
      RandomPredicate p;
      p.col = rng.next_below(4);
      p.col_name = t.schema()[p.col].name;
      p.op = static_cast<int>(rng.next_below(6));
      // Literal sampled from the column itself so selectivity varies. A
      // double literal is round-tripped through its SQL text form so the
      // oracle compares against exactly what the parser will see.
      const std::size_t row = rng.next_below(t.row_count());
      p.literal = t.at(row, p.col);
      if (std::holds_alternative<double>(p.literal)) {
        p.literal = Value{std::stod(value_to_string(p.literal))};
      }
      preds.push_back(std::move(p));
    }
    std::string sql = "SELECT req_id FROM ev_apache WHERE ";
    for (std::size_t k = 0; k < preds.size(); ++k) {
      if (k) sql += " AND ";
      sql += preds[k].to_sql();
    }
    const bool with_limit = rng.chance(0.3);
    const std::size_t limit = 1 + rng.next_below(100);
    if (with_limit) sql += " LIMIT " + std::to_string(limit);

    const Table got = Sql::execute(db_, sql);

    // Row-at-a-time oracle over the same dialect semantics.
    std::vector<std::string> want;
    for (RowCursor cur = t.scan(); cur.next();) {
      bool ok = true;
      for (const auto& p : preds) ok = ok && p.matches(cur.row()[p.col]);
      if (ok) want.push_back(value_to_string(cur.row()[0]));
      if (with_limit && want.size() == limit) break;
    }
    ASSERT_EQ(got.row_count(), want.size()) << sql;
    for (std::size_t r = 0; r < want.size(); ++r) {
      ASSERT_EQ(value_to_string(got.at(r, 0)), want[r]) << sql;
    }
  }
}

// --- fuzz-ish robustness -----------------------------------------------------

// Every query the engine is fed must either execute or throw
// std::invalid_argument / std::out_of_range — no crash, no other exception.
void expect_no_crash(const db::Database& db, const std::string& sql) {
  try {
    (void)Sql::execute(db, sql);
  } catch (const std::invalid_argument&) {
  } catch (const std::out_of_range&) {
  } catch (const std::exception& e) {
    FAIL() << "unexpected exception type for: " << sql << " -- " << e.what();
  }
}

TEST_F(SqlEngineFixture, FuzzPrefixTruncations) {
  const std::string queries[] = {
      "SELECT BUCKET(ts_usec, 1000000), COUNT(*), AVG(rt_ms) FROM ev_apache "
      "WHERE url LIKE '%Story%' GROUP BY BUCKET(ts_usec, 1000000) "
      "ORDER BY count DESC LIMIT 5",
      "EXPLAIN SELECT a.req_id, t.svc_ms FROM ev_apache AS a JOIN ev_tomcat "
      "AS t ON ALIGN(a.ts_usec, t.ts_usec, 150) WHERE a.rt_ms BETWEEN 1 AND "
      "20 AND t.req_id NOT IN ('ID0', 'ID3')",
      "SELECT url, COUNT(*) FROM ev_apache WHERE NOT (ts_usec < 10 OR "
      "rt_ms != NULL) GROUP BY url",
  };
  for (const auto& q : queries) {
    for (std::size_t len = 0; len <= q.size(); ++len) {
      expect_no_crash(db_, q.substr(0, len));
    }
  }
}

TEST_F(SqlEngineFixture, FuzzGarbageInput) {
  util::Rng rng(99);
  const std::string alphabet =
      "SELECT FROM WHERE GROUP BY ORDER JOIN ON AS IN LIKE AND OR NOT "
      "BETWEEN LIMIT BUCKET ALIGN COUNT ev_apache req_id ts_usec rt_ms url "
      "()*,.'%_<>=!-+0123456789  \t\n";
  for (int iter = 0; iter < 500; ++iter) {
    const std::size_t len = rng.next_below(80);
    std::string q;
    for (std::size_t i = 0; i < len; ++i) {
      q += alphabet[rng.next_below(alphabet.size())];
    }
    expect_no_crash(db_, q);
  }
}

TEST_F(SqlEngineFixture, ErrorsCarryPositionAndSnippet) {
  try {
    (void)Sql::execute(db_, "SELECT * FROM ev_apache WHERE url LIKE 5");
    FAIL() << "expected SqlError";
  } catch (const sqlengine::SqlError& e) {
    EXPECT_NE(std::string(e.what()).find("position"), std::string::npos);
    const std::string snippet =
        sqlengine::error_snippet("SELECT * FROM ev_apache WHERE url LIKE 5",
                                 e.pos());
    EXPECT_NE(snippet.find('^'), std::string::npos);
  }
}

// --- property test: every materializing operator vs a row oracle ------------

using Rows = std::vector<std::vector<Value>>;

Rows rows_in_order(const Table& t) {
  Rows out;
  for (RowCursor cur = t.scan(); cur.next();) out.push_back(cur.row());
  return out;
}

/// Same rows in the same order, cell by cell: same type, equal value.
void expect_rows(const Table& got, const Rows& want, const std::string& sql) {
  SCOPED_TRACE(sql);
  ASSERT_EQ(got.row_count(), want.size());
  std::size_t r = 0;
  for (RowCursor cur = got.scan(); cur.next(); ++r) {
    ASSERT_EQ(cur.row().size(), want[r].size());
    for (std::size_t c = 0; c < want[r].size(); ++c) {
      const Value& g = cur.row()[c];
      const Value& w = want[r][c];
      if (type_of(g) != type_of(w) || (!is_null(w) && compare(g, w) != 0)) {
        FAIL() << "row " << r << ", column " << c << ": got '"
               << value_to_string(g) << "', want '" << value_to_string(w)
               << "'";
      }
    }
  }
}

/// Stable sort of `rows` by the given (column, ascending) keys under
/// db::compare, as ORDER BY defines it.
void oracle_sort(Rows& rows,
                 const std::vector<std::pair<std::size_t, bool>>& keys) {
  std::stable_sort(rows.begin(), rows.end(),
                   [&](const std::vector<Value>& a,
                       const std::vector<Value>& b) {
                     for (const auto& [col, asc] : keys) {
                       const int c = compare(a[col], b[col]);
                       if (c != 0) return asc ? c < 0 : c > 0;
                     }
                     return false;
                   });
}

// Tables sealed every 100-300 rows (dozens of segments, each Text
// dictionary in its own first-use order, plus a tail), with NULLs and
// duplicates in every key: each query below runs a materializing operator
// (sort, hash join, ALIGN join, aggregate output, computed projection)
// whose output must equal RowCursor loops over the same rows.
TEST(SqlEngineProperty, MaterializingOperatorsMatchRowOracle) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    Database db;
    // l: k, d, lo, hi, ts_usec; r: k, v, name, ts_usec, tag.
    Table& l = db.create_table("l", {{"k", DataType::kInt},
                                     {"d", DataType::kDouble},
                                     {"lo", DataType::kText},
                                     {"hi", DataType::kText},
                                     {"ts_usec", DataType::kInt}});
    Table& r = db.create_table("r", {{"k", DataType::kInt},
                                     {"v", DataType::kDouble},
                                     {"name", DataType::kText},
                                     {"ts_usec", DataType::kInt},
                                     {"tag", DataType::kText}});
    const auto seal_rows = 100 + rng.next_below(200);
    l.set_storage_config({.seal_rows = seal_rows, .partition_usec = 0});
    r.set_storage_config({.seal_rows = seal_rows + 7, .partition_usec = 0});
    const auto maybe = [&rng](Value v) {
      return rng.next_below(20) == 0 ? Value{} : v;
    };
    const char* lows[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
    // "<prefix><n>", appended: GCC 12 -Wrestrict misfires on "x" + string.
    const auto label = [](char prefix, std::uint64_t n) {
      std::string s(1, prefix);
      s += std::to_string(n);
      return s;
    };
    // 9001 and 3001 are prime: neither table ends on a seal.
    for (std::int64_t i = 0; i < 9001; ++i) {
      l.insert({maybe(Value{static_cast<std::int64_t>(rng.next_below(1500))}),
                maybe(Value{100.0 * rng.next_double() - 50.0}),
                maybe(Value{std::string(lows[rng.next_below(5)])}),
                maybe(Value{label('h', rng.next_below(8000))}),
                maybe(Value{1000 * i + static_cast<std::int64_t>(
                                           rng.next_below(1000))})});
    }
    for (std::int64_t i = 0; i < 3001; ++i) {
      r.insert({maybe(Value{static_cast<std::int64_t>(rng.next_below(1500))}),
                maybe(Value{100.0 * rng.next_double() - 50.0}),
                maybe(Value{label('n', rng.next_below(300))}),
                maybe(Value{3000 * i + static_cast<std::int64_t>(
                                           rng.next_below(3000))}),
                maybe(Value{label('t', rng.next_below(4))})});
    }
    ASSERT_GT(l.storage().segments().size(), 24u);
    ASSERT_LT(l.storage().sealed_row_count(), l.row_count());
    ASSERT_LT(r.storage().sealed_row_count(), r.row_count());
    const Rows lrows = rows_in_order(l);
    const Rows rrows = rows_in_order(r);

    // Two-key ORDER BY (Text DESC, Int ASC; ties keep input order) past
    // 4,096 output rows, then the same query with LIMIT.
    Rows sorted = lrows;
    oracle_sort(sorted, {{2, false}, {0, true}});
    Rows want;
    for (const auto& row : sorted) {
      want.push_back({row[2], row[0], row[1], row[3]});
    }
    const std::string order_by =
        "SELECT lo, k, d, hi FROM l ORDER BY lo DESC, k ASC";
    expect_rows(Sql::execute(db, order_by), want, order_by);
    want.resize(37);
    expect_rows(Sql::execute(db, order_by + " LIMIT 37"), want,
                order_by + " LIMIT 37");

    // Equality join: per left row in order, the build rows with an equal
    // non-NULL key in insertion order (the right side filtered first).
    std::multimap<std::int64_t, const std::vector<Value>*> by_key;
    for (const auto& rr : rrows) {
      if (!is_null(rr[0])) by_key.emplace(*as_int(rr[0]), &rr);
    }
    const auto matches = [&by_key](const std::vector<Value>& lr) {
      std::vector<const std::vector<Value>*> out;
      if (is_null(lr[0])) return out;
      const auto [lo, hi] = by_key.equal_range(*as_int(lr[0]));
      for (auto it = lo; it != hi; ++it) out.push_back(it->second);
      return out;
    };
    want.clear();
    for (const auto& lr : lrows) {
      for (const auto* rr : matches(lr)) {
        const auto v = as_double((*rr)[1]);
        if (v && *v > 0) want.push_back({lr[0], lr[3], (*rr)[2], (*rr)[1]});
      }
    }
    const std::string join =
        "SELECT l.k, l.hi, r.name, r.v FROM l JOIN r ON l.k = r.k "
        "WHERE r.v > 0";
    expect_rows(Sql::execute(db, join), want, join);

    // Text comparisons above the join run on the drained build side, whose
    // dictionary repeats a string once per segment that holds it.
    want.clear();
    for (const auto& lr : lrows) {
      for (const auto* rr : matches(lr)) {
        const Value& name = (*rr)[2];
        const std::int64_t k = *as_int(lr[0]);
        const bool n7 = !is_null(name) && as_text(name) == "n7";
        const bool n8 = !is_null(name) && as_text(name) == "n8";
        if ((n7 || k < 20) && ((!is_null(name) && !n8) || k > 1400)) {
          want.push_back({lr[0], name});
        }
      }
    }
    const std::string residual =
        "SELECT l.k, r.name FROM l JOIN r ON l.k = r.k WHERE "
        "(r.name = 'n7' OR l.k < 20) AND (r.name != 'n8' OR l.k > 1400)";
    expect_rows(Sql::execute(db, residual), want, residual);

    // The same on the low-cardinality tag (a dictionary smaller than the
    // batch, each string in it once per build segment) and through IN and
    // LIKE; every clause names both sides, so none moves below the join.
    // NULLs match nothing.
    want.clear();
    for (const auto& lr : lrows) {
      for (const auto* rr : matches(lr)) {
        const Value& name = (*rr)[2];
        const Value& tag = (*rr)[4];
        const std::int64_t k = *as_int(lr[0]);
        const std::string n = is_null(name) ? "" : as_text(name);
        const std::string t = is_null(tag) ? "" : as_text(tag);
        const bool t1 = t == "t1";
        const bool not_t2 = !is_null(tag) && t != "t2";
        const bool in_t0_t3 = t == "t0" || t == "t3";
        const bool n1_prefix = n.starts_with("n1");
        const bool no_5_suffix = !is_null(name) && !n.ends_with("5");
        if ((t1 || k < 300) && (not_t2 || k > 1400) && (in_t0_t3 || k < 100) &&
            (n1_prefix || no_5_suffix || k > 1450)) {
          want.push_back({lr[0], name, tag});
        }
      }
    }
    const std::string residual_tag =
        "SELECT l.k, r.name, r.tag FROM l JOIN r ON l.k = r.k WHERE "
        "(r.tag = 't1' OR l.k < 300) AND (r.tag != 't2' OR l.k > 1400) AND "
        "(r.tag IN ('t0', 't3') OR l.k < 100) AND "
        "(r.name LIKE 'n1%' OR r.name NOT LIKE '%5' OR l.k > 1450)";
    expect_rows(Sql::execute(db, residual_tag), want, residual_tag);

    // ORDER BY a build-side Text column above the join: the sort drains
    // output batches that all share the build side's dictionary.
    want.clear();
    for (const auto& lr : lrows) {
      for (const auto* rr : matches(lr)) {
        want.push_back({(*rr)[2], lr[0], lr[3]});
      }
    }
    oracle_sort(want, {{0, false}});
    const std::string join_order =
        "SELECT r.name, l.k, l.hi FROM l JOIN r ON l.k = r.k "
        "ORDER BY r.name DESC";
    expect_rows(Sql::execute(db, join_order), want, join_order);

    // ALIGN join: the build rows within +/- 1500 usec, in insertion order.
    want.clear();
    for (const auto& lr : lrows) {
      const auto lt = as_int(lr[4]);
      if (!lt || *lt >= 3'000'000) continue;
      for (const auto& rr : rrows) {
        const auto rt = as_int(rr[3]);
        if (rt && std::abs(*lt - *rt) <= 1500) {
          want.push_back({lr[4], lr[2], rr[3], rr[2]});
        }
      }
    }
    const std::string align =
        "SELECT l.ts_usec, l.lo, r.ts_usec, r.name FROM l JOIN r "
        "ON ALIGN(l.ts_usec, r.ts_usec, 1500) WHERE l.ts_usec < 3000000";
    expect_rows(Sql::execute(db, align), want, align);

    // GROUP BY the high-cardinality Text key (more than 4,096 groups, NULL
    // first), ordered by an aggregate: ties keep ascending key order.
    struct Group {
      std::int64_t n = 0;
      util::RunningStats d;
    };
    const auto less = [](const Value& a, const Value& b) {
      return compare(a, b) < 0;
    };
    std::map<Value, Group, decltype(less)> groups(less);
    for (const auto& row : lrows) {
      Group& g = groups[row[3]];
      ++g.n;
      if (const auto d = as_double(row[1])) g.d.add(*d);
    }
    ASSERT_GT(groups.size(), 4096u);
    want.clear();
    for (const auto& [key, g] : groups) {
      want.push_back({key, Value{g.n}, Value{g.d.min()}, Value{g.d.max()},
                      Value{g.d.mean()}});
    }
    oracle_sort(want, {{1, false}});
    const std::string group_by =
        "SELECT hi, COUNT(*) AS n, MIN(d) AS mn, MAX(d) AS mx, AVG(d) AS av "
        "FROM l GROUP BY hi ORDER BY n DESC";
    expect_rows(Sql::execute(db, group_by), want, group_by);

    // Computed projection over a filtered scan (selection vectors).
    want.clear();
    for (const auto& row : lrows) {
      const auto d = as_double(row[1]);
      if (!d || *d <= 0) continue;
      const auto k = as_int(row[0]);
      const auto ts = as_int(row[4]);
      want.push_back({k ? Value{*k + 1} : Value{}, Value{*d / 2},
                      k ? Value{-*k} : Value{},
                      k && ts ? Value{*ts - *k} : Value{}, Value{"tag"},
                      row[2]});
    }
    const std::string computed =
        "SELECT k + 1, d / 2, -k, ts_usec - k, 'tag', lo FROM l WHERE d > 0";
    expect_rows(Sql::execute(db, computed), want, computed);
  }
}

TEST(SqlEngineSnippet, CaretPlacement) {
  EXPECT_EQ(sqlengine::error_snippet("SELECT", 0), "SELECT\n^");
  EXPECT_EQ(sqlengine::error_snippet("ab\ncd", 4), "cd\n ^");
  // Position past the end clamps to the end of the last line.
  EXPECT_EQ(sqlengine::error_snippet("ab", 10), "ab\n  ^");
}

}  // namespace
}  // namespace mscope::db
