#include <gtest/gtest.h>

#include "db/database.h"
#include "db/sql.h"
#include "db/table.h"
#include "db/value.h"

namespace mscope::db {
namespace {

TEST(Value, TypeOfAndNull) {
  EXPECT_EQ(type_of(Value{}), DataType::kNull);
  EXPECT_EQ(type_of(Value{std::int64_t{1}}), DataType::kInt);
  EXPECT_EQ(type_of(Value{1.5}), DataType::kDouble);
  EXPECT_EQ(type_of(Value{std::string("x")}), DataType::kText);
  EXPECT_TRUE(is_null(Value{}));
  EXPECT_FALSE(is_null(Value{std::int64_t{0}}));
}

TEST(Value, WidenIsLatticeJoin) {
  EXPECT_EQ(widen(DataType::kNull, DataType::kInt), DataType::kInt);
  EXPECT_EQ(widen(DataType::kInt, DataType::kDouble), DataType::kDouble);
  EXPECT_EQ(widen(DataType::kDouble, DataType::kText), DataType::kText);
  EXPECT_EQ(widen(DataType::kInt, DataType::kInt), DataType::kInt);
}

TEST(Value, InferTypeNarrowest) {
  EXPECT_EQ(infer_type(""), DataType::kNull);
  EXPECT_EQ(infer_type("  42 "), DataType::kInt);
  EXPECT_EQ(infer_type("-4.25"), DataType::kDouble);
  EXPECT_EQ(infer_type("1e3"), DataType::kDouble);
  EXPECT_EQ(infer_type("abc"), DataType::kText);
  EXPECT_EQ(infer_type("12ab"), DataType::kText);
}

TEST(Value, ParseAsRespectsType) {
  EXPECT_EQ(std::get<std::int64_t>(*parse_as("7", DataType::kInt)), 7);
  EXPECT_DOUBLE_EQ(std::get<double>(*parse_as("7", DataType::kDouble)), 7.0);
  EXPECT_EQ(as_text(*parse_as("7", DataType::kText)), "7");
  EXPECT_TRUE(is_null(*parse_as("", DataType::kInt)));
  EXPECT_FALSE(parse_as("x", DataType::kInt));
}

TEST(Value, ToStringRoundTripsDoubles) {
  for (const double d : {1.5, 0.1, 3.14159265358979, 1e-9, 12345678.9}) {
    const Value v{d};
    EXPECT_DOUBLE_EQ(std::get<double>(*parse_as(value_to_string(v),
                                                DataType::kDouble)),
                     d);
  }
}

TEST(Value, CompareTotalOrder) {
  EXPECT_LT(compare(Value{}, Value{std::int64_t{0}}), 0);  // NULL first
  EXPECT_EQ(compare(Value{std::int64_t{2}}, Value{2.0}), 0);
  EXPECT_LT(compare(Value{std::int64_t{1}}, Value{std::string("a")}), 0);
  EXPECT_LT(compare(Value{std::string("a")}, Value{std::string("b")}), 0);
}

Schema basic_schema() {
  return {{"t", DataType::kInt},
          {"v", DataType::kDouble},
          {"name", DataType::kText}};
}

TEST(Table, RejectsBadSchemas) {
  EXPECT_THROW(Table("x", {}), std::invalid_argument);
  EXPECT_THROW(Table("x", {{"a", DataType::kInt}, {"a", DataType::kInt}}),
               std::invalid_argument);
  EXPECT_THROW(Table("x", {{"", DataType::kInt}}), std::invalid_argument);
}

TEST(Table, InsertValidatesArityAndTypes) {
  Table t("x", basic_schema());
  t.insert({Value{std::int64_t{1}}, Value{2.5}, Value{std::string("a")}});
  t.insert({Value{}, Value{}, Value{}});  // all-NULL row ok
  // Int widens into a Double column.
  t.insert({Value{std::int64_t{1}}, Value{std::int64_t{2}},
            Value{std::string("b")}});
  EXPECT_DOUBLE_EQ(std::get<double>(t.at(2, "v")), 2.0);
  EXPECT_THROW(t.insert({Value{std::int64_t{1}}}), std::invalid_argument);
  EXPECT_THROW(t.insert({Value{std::string("no")}, Value{}, Value{}}),
               std::invalid_argument);
  EXPECT_EQ(t.row_count(), 3u);
}

TEST(Table, ColumnLookup) {
  Table t("x", basic_schema());
  EXPECT_EQ(t.column_index("v"), 1u);
  EXPECT_FALSE(t.column_index("nope"));
  t.insert({Value{std::int64_t{1}}, Value{2.0}, Value{std::string("a")}});
  EXPECT_THROW((void)t.at(0, "nope"), std::out_of_range);
}

TEST(Database, StaticTablesExistAndAreProtected) {
  Database db;
  EXPECT_TRUE(db.exists(Database::kExperimentTable));
  EXPECT_TRUE(db.exists(Database::kNodeTable));
  EXPECT_TRUE(db.exists(Database::kDeploymentTable));
  EXPECT_TRUE(db.exists(Database::kLoadCatalogTable));
  EXPECT_FALSE(db.drop(Database::kNodeTable));
  EXPECT_TRUE(db.exists(Database::kNodeTable));
}

TEST(Database, DynamicCreateDropDuplicate) {
  Database db;
  db.create_table("dyn", basic_schema());
  EXPECT_THROW(db.create_table("dyn", basic_schema()),
               std::invalid_argument);
  EXPECT_TRUE(db.drop("dyn"));
  EXPECT_FALSE(db.drop("dyn"));
  EXPECT_THROW(db.get("dyn"), std::out_of_range);
}

TEST(Database, MetadataWriters) {
  Database db;
  db.record_experiment("r1", "test", 1000, 30);
  db.record_node("web1", "apache", 4);
  db.record_deployment("web1", "SAR", "sar_cpu.log", 50000);
  db.record_load("web1/x.log", "t_x", 10, 0, 99);
  EXPECT_EQ(db.get(Database::kExperimentTable).row_count(), 1u);
  EXPECT_EQ(db.get(Database::kNodeTable).row_count(), 1u);
  EXPECT_EQ(db.get(Database::kDeploymentTable).row_count(), 1u);
  EXPECT_EQ(db.get(Database::kLoadCatalogTable).row_count(), 1u);
}

// The fixture table behind the ad-hoc queries researchers run through
// mScopeSQL (paper Section III-C's "uniform interface").
class QueryFixture : public ::testing::Test {
 protected:
  QueryFixture() {
    Table& t = db_.create_table("m", basic_schema());
    for (int i = 0; i < 100; ++i) {
      t.insert({Value{std::int64_t{i * 10}},
                Value{static_cast<double>(i % 7)},
                Value{std::string(i % 2 ? "odd" : "even")}});
    }
  }

  [[nodiscard]] Table sql(const std::string& q) const {
    return Sql::execute(db_, q);
  }
  [[nodiscard]] std::int64_t count(const std::string& where) const {
    return std::get<std::int64_t>(
        sql("SELECT COUNT(*) FROM m WHERE " + where).at(0, 0));
  }

  Database db_;
};

TEST_F(QueryFixture, WhereEqAndCount) {
  EXPECT_EQ(count("name = 'odd'"), 50);
}

TEST_F(QueryFixture, TimeRangeHalfOpen) {
  EXPECT_EQ(count("t >= 100 AND t < 200"), 10);
  EXPECT_EQ(count("t >= 0 AND t < 10"), 1);
}

TEST_F(QueryFixture, ProjectAndRun) {
  const Table r = sql("SELECT name, t FROM m WHERE t >= 0 AND t < 50");
  EXPECT_EQ(r.column_count(), 2u);
  EXPECT_EQ(r.schema()[0].name, "name");
  EXPECT_EQ(r.row_count(), 5u);
}

TEST_F(QueryFixture, OrderByAndLimit) {
  const Table r = sql("SELECT * FROM m ORDER BY t DESC LIMIT 3");
  ASSERT_EQ(r.row_count(), 3u);
  EXPECT_EQ(std::get<std::int64_t>(r.at(0, "t")), 990);
  EXPECT_EQ(std::get<std::int64_t>(r.at(2, "t")), 970);
}

TEST_F(QueryFixture, SeriesIsTimeOrdered) {
  const Table s = sql("SELECT t, v FROM m ORDER BY t");
  ASSERT_EQ(s.row_count(), 100u);
  for (std::size_t i = 1; i < s.row_count(); ++i) {
    EXPECT_LE(compare(s.at(i - 1, 0), s.at(i, 0)), 0);
  }
}

TEST_F(QueryFixture, GroupByBucketAggregates) {
  const Table g = sql(
      "SELECT BUCKET(t, 100), COUNT(*), AVG(v), MAX(v) FROM m "
      "GROUP BY BUCKET(t, 100)");
  ASSERT_EQ(g.row_count(), 10u);  // 1000 usec span / 100
  EXPECT_EQ(std::get<std::int64_t>(g.at(0, "count")), 10);
  EXPECT_GT(std::get<double>(g.at(0, "max_v")), 0.0);
  EXPECT_THROW((void)sql("SELECT COUNT(*) FROM m GROUP BY BUCKET(t, 0)"),
               std::invalid_argument);
}

TEST_F(QueryFixture, AggregateScalars) {
  const Table r = sql("SELECT COUNT(*), MAX(t), MIN(t) FROM m");
  EXPECT_EQ(std::get<std::int64_t>(r.at(0, 0)), 100);
  EXPECT_DOUBLE_EQ(*as_double(r.at(0, 1)), 990.0);
  EXPECT_DOUBLE_EQ(*as_double(r.at(0, 2)), 0.0);
}

TEST_F(QueryFixture, UnknownColumnThrows) {
  EXPECT_THROW((void)sql("SELECT * FROM m WHERE nope = 1"), std::out_of_range);
  EXPECT_THROW((void)sql("SELECT t, nope FROM m"), std::out_of_range);
}

TEST(QueryJoin, InnerJoinOnKeys) {
  Database db;
  Table& a = db.create_table("a", {{"id", DataType::kText},
                                   {"x", DataType::kInt}});
  Table& b = db.create_table("b", {{"rid", DataType::kText},
                                   {"y", DataType::kInt}});
  a.insert({Value{std::string("k1")}, Value{std::int64_t{1}}});
  a.insert({Value{std::string("k2")}, Value{std::int64_t{2}}});
  a.insert({Value{}, Value{std::int64_t{3}}});  // NULL key never joins
  b.insert({Value{std::string("k1")}, Value{std::int64_t{10}}});
  b.insert({Value{std::string("k1")}, Value{std::int64_t{11}}});
  b.insert({Value{std::string("k3")}, Value{std::int64_t{12}}});
  const Table j =
      Sql::execute(db, "SELECT a.x, b.y FROM a JOIN b ON a.id = b.rid");
  ASSERT_EQ(j.row_count(), 2u);  // k1 matches twice, k2/k3/NULL none
  for (std::size_t r = 0; r < j.row_count(); ++r) {
    EXPECT_EQ(std::get<std::int64_t>(j.at(r, 0)), 1);
    EXPECT_EQ(std::get<std::int64_t>(j.at(r, 1)), 10 + static_cast<int>(r));
  }
  EXPECT_THROW(
      (void)Sql::execute(db, "SELECT * FROM a JOIN b ON a.nope = b.rid"),
      std::out_of_range);
}

}  // namespace
}  // namespace mscope::db
