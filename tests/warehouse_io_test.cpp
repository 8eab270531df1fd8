#include "transform/warehouse_io.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "scratch_dir.h"

namespace mscope::transform {
namespace {

namespace fs = std::filesystem;

class WarehouseIoFixture : public ::testing::Test {
 protected:
  WarehouseIoFixture()
      : dir_(test::scratch_dir("warehouse_io")) {
    fs::remove_all(dir_);
  }
  ~WarehouseIoFixture() override { fs::remove_all(dir_); }

  static db::Database make_db() { return {}; }

  fs::path dir_;
};

TEST_F(WarehouseIoFixture, SaveLoadRoundTrip) {
  db::Database db;
  auto& t = db.create_table("res_x_web1", {{"ts_usec", db::DataType::kInt},
                                           {"v", db::DataType::kDouble},
                                           {"tag", db::DataType::kText}});
  t.insert({db::Value{std::int64_t{100}}, db::Value{1.25},
            db::Value{std::string("a,\"b\"\nc")}});
  t.insert({db::Value{}, db::Value{}, db::Value{}});
  db.record_node("web1", "apache", 4);

  WarehouseIO::save_snapshot(db, dir_);
  EXPECT_TRUE(fs::exists(dir_ / "res_x_web1.mseg"));

  db::Database restored;
  const auto loaded = WarehouseIO::load_snapshot(restored, dir_);
  EXPECT_EQ(loaded.size(), 5u);  // 4 static + 1 dynamic
  const db::Table& rt = restored.get("res_x_web1");
  ASSERT_EQ(rt.row_count(), 2u);
  EXPECT_EQ(std::get<std::int64_t>(rt.at(0, "ts_usec")), 100);
  EXPECT_DOUBLE_EQ(std::get<double>(rt.at(0, "v")), 1.25);
  EXPECT_EQ(db::as_text(rt.at(0, "tag")), "a,\"b\"\nc");
  EXPECT_TRUE(db::is_null(rt.at(1, "v")));
  EXPECT_EQ(restored.get(db::Database::kNodeTable).row_count(), 1u);
}

TEST_F(WarehouseIoFixture, LoadIntoPopulatedStaticTablesAppends) {
  db::Database db;
  db.record_node("web1", "apache", 4);
  WarehouseIO::save_snapshot(db, dir_);

  db::Database target;
  target.record_node("db1", "mysql", 8);
  WarehouseIO::load_snapshot(target, dir_);
  EXPECT_EQ(target.get(db::Database::kNodeTable).row_count(), 2u);
}

TEST_F(WarehouseIoFixture, MissingDirectoryThrows) {
  db::Database db;
  EXPECT_THROW((void)WarehouseIO::load_snapshot(db, dir_ / "nope"),
               std::invalid_argument);
}

TEST_F(WarehouseIoFixture, DuplicateDynamicTableThrows) {
  db::Database db;
  db.create_table("dyn", {{"a", db::DataType::kInt}});
  WarehouseIO::save_snapshot(db, dir_);
  db::Database target;
  target.create_table("dyn", {{"a", db::DataType::kInt}});
  EXPECT_THROW((void)WarehouseIO::load_snapshot(target, dir_),
               std::invalid_argument);
}

}  // namespace
}  // namespace mscope::transform
