#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "obs/metrics.h"
#include "oracle/xml_to_csv.h"
#include "scratch_dir.h"
#include "transform/pipeline.h"

namespace mscope::transform {
namespace {

namespace fs = std::filesystem;

XmlNode make_logfile(std::vector<std::vector<std::pair<std::string, std::string>>>
                         entries) {
  XmlNode root;
  root.name = "logfile";
  root.set_attribute("source", "test");
  root.set_attribute("node", "web1");
  root.set_attribute("file", "t.log");
  std::size_t n = 0;
  for (const auto& fields : entries) {
    XmlNode& e = root.add_child("log");
    e.set_attribute("n", std::to_string(++n));
    for (const auto& [k, v] : fields) {
      XmlNode& f = e.add_child("field");
      f.set_attribute("name", k);
      f.set_attribute("value", v);
    }
  }
  return root;
}

TEST(XmlToCsv, SchemaIsUnionInFirstAppearanceOrder) {
  const XmlNode root = make_logfile({
      {{"a", "1"}, {"b", "x"}},
      {{"c", "2.5"}, {"a", "2"}},
  });
  const Conversion c = XmlToCsvConverter::convert(root);
  ASSERT_EQ(c.schema.size(), 3u);
  EXPECT_EQ(c.schema[0].name, "a");
  EXPECT_EQ(c.schema[1].name, "b");
  EXPECT_EQ(c.schema[2].name, "c");
  ASSERT_EQ(c.rows.size(), 2u);
  EXPECT_EQ(c.rows[0][2], "");  // missing -> NULL
  EXPECT_EQ(c.rows[1][1], "");
}

TEST(XmlToCsv, NarrowestTypeBestMatch) {
  const XmlNode root = make_logfile({
      {{"i", "1"}, {"d", "1"}, {"t", "1"}},
      {{"i", "2"}, {"d", "2.5"}, {"t", "x"}},
  });
  const Conversion c = XmlToCsvConverter::convert(root);
  EXPECT_EQ(c.schema[0].type, db::DataType::kInt);
  EXPECT_EQ(c.schema[1].type, db::DataType::kDouble);
  EXPECT_EQ(c.schema[2].type, db::DataType::kText);
}

TEST(XmlToCsv, AllEmptyColumnBecomesText) {
  const XmlNode root = make_logfile({{{"e", ""}}});
  const Conversion c = XmlToCsvConverter::convert(root);
  EXPECT_EQ(c.schema[0].type, db::DataType::kText);
}

class PipelineFixture : public ::testing::Test {
 protected:
  PipelineFixture() : run_dir_(test::fresh_scratch_dir("pipeline")) {
    fs::create_directories(run_dir_ / "web1");
    fs::create_directories(run_dir_ / "db1");
  }
  ~PipelineFixture() override { fs::remove_all(run_dir_); }

  void write(const std::string& node, const std::string& file,
             const std::string& content) {
    std::ofstream out(run_dir_ / node / file);
    out << content;
  }

  // An instrumented Apache log on web1, an iostat log on db1, and a file no
  // declaration matches.
  void write_two_nodes() {
    write("web1", "apache_access.log",
          "10.0.0.2 - - [01/Jan/2017:00:00:01.000 +0000] "
          "\"GET /rubbos/ViewStory?ID=000000000001 HTTP/1.1\" 200 7000 5000 "
          "ua=1483228801000000 ud=1483228801005000 ds=1483228801001000 "
          "dr=1483228801004000\n");
    write("db1", "iostat.log",
          "Linux 3.10.0-mscope (db1)\t01/01/2017\t_x86_64_\t(4 CPU)\n\n"
          "00:00:01.000\n"
          "Device:            tps    kB_read/s    kB_wrtn/s   avgqu-sz    %util\n"
          "sda              12.00       320.00       128.00          3    43.00\n\n");
    write("web1", "unknown.dat", "binary stuff\n");
  }

  fs::path run_dir_;
};

TEST_F(PipelineFixture, EndToEndTwoNodes) {
  write_two_nodes();

  db::Database db;
  DataTransformer transformer;
  const auto report = transformer.run(run_dir_, db);

  EXPECT_EQ(report.tables_created, 2u);
  EXPECT_EQ(report.rows_loaded, 2u);
  EXPECT_EQ(report.skipped(), 1u);
  ASSERT_TRUE(db.exists("ev_apache_web1"));
  ASSERT_TRUE(db.exists("res_iostat_db1"));
  EXPECT_EQ(std::get<std::int64_t>(
                db.get("ev_apache_web1").at(0, "ua_usec")),
            util::sec(1));
  EXPECT_DOUBLE_EQ(
      std::get<double>(db.get("res_iostat_db1").at(0, "util_pct")), 43.0);
  // The load goes straight to the warehouse: no intermediate artifacts.
  EXPECT_FALSE(fs::exists(run_dir_ / "transformed"));
  // Deployment metadata recorded.
  EXPECT_EQ(db.get(db::Database::kDeploymentTable).row_count(), 2u);
}

TEST_F(PipelineFixture, ParallelRunMatchesSerial) {
  // Several files across two nodes; a 4-parse-worker run must produce a
  // warehouse identical to the serial one (tables are loaded serially in
  // file order).
  for (int i = 0; i < 3; ++i) {
    const std::string ts = "00:00:0" + std::to_string(i) + ".000";
    write("web1", "cjdbc_controller.log",
          "[" + ts + "] ID=00000000000" + std::to_string(i) +
              " vq=0 ua=1483228800000000 ud=1483228800001000 "
              "ds=1483228800000100 dr=1483228800000900 sql=\"SELECT 1\"\n");
  }
  write("web1", "apache_access.log",
        "10.0.0.2 - - [01/Jan/2017:00:00:01.000 +0000] "
        "\"GET /rubbos/Search HTTP/1.1\" 200 5000 2500\n");
  write("db1", "collectl.csv",
        "#Date,Time,[CPU]User%,[CPU]Sys%,[CPU]Wait%,[CPU]Idle%,[MEM]DirtyKB,"
        "[MEM]CachedKB,[DSK]ReadKBTot,[DSK]WriteKBTot,[DSK]PctUtil,"
        "[DSK]QueLen\n"
        "20170101,00:00:00.050,1.0,2.0,0.5,96.5,100,2048,10,20,3.0,0\n");

  db::Database serial_db, parallel_db;
  DataTransformer serial({.transform = {.parse_workers = 1}});
  DataTransformer parallel({.transform = {.parse_workers = 4}});
  const auto sr = serial.run(run_dir_, serial_db);
  const auto pr = parallel.run(run_dir_, parallel_db);
  EXPECT_EQ(sr.tables_created, pr.tables_created);
  EXPECT_EQ(sr.rows_loaded, pr.rows_loaded);
  ASSERT_EQ(sr.files.size(), pr.files.size());
  for (std::size_t i = 0; i < sr.files.size(); ++i) {
    EXPECT_EQ(sr.files[i].file, pr.files[i].file);
    EXPECT_EQ(sr.files[i].entries, pr.files[i].entries);
  }
  for (const auto& name : serial_db.table_names()) {
    const db::Table& a = serial_db.get(name);
    const db::Table* b = parallel_db.find(name);
    ASSERT_NE(b, nullptr) << name;
    ASSERT_EQ(a.row_count(), b->row_count()) << name;
    for (std::size_t r = 0; r < a.row_count(); ++r) {
      for (std::size_t c = 0; c < a.column_count(); ++c) {
        EXPECT_EQ(db::compare(a.at(r, c), b->at(r, c)), 0);
      }
    }
  }
}

TEST_F(PipelineFixture, ParsePassesMatchMatchedFiles) {
  // One parse pass per matched file: the batch load parses each file whole,
  // once, on its compiled scanner.
  write_two_nodes();
  const obs::Counter& fast =
      obs::Registry::global().counter("transform.parse.fast_passes");
  const std::uint64_t before = fast.get();
  db::Database db;
  const auto report = DataTransformer().run(run_dir_, db);
  std::uint64_t matched = 0;
  for (const auto& f : report.files) matched += f.matched ? 1 : 0;
  EXPECT_EQ(matched, 2u);
  EXPECT_EQ(fast.get() - before, matched);
}

TEST_F(PipelineFixture, TwoFilesOneTableThrows) {
  // Two declarations share a table prefix, so both web1 files would load
  // res_custom_web1: the run refuses instead of merging them.
  write("web1", "a.log", "7 hello\n8 world\n");
  write("web1", "b.log", "k=v\n");
  DataTransformer transformer;
  const auto declare = [&](const std::string& file, const std::string& regex,
                           std::vector<std::string> fields) {
    Declaration d;
    d.parser_id = "token_lines";
    d.file_name = file;
    d.source = "custom";
    d.table_prefix = "res_custom";
    d.monitor_name = "Custom";
    d.tokens.push_back({regex, std::move(fields)});
    transformer.declarations().add(std::move(d));
  };
  declare("a.log", R"((\d+) (\w+))", {"n", "word"});
  declare("b.log", R"((\w+)=(\w+))", {"k", "v"});
  db::Database db;
  EXPECT_THROW((void)transformer.run(run_dir_, db), std::invalid_argument);
}

TEST_F(PipelineFixture, SecondRunIntoOneDatabaseThrows) {
  // Loading the same logs twice must not append duplicate rows.
  write_two_nodes();
  db::Database db;
  DataTransformer transformer;
  (void)transformer.run(run_dir_, db);
  EXPECT_THROW((void)transformer.run(run_dir_, db), std::invalid_argument);
  EXPECT_EQ(db.get("ev_apache_web1").row_count(), 1u);
}

TEST_F(PipelineFixture, MissingDirectoryThrows) {
  db::Database db;
  DataTransformer transformer;
  EXPECT_THROW((void)transformer.run(run_dir_ / "nope", db),
               std::invalid_argument);
}

TEST_F(PipelineFixture, CustomDeclarationExtendsRegistry) {
  write("web1", "custom.log", "7 hello\n8 world\n");
  db::Database db;
  DataTransformer transformer;
  Declaration d;
  d.parser_id = "token_lines";
  d.file_name = "custom.log";
  d.source = "custom";
  d.table_prefix = "res_custom";
  d.monitor_name = "Custom";
  d.tokens.push_back({R"((\d+) (\w+))", {"n", "word"}});
  transformer.declarations().add(d);
  transformer.run(run_dir_, db);
  ASSERT_TRUE(db.exists("res_custom_web1"));
  EXPECT_EQ(db.get("res_custom_web1").row_count(), 2u);
  EXPECT_EQ(db.get("res_custom_web1").schema()[0].type, db::DataType::kInt);
}

}  // namespace
}  // namespace mscope::transform
