#include <gtest/gtest.h>

#include "logging/formats.h"
#include "oracle/parsers.h"
#include "transform/declaration.h"
#include "util/simtime.h"
#include "util/time_format.h"

namespace mscope::transform {
namespace {

namespace fmt = logging::formats;
using util::msec;
using util::sec;

const Declaration& decl_for(const std::string& file) {
  static const DeclarationRegistry registry;
  const Declaration* d = registry.match(file);
  EXPECT_NE(d, nullptr) << file;
  return *d;
}

std::unique_ptr<XmlNode> parse(const std::string& file,
                               const std::string& content) {
  const Declaration& d = decl_for(file);
  const ParseContext ctx{"web1", file, &d};
  return ParserRegistry::get(d.parser_id)(content, ctx);
}

/// Returns the value of field `name` in entry `n` (or empty).
std::string field(const XmlNode& root, std::size_t n, std::string_view name) {
  const auto entries = root.children_named("log");
  if (n >= entries.size()) return {};
  for (const XmlNode* f : entries[n]->children_named("field")) {
    if (*f->attribute("name") == name) return *f->attribute("value");
  }
  return {};
}

TEST(SanitizeColumn, KnownMappings) {
  EXPECT_EQ(sanitize_column("%user"), "user_pct");
  EXPECT_EQ(sanitize_column("%iowait"), "iowait_pct");
  EXPECT_EQ(sanitize_column("[CPU]User%"), "cpu_user_pct");
  EXPECT_EQ(sanitize_column("[MEM]DirtyKB"), "mem_dirtykb");
  EXPECT_EQ(sanitize_column("[DSK]PctUtil"), "dsk_pctutil");
  EXPECT_EQ(sanitize_column("kB_read/s"), "kb_read_s");
  EXPECT_EQ(sanitize_column("CPU"), "cpu");
  EXPECT_EQ(sanitize_column(""), "col");
}

TEST(ConvertTime, AllEncodings) {
  std::int64_t usec = 0;
  EXPECT_TRUE(convert_time("00:00:01.500", TimeEncoding::kHmsMilli, usec));
  EXPECT_EQ(usec, msec(1500));
  EXPECT_TRUE(convert_time("[01/Jan/2017:00:00:02.250 +0000]",
                           TimeEncoding::kApacheClf, usec));
  EXPECT_EQ(usec, msec(2250));
  EXPECT_TRUE(convert_time("2017-01-01 00:00:03.000125",
                           TimeEncoding::kMysqlDateTime, usec));
  EXPECT_EQ(usec, sec(3) + 125);
  EXPECT_TRUE(convert_time(util::TimeFormat::usec_string(777),
                           TimeEncoding::kEpochUsec, usec));
  EXPECT_EQ(usec, 777);
  EXPECT_FALSE(convert_time("garbage", TimeEncoding::kHmsMilli, usec));
  EXPECT_FALSE(convert_time("1", TimeEncoding::kNone, usec));
}

TEST(ApacheParser, InstrumentedLineFullyExtracted) {
  fmt::ApacheRecord r;
  r.ua = sec(5);
  r.ud = sec(5) + msec(12);
  r.ds = sec(5) + msec(1);
  r.dr = sec(5) + msec(11);
  r.id = 0xBEEF;
  r.url = "/rubbos/ViewStory";
  r.bytes = 7000;
  const auto doc = parse("apache_access.log", fmt::apache_access(r) + "\n");
  ASSERT_EQ(doc->children_named("log").size(), 1u);
  EXPECT_EQ(field(*doc, 0, "req_id"), "00000000BEEF");
  EXPECT_EQ(field(*doc, 0, "ua_usec"), std::to_string(sec(5)));
  EXPECT_EQ(field(*doc, 0, "ud_usec"), std::to_string(sec(5) + msec(12)));
  EXPECT_EQ(field(*doc, 0, "ds_usec"), std::to_string(sec(5) + msec(1)));
  EXPECT_EQ(field(*doc, 0, "dr_usec"), std::to_string(sec(5) + msec(11)));
  EXPECT_EQ(field(*doc, 0, "duration_usec"), std::to_string(msec(12)));
  EXPECT_EQ(field(*doc, 0, "ts_usec"), std::to_string(sec(5)));
  EXPECT_EQ(field(*doc, 0, "status"), "200");
}

TEST(ApacheParser, BaselineLineUsesFallbackInstruction) {
  fmt::ApacheRecord r;
  r.ua = sec(1);
  r.ud = sec(1) + msec(3);
  r.url = "/rubbos/Search";
  r.instrumented = false;
  const auto doc = parse("apache_access.log", fmt::apache_access(r) + "\n");
  ASSERT_EQ(doc->children_named("log").size(), 1u);
  EXPECT_EQ(field(*doc, 0, "req_id"), "");
  EXPECT_EQ(field(*doc, 0, "url"), "/rubbos/Search");
  EXPECT_EQ(field(*doc, 0, "duration_usec"), std::to_string(msec(3)));
}

TEST(ApacheParser, GarbageLinesSkipped) {
  const auto doc =
      parse("apache_access.log", "not a log line\n\n# comment?\n");
  EXPECT_TRUE(doc->children_named("log").empty());
}

TEST(TomcatParser, VariableWidthCalls) {
  fmt::TomcatRecord r;
  r.ua = sec(2);
  r.ud = sec(2) + msec(8);
  r.id = 0x77;
  r.servlet = "/rubbos/ViewStory";
  r.calls = {{sec(2) + 100, sec(2) + 900},
             {sec(2) + 1500, sec(2) + 2100},
             {sec(2) + 2500, sec(2) + 3400}};
  const auto doc = parse("tomcat_mscope.log", fmt::tomcat_monitor(r) + "\n");
  ASSERT_EQ(doc->children_named("log").size(), 1u);
  EXPECT_EQ(field(*doc, 0, "req_id"), "000000000077");
  EXPECT_EQ(field(*doc, 0, "calls"), "3");
  EXPECT_EQ(field(*doc, 0, "ds0_usec"), std::to_string(sec(2) + 100));
  EXPECT_EQ(field(*doc, 0, "dr2_usec"), std::to_string(sec(2) + 3400));
}

TEST(TomcatParser, BaselineAccessLogLine) {
  fmt::TomcatRecord r;
  r.ua = sec(3);
  r.servlet = "/rubbos/Search";
  const auto doc = parse("tomcat_mscope.log", fmt::tomcat_baseline(r) + "\n");
  ASSERT_EQ(doc->children_named("log").size(), 1u);
  EXPECT_EQ(field(*doc, 0, "url"), "/rubbos/Search");
  EXPECT_EQ(field(*doc, 0, "req_id"), "");
}

TEST(CjdbcParser, FullRecord) {
  fmt::CjdbcRecord r;
  r.ua = sec(4);
  r.ud = sec(4) + 800;
  r.ds = sec(4) + 100;
  r.dr = sec(4) + 700;
  r.id = 0x99;
  r.visit = 2;
  r.sql = "SELECT * FROM stories WHERE id=?";
  const auto doc = parse("cjdbc_controller.log", fmt::cjdbc_log(r) + "\n");
  EXPECT_EQ(field(*doc, 0, "req_id"), "000000000099");
  EXPECT_EQ(field(*doc, 0, "visit"), "2");
  EXPECT_EQ(field(*doc, 0, "sql"), r.sql);
  EXPECT_EQ(field(*doc, 0, "ua_usec"), std::to_string(sec(4)));
  EXPECT_EQ(field(*doc, 0, "dr_usec"), std::to_string(sec(4) + 700));
}

TEST(MysqlParser, GeneralLogLine) {
  fmt::MysqlRecord r;
  r.ua = sec(6);
  r.ud = sec(6) + 450;
  r.id = 0xAB;
  r.thread_id = 13;
  r.visit = 1;
  r.sql = "INSERT INTO comments VALUES (?,?,?,?,?)";
  const auto doc = parse("mysql_general.log", fmt::mysql_general(r) + "\n");
  EXPECT_EQ(field(*doc, 0, "req_id"), "0000000000AB");
  EXPECT_EQ(field(*doc, 0, "thread_id"), "13");
  EXPECT_EQ(field(*doc, 0, "visit"), "1");
  EXPECT_EQ(field(*doc, 0, "ua_usec"), std::to_string(sec(6)));
  EXPECT_EQ(field(*doc, 0, "ud_usec"), std::to_string(sec(6) + 450));
  EXPECT_EQ(field(*doc, 0, "sql"), r.sql);
}

TEST(SarTextParser, HandlesBannerHeadersAndRepeats) {
  std::string content = fmt::sar_text_banner("web1", 4);
  content += fmt::sar_text_cpu_header(msec(50)) + "\n";
  content += fmt::sar_text_cpu_row({msec(50), 0.10, 0.02, 0.01, 0.87}) + "\n";
  content += fmt::sar_text_cpu_row({msec(100), 0.20, 0.03, 0.02, 0.75}) + "\n";
  content += fmt::sar_text_cpu_header(msec(150)) + "\n";  // repeated header
  content += fmt::sar_text_cpu_row({msec(150), 0.30, 0.04, 0.03, 0.63}) + "\n";
  const auto doc = parse("sar_cpu.log", content);
  ASSERT_EQ(doc->children_named("log").size(), 3u);
  EXPECT_EQ(field(*doc, 0, "ts_usec"), std::to_string(msec(50)));
  EXPECT_EQ(field(*doc, 0, "user_pct"), "10.00");
  EXPECT_EQ(field(*doc, 1, "iowait_pct"), "2.00");
  EXPECT_EQ(field(*doc, 2, "idle_pct"), "63.00");
  EXPECT_EQ(field(*doc, 2, "cpu"), "all");
}

TEST(SarXmlParser, NativeXmlPath) {
  std::string content = fmt::sar_xml_open("db1", 4);
  content += fmt::sar_xml_cpu_timestamp({msec(50), 0.5, 0.1, 0.05, 0.35});
  content += fmt::sar_xml_cpu_timestamp({msec(100), 0.6, 0.1, 0.05, 0.25});
  content += fmt::sar_xml_close();
  const auto doc = parse("sar_cpu.xml", content);
  ASSERT_EQ(doc->children_named("log").size(), 2u);
  EXPECT_EQ(field(*doc, 0, "ts_usec"), std::to_string(msec(50)));
  EXPECT_EQ(field(*doc, 0, "user_pct"), "50.00");
  EXPECT_EQ(field(*doc, 1, "iowait_pct"), "5.00");
}

TEST(IostatParser, BlockFormat) {
  std::string content = fmt::iostat_banner("db1", 4);
  fmt::DiskRow d;
  d.t = msec(50);
  d.tps = 12;
  d.read_kbs = 320;
  d.write_kbs = 128;
  d.util = 0.43;
  d.queue = 3;
  content += fmt::iostat_block("sda", d);
  d.t = msec(100);
  d.util = 1.0;
  content += fmt::iostat_block("sda", d);
  const auto doc = parse("iostat.log", content);
  ASSERT_EQ(doc->children_named("log").size(), 2u);
  EXPECT_EQ(field(*doc, 0, "device"), "sda");
  EXPECT_EQ(field(*doc, 0, "ts_usec"), std::to_string(msec(50)));
  EXPECT_EQ(field(*doc, 0, "util_pct"), "43.00");
  EXPECT_EQ(field(*doc, 1, "util_pct"), "100.00");
  EXPECT_EQ(field(*doc, 1, "queue"), "3");
}

TEST(CollectlCsvParser, HeaderDriven) {
  std::string content = fmt::collectl_csv_header();
  content += "\n";
  content += fmt::collectl_csv_row({msec(50), 0.12, 0.03, 0.005, 0.845},
                                   {msec(50), 5, 320, 128, 0.43, 2},
                                   {msec(50), 123456, 2097152});
  content += "\n";
  const auto doc = parse("collectl.csv", content);
  ASSERT_EQ(doc->children_named("log").size(), 1u);
  EXPECT_EQ(field(*doc, 0, "ts_usec"), std::to_string(msec(50)));
  EXPECT_EQ(field(*doc, 0, "cpu_user_pct"), "12.0");
  EXPECT_EQ(field(*doc, 0, "mem_dirtykb"), "123456");
  EXPECT_EQ(field(*doc, 0, "dsk_pctutil"), "43.0");
  EXPECT_EQ(field(*doc, 0, "dsk_quelen"), "2");
}

TEST(CollectlPlainParser, FixedColumns) {
  std::string content = fmt::collectl_plain_header();
  content += "\n";
  content += fmt::collectl_plain_row({msec(50), 0.5, 0.1, 0.02, 0.38},
                                     {msec(50), 3, 100, 200, 0.25, 1});
  content += "\n";
  const auto doc = parse("collectl.log", content);
  ASSERT_EQ(doc->children_named("log").size(), 1u);
  EXPECT_EQ(field(*doc, 0, "ts_usec"), std::to_string(msec(50)));
  EXPECT_EQ(field(*doc, 0, "user_pct"), "50.0");
  EXPECT_EQ(field(*doc, 0, "write_kbs"), "200");
}

TEST(ParserRegistry, KnowsAllDeclaredParsers) {
  const DeclarationRegistry registry;
  for (const auto& d : registry.all()) {
    EXPECT_TRUE(ParserRegistry::knows(d.parser_id)) << d.parser_id;
    EXPECT_NO_THROW((void)ParserRegistry::get(d.parser_id));
  }
  EXPECT_THROW((void)ParserRegistry::get("nope"), std::out_of_range);
  EXPECT_FALSE(ParserRegistry::knows("nope"));
}

TEST(DeclarationRegistry, MatchByFileName) {
  const DeclarationRegistry registry;
  EXPECT_NE(registry.match("apache_access.log"), nullptr);
  EXPECT_EQ(registry.match("unknown.log"), nullptr);
}

}  // namespace
}  // namespace mscope::transform
