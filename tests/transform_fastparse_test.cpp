// Fast-path parser tests: the zero-copy byte-scanning parsers
// (transform/fastparse/) against the reference regex + XML oracle
// (tests/oracle/).
//
// The contract under test is strict: for every declared format and any input
// bytes — well-formed, malformed, mutated or truncated — the fast path must
// throw exactly when the reference mScopeParser + XmlToCsvConverter throws,
// and otherwise produce a typed batch with their schema, each cell equal to
// theirs read through db::parse_as (the sign of zero included); the
// resulting warehouse must be byte-identical at any parse worker count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <regex>
#include <stdexcept>
#include <string>
#include <vector>

#include "db/database.h"
#include "logging/formats.h"
#include "obs/metrics.h"
#include "oracle/parsers.h"
#include "oracle_parity.h"
#include "scratch_dir.h"
#include "transform/fastparse/fast_parser.h"
#include "transform/fastparse/pattern.h"
#include "transform/pipeline.h"
#include "transform/streaming.h"
#include "util/simtime.h"

namespace mscope {
namespace {

using namespace transform;          // NOLINT
namespace fmt = logging::formats;
using fastparse::CompiledPattern;
using fastparse::FastParser;
using fastparse::ParseStats;
using util::kMsec;
using util::kSec;
using util::SimTime;

// ---------------------------------------------------------------------------
// Fixture log content, one generator per declared format.
// ---------------------------------------------------------------------------

std::string apache_content() {
  std::string s;
  for (int i = 0; i < 20; ++i) {
    fmt::ApacheRecord r;
    r.ua = i * 50 * kMsec;
    r.ud = r.ua + 3 * kMsec + i;
    r.ds = r.ua + 1 * kMsec;
    r.dr = r.ud - 1 * kMsec;
    r.id = 0x100 + static_cast<std::uint64_t>(i);
    r.url = i % 3 == 0 ? "/rubbos/ViewStory" : "/rubbos/Search";
    r.status = i % 7 == 0 ? 500 : 200;
    r.bytes = 1024 + static_cast<std::uint64_t>(i) * 13;
    r.instrumented = i % 4 != 3;  // mix instrumented and baseline lines
    s += fmt::apache_access(r) + "\n";
  }
  // Malformed lines the reference parser silently drops.
  s += "garbage line that matches nothing\n";
  s += "\n";
  s += "10.0.0.9 - -\n";
  return s;
}

std::string tomcat_content() {
  std::string s;
  for (int i = 0; i < 15; ++i) {
    fmt::TomcatRecord r;
    r.ua = i * 40 * kMsec;
    r.ud = r.ua + 5 * kMsec;
    r.id = 0x200 + static_cast<std::uint64_t>(i);
    r.servlet = i % 2 == 0 ? "ViewStory" : "Search";
    for (int c = 0; c < i % 4; ++c) {
      const SimTime ds = r.ua + (c + 1) * kMsec;
      r.calls.emplace_back(ds, ds + 700);
    }
    s += fmt::tomcat_monitor(r) + "\n";
    if (i % 5 == 0) s += fmt::tomcat_baseline(r) + "\n";
  }
  // A head line with a corrupt tail: the call scanner must resume cleanly.
  s += "2017-01-01 00:00:09.000 [mscope] ID=0000000002AB servlet=Search "
       "ua=1483228809000000 ud=1483228809004000 calls=2 ds0=12 dr0= "
       "ds1=1483228809001000 dr1=1483228809001500\n";
  s += "not a tomcat line\n";
  return s;
}

std::string cjdbc_content() {
  std::string s;
  for (int i = 0; i < 15; ++i) {
    fmt::CjdbcRecord r;
    r.ua = i * 30 * kMsec;
    r.ud = r.ua + 2 * kMsec;
    r.ds = r.ua + 500;
    r.dr = r.ud - 500;
    r.id = 0x300 + static_cast<std::uint64_t>(i);
    r.visit = i % 3;
    r.sql = "SELECT * FROM stories WHERE id=" + std::to_string(i);
    r.instrumented = i % 5 != 4;
    s += fmt::cjdbc_log(r) + "\n";
  }
  s += "[bad ts] ID=GARBAGE\n";
  return s;
}

std::string mysql_content() {
  std::string s;
  for (int i = 0; i < 15; ++i) {
    fmt::MysqlRecord r;
    r.ua = i * 20 * kMsec;
    r.ud = r.ua + 1 * kMsec;
    r.id = 0x400 + static_cast<std::uint64_t>(i);
    r.thread_id = 7 + i % 3;
    r.visit = i % 2;
    r.sql = "SELECT * FROM users WHERE id=" + std::to_string(i);
    r.instrumented = i % 6 != 5;
    s += fmt::mysql_general(r) + "\n";
  }
  s += "truncated li\n";
  return s;
}

std::string sar_text_content() {
  std::string s = fmt::sar_text_banner("db1", 8);
  s += fmt::sar_text_cpu_header(0) + "\n";
  for (int i = 0; i < 12; ++i) {
    fmt::CpuRow r;
    r.t = i * 100 * kMsec;
    r.user = 10.0 + i;
    r.system = 5.0 + 0.5 * i;
    r.iowait = 1.0;
    r.idle = 100.0 - r.user - r.system - r.iowait;
    s += fmt::sar_text_cpu_row(r) + "\n";
  }
  // A second header block mid-file (sar restarts emit these).
  s += fmt::sar_text_cpu_header(2 * kSec) + "\n";
  fmt::CpuRow r;
  r.t = 2 * kSec;
  r.user = 50;
  r.system = 10;
  r.iowait = 5;
  r.idle = 35;
  s += fmt::sar_text_cpu_row(r) + "\n";
  s += "short row\n";  // width mismatch: dropped by both paths
  return s;
}

std::string iostat_content() {
  std::string s = fmt::iostat_banner("db1", 8);
  for (int i = 0; i < 10; ++i) {
    fmt::DiskRow r;
    r.t = i * 200 * kMsec;
    r.tps = 100 + i;
    r.read_kbs = 2000 + 10.0 * i;
    r.write_kbs = 500 + 5.0 * i;
    r.util = 40.0 + i;
    r.queue = i % 4;
    s += fmt::iostat_block("sda", r);
  }
  s += "orphan tokens without a timestamp\n";
  return s;
}

std::string collectl_csv_content() {
  std::string s = fmt::collectl_csv_header() + "\n";
  for (int i = 0; i < 12; ++i) {
    fmt::CpuRow c;
    c.t = i * 100 * kMsec;
    c.user = 20 + i;
    c.system = 4;
    c.iowait = 2;
    c.idle = 74 - i;
    fmt::DiskRow d;
    d.t = c.t;
    d.tps = 50;
    d.read_kbs = 100 + i;
    d.write_kbs = 30;
    d.util = 10 + i;
    d.queue = 1;
    fmt::MemRow m;
    m.t = c.t;
    m.dirty_kb = 100 + i;
    m.cached_kb = 2048;
    std::string row = fmt::collectl_csv_row(c, d, m);
    // QueLen, the last field: a signed zero, then a fraction that makes the
    // column Double, where "-0" must read -0.0.
    if (i == 9 || i == 10) {
      row = row.substr(0, row.rfind(',') + 1) + (i == 9 ? "-0" : "0.5");
    }
    s += row + "\n";
  }
  s += "1,2,3\n";  // width mismatch
  return s;
}

std::string collectl_plain_content() {
  std::string s = fmt::collectl_plain_header() + "\n";
  for (int i = 0; i < 12; ++i) {
    fmt::CpuRow c;
    c.t = i * 100 * kMsec;
    c.user = 15 + i;
    c.system = 3;
    c.iowait = 1;
    c.idle = 81 - i;
    fmt::DiskRow d;
    d.t = c.t;
    d.tps = 40;
    d.read_kbs = 80 + i;
    d.write_kbs = 20;
    d.util = 5 + i;
    d.queue = 0;
    s += fmt::collectl_plain_row(c, d) + "\n";
  }
  s += "too few\n";
  return s;
}

/// sar's XML output as the monitor writes it: `samples` timestamps, one
/// element per line, closed unless `closed` is false.
std::string sar_xml_doc(int samples, bool closed = true) {
  std::string s = fmt::sar_xml_open("db1", 8);
  for (int i = 0; i < samples; ++i) {
    fmt::CpuRow r;
    r.t = i * 100 * kMsec;
    r.user = 0.10 + 0.01 * i;
    r.system = 0.03;
    r.iowait = 0.01;
    r.idle = 0.86 - 0.01 * i;
    s += fmt::sar_xml_cpu_timestamp(r);
  }
  if (closed) s += fmt::sar_xml_close();
  return s;
}

std::string sar_xml_content() {
  std::string s = sar_xml_doc(8, /*closed=*/false);
  s += "   <!-- a comment inside statistics -->\n";
  // Well-formed variations the oracle accepts. Single quotes, an entity, a
  // repeated attribute (first position, last value) and two names that
  // differ only in case (one column, both values typed, the last kept).
  s += "   <timestamp date='2017-01-01' time='00:00:01.000'>\n"
       "    <cpu-load><cpu number='all' user='1.50' system='0.25' "
       "iowait=\"0.10\" user='2.50' User='3' note='a&amp;b' "
       "idle='95.00'/></cpu-load>\n"
       "   </timestamp>\n";
  // An empty first cpu-load: its timestamp yields no row.
  s += "   <timestamp date=\"2017-01-01\" time=\"00:00:01.100\">\n"
       "    <cpu-load/>\n"
       "    <cpu-load><cpu number=\"all\" user=\"9.00\"/></cpu-load>\n"
       "   </timestamp>\n";
  // No cpu-load, and a self-closing timestamp: no rows either.
  s += "   <timestamp time=\"00:00:01.200\"><memory kbmemfree=\"1\"/>"
       "</timestamp>\n"
       "   <timestamp time=\"00:00:01.300\"/>\n";
  // A time that does not parse: a row with no ts_usec.
  s += "   <timestamp time=\"not a time\"><cpu-load><cpu number=\"all\" "
       "user=\"5.00\" idle=\"95.00\"/></cpu-load></timestamp>\n";
  // A timestamp one level too deep is not a sample.
  s += "   <interval><timestamp time=\"00:00:01.400\"><cpu-load>"
       "<cpu number=\"all\" user=\"7.00\"/></cpu-load></timestamp>"
       "</interval>\n";
  // Start tags split across lines.
  s += "   <timestamp date=\"2017-01-01\"\n"
       "              time=\"00:00:01.500\">\n"
       "    <cpu-load>\n"
       "     <cpu number=\"all\"\n"
       "          user=\"12.00\" system=\"3.00\" iowait=\"1.00\" "
       "steal=\"0.00\" idle=\"84.00\"/>\n"
       "    </cpu-load>\n"
       "   </timestamp>\n";
  fmt::CpuRow r;
  r.t = 1600 * kMsec;
  r.user = 0.50;
  r.system = 0.10;
  r.iowait = 0.05;
  r.idle = 0.35;
  s += fmt::sar_xml_cpu_timestamp(r);
  s += fmt::sar_xml_close();
  s += "<!-- after the root -->\n<?sadf done?>\n";
  return s;
}

struct FormatFixture {
  const char* file;
  std::string content;
};

std::vector<FormatFixture> all_fixtures() {
  return {{"apache_access.log", apache_content()},
          {"tomcat_mscope.log", tomcat_content()},
          {"cjdbc_controller.log", cjdbc_content()},
          {"mysql_general.log", mysql_content()},
          {"sar_cpu.log", sar_text_content()},
          {"iostat.log", iostat_content()},
          {"collectl.csv", collectl_csv_content()},
          {"collectl.log", collectl_plain_content()},
          {"sar_cpu.xml", sar_xml_content()}};
}

// ---------------------------------------------------------------------------
// Parity helpers.
// ---------------------------------------------------------------------------

/// `parse()`'s result, or nullopt if it threw std::runtime_error (a
/// malformed sar XML document, on either path).
template <typename Fn>
auto unless_throws(Fn&& parse) -> std::optional<decltype(parse())> {
  try {
    return parse();
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

/// The batch has the oracle's schema, and each of its cells equals the
/// oracle's cell read through db::parse_as at the column type (the sign of
/// zero included).
void expect_batch_matches(const Conversion& ref, const db::ColumnBatch& fast,
                          const std::string& label) {
  ASSERT_EQ(ref.schema.size(), fast.schema.size()) << label;
  ASSERT_EQ(fast.columns.size(), fast.schema.size()) << label;
  for (std::size_t i = 0; i < ref.schema.size(); ++i) {
    EXPECT_EQ(ref.schema[i].name, fast.schema[i].name)
        << label << " column " << i;
    EXPECT_EQ(static_cast<int>(ref.schema[i].type),
              static_cast<int>(fast.schema[i].type))
        << label << " column " << ref.schema[i].name;
    EXPECT_EQ(static_cast<int>(fast.columns[i].type),
              static_cast<int>(fast.schema[i].type))
        << label << " column " << ref.schema[i].name;
  }
  ASSERT_EQ(ref.rows.size(), fast.rows) << label;
  for (std::size_t r = 0; r < ref.rows.size(); ++r) {
    for (std::size_t c = 0; c < ref.schema.size(); ++c) {
      const auto want = db::parse_as(ref.rows[r][c], ref.schema[c].type);
      ASSERT_TRUE(want.has_value()) << label << " row " << r;
      ASSERT_TRUE(test::same_value(fast.cell(r, c), *want))
          << label << " row " << r << " col " << ref.schema[c].name
          << ": oracle '" << ref.rows[r][c] << "', batch '"
          << db::value_to_string(fast.cell(r, c)) << "'";
    }
  }
}

/// Parses `content` on both paths: either both throw, or neither does and
/// the batch matches the oracle's Conversion. The fast path's stats land in
/// `*out` (for rejected-count assertions).
void expect_parity(const std::string& file, std::string_view content,
                   ParseStats* out = nullptr) {
  DeclarationRegistry registry;
  const Declaration* decl = registry.match(file);
  ASSERT_NE(decl, nullptr) << file;
  ParseContext ctx{"web1", file, decl};

  auto fp = FastParser::compile(*decl);
  ASSERT_NE(fp, nullptr) << file;
  ParseStats stats;
  const auto fast = unless_throws([&] { return fp->parse(content, stats); });
  const auto ref = unless_throws([&] { return reference_parse(content, ctx); });
  ASSERT_EQ(fast.has_value(), ref.has_value())
      << file << ": only " << (ref ? "the fast path" : "the oracle")
      << " threw";
  if (ref) expect_batch_matches(*ref, *fast, file);
  if (out != nullptr) *out = stats;
}

void expect_identical_databases(const db::Database& a, const db::Database& b,
                                const std::string& label) {
  ASSERT_EQ(a.table_names(), b.table_names()) << label;
  for (const auto& name : a.table_names()) {
    const db::Table& ta = a.get(name);
    const db::Table& tb = b.get(name);
    ASSERT_EQ(ta.schema(), tb.schema()) << label << ": schema of " << name;
    ASSERT_EQ(ta.row_count(), tb.row_count()) << label << ": rows of " << name;
    for (std::size_t r = 0; r < ta.row_count(); ++r) {
      for (std::size_t c = 0; c < ta.column_count(); ++c) {
        ASSERT_TRUE(test::same_value(ta.at(r, c), tb.at(r, c)))
            << label << ": " << name << " differs at row " << r << " col "
            << ta.schema()[c].name;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pattern compiler: behavior against std::regex on the same inputs.
// ---------------------------------------------------------------------------

void expect_pattern_matches_regex(const std::string& pattern,
                                  const std::string& subject) {
  auto cp = CompiledPattern::compile(pattern);
  ASSERT_NE(cp, nullptr) << pattern;
  const std::regex re(pattern);
  std::cmatch m;
  const bool ref = std::regex_match(
      subject.data(), subject.data() + subject.size(), m, re);
  CompiledPattern::Groups groups;
  const bool fast =
      cp->match(subject.data(), subject.data() + subject.size(), groups);
  ASSERT_EQ(ref, fast) << pattern << " on \"" << subject << "\"";
  if (!ref) return;
  ASSERT_EQ(cp->group_count(), m.size() - 1) << pattern;
  for (std::size_t g = 0; g < cp->group_count(); ++g) {
    ASSERT_TRUE(m[g + 1].matched) << pattern << " group " << g + 1;
    EXPECT_EQ(std::string(m[g + 1].first, m[g + 1].second),
              std::string(groups[g].view()))
        << pattern << " group " << g + 1 << " on \"" << subject << "\"";
  }
}

TEST(FastPattern, MatchesRegexOnDeclaredFormats) {
  // Every token regex of every built-in declaration must compile (no silent
  // fallback to std::regex on the hot formats) and agree with std::regex.
  DeclarationRegistry registry;
  for (const auto& d : registry.all()) {
    for (const auto& t : d.tokens) {
      auto cp = CompiledPattern::compile(t.regex);
      ASSERT_NE(cp, nullptr) << d.source << ": " << t.regex;
    }
  }
  fmt::ApacheRecord r;
  r.ua = kSec;
  r.ud = r.ua + 3 * kMsec;
  r.ds = r.ua + kMsec;
  r.dr = r.ud - kMsec;
  r.id = 0xAB;
  r.url = "/rubbos/ViewStory";
  std::string line = fmt::apache_access(r);
  line.pop_back();  // strip '\n' — patterns are per line
  const auto& apache = *registry.match("apache_access.log");
  expect_pattern_matches_regex(apache.tokens[0].regex, line);
  expect_pattern_matches_regex(apache.tokens[1].regex, line);  // must reject
}

TEST(FastPattern, QuantifiersClassesAndBacktracking) {
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases = {
      // Greedy star + literal tail: the accel path and its backtracking.
      {R"x((.*)" end)x",
       {R"x(abc" end)x", R"x(a"b" end)x", R"x(" end)x", "no tail"}},
      // Greedy class runs that must give back characters.
      {R"((\d+)(\d))", {"1234", "7", ""}},
      {R"((a*)(a?)(a))", {"aaa", "a", "b", ""}},
      // Bounded repeats.
      {R"(([0-9A-F]{12}))", {"0123456789AB", "0123456789ABC", "012"}},
      {R"((\d{2,4})x)", {"12x", "1234x", "12345x", "1x"}},
      // Negated classes and ranges.
      {R"(\[([^\]]+)\] (\S+))", {"[a b] tok", "[] tok", "[x] "}},
      // Nested groups.
      {R"((a(b(c))d))", {"abcd", "abd", "ad"}},
      // Dot excludes newline.
      {"(.+)", {"abc", "a\nb", ""}},
      // Escapes and literal runs.
      {R"((\d+) ua=(\d+))", {"5 ua=6", "5 ua=", " ua=6"}},
      {R"(a\.b(\w+))", {"a.bxy", "axbxy"}},
  };
  for (const auto& [pattern, subjects] : cases) {
    for (const auto& s : subjects) expect_pattern_matches_regex(pattern, s);
  }
}

TEST(FastPattern, UnsupportedConstructsFallBack) {
  // These must return nullptr (the instruction keeps std::regex) rather
  // than compile to something subtly wrong.
  for (const char* p : {"a|b", "(?:ab)c", "(ab)+", "a*?", "a\\bb", "x$y",
                        "a(b|c)d", "(\\d+"}) {
    EXPECT_EQ(CompiledPattern::compile(p), nullptr) << p;
  }
}

TEST(FastPattern, PrefixMatchMirrorsRegexSearchAnchored) {
  const std::string pattern =
      R"(^(\d{4}-\d{2}-\d{2} [0-9:.]+) \[mscope\] ID=([0-9A-F]{12}) servlet=(\S+) ua=(\d+) ud=(\d+) calls=(\d+))";
  auto cp = CompiledPattern::compile(pattern);
  ASSERT_NE(cp, nullptr);
  const std::regex re(pattern);
  const std::vector<std::string> subjects = {
      "2017-01-01 00:00:01.000 [mscope] ID=0000000000AB servlet=S ua=1 ud=2 "
      "calls=2 ds0=3 dr0=4",
      "2017-01-01 00:00:01.000 [mscope] ID=0000000000AB servlet=S ua=1 ud=2 "
      "calls=0",
      "junk 2017-01-01 00:00:01.000 [mscope] ID=0000000000AB servlet=S ua=1 "
      "ud=2 calls=0",
  };
  for (const auto& s : subjects) {
    std::cmatch m;
    const bool ref =
        std::regex_search(s.data(), s.data() + s.size(), m, re);
    CompiledPattern::Groups groups;
    const char* suffix = nullptr;
    const bool fast =
        cp->match_prefix(s.data(), s.data() + s.size(), groups, &suffix);
    ASSERT_EQ(ref, fast) << s;
    if (!ref) continue;
    EXPECT_EQ(m[0].second - s.data(), suffix - s.data()) << s;
    for (std::size_t g = 0; g + 1 < m.size(); ++g) {
      EXPECT_EQ(std::string(m[g + 1].first, m[g + 1].second),
                std::string(groups[g].view()))
          << s;
    }
  }
}

// ---------------------------------------------------------------------------
// Satellite: reference oracle parity over every fixture format.
// ---------------------------------------------------------------------------

TEST(FastParseParity, EveryFormatMatchesReferenceOracle) {
  for (const auto& f : all_fixtures()) {
    SCOPED_TRACE(f.file);
    expect_parity(f.file, f.content);
  }
}

TEST(FastParseParity, EdgeContentsMatchReference) {
  const std::vector<std::string> edges = {
      "", "\n", "\n\n\n", "no newline at end", "\r\n",
      std::string(3, '\0') + "\n", "   \n\t\n"};
  for (const auto& f : all_fixtures()) {
    for (const auto& e : edges) {
      SCOPED_TRACE(std::string(f.file) + " with edge content");
      expect_parity(f.file, e);
      // Edge bytes appended after valid content (mid-file corruption).
      expect_parity(f.file, f.content + e);
    }
  }
}

// ---------------------------------------------------------------------------
// sar XML streams: rows as timestamps close, a failed file keeps its rows.
// ---------------------------------------------------------------------------

std::size_t count_of(std::string_view text, std::string_view what) {
  std::size_t n = 0;
  for (auto p = text.find(what); p != std::string_view::npos;
       p = text.find(what, p + what.size())) {
    ++n;
  }
  return n;
}

/// Position of the n-th (1-based) occurrence of `what` in `text`.
std::size_t nth_pos(std::string_view text, std::string_view what, int n) {
  std::size_t p = text.find(what);
  while (--n > 0) p = text.find(what, p + what.size());
  return p;
}

TEST(StreamingTransformer, SarXmlStreamsWhileRunning) {
  // Each tick loads one row per timestamp element closed by the last
  // complete line ingested so far; at the end the table is the oracle's
  // parse of the whole document.
  const std::string xml = sar_xml_doc(20);
  DeclarationRegistry registry;
  const Declaration* decl = registry.match("sar_cpu.xml");
  ASSERT_NE(decl, nullptr);
  const std::string table = decl->table_prefix + "_db1";

  db::Database db;
  StreamingTransformer st(db);
  for (std::size_t off = 0; off < xml.size(); off += 97) {
    st.ingest("db1", "sar_cpu.xml", std::string_view(xml).substr(off, 97));
    st.parse_all();
    const std::size_t ingested = std::min(off + 97, xml.size());
    const std::size_t nl = xml.rfind('\n', ingested - 1);
    const std::size_t upto = nl == std::string::npos ? 0 : nl + 1;
    const std::size_t closed =
        count_of(std::string_view(xml).substr(0, upto), "</timestamp>");
    SCOPED_TRACE("after " + std::to_string(ingested) + " bytes");
    if (closed == 0) {
      EXPECT_FALSE(db.exists(table));
    } else {
      ASSERT_TRUE(db.exists(table));
      EXPECT_EQ(db.get(table).row_count(), closed);
    }
    EXPECT_EQ(st.stats().parsed_bytes, upto);
  }
  st.finalize();
  EXPECT_EQ(st.stats().parsed_bytes, xml.size());
  EXPECT_EQ(st.stats().parse_deferrals, 0u);
  EXPECT_EQ(db.get(table).row_count(), 20u);
  test::expect_table_matches_oracle(db, *decl, "db1", "sar_cpu.xml", xml);
}

TEST(StreamingTransformer, SarXmlHoleKeepsRowsBeforeIt) {
  // A hole inside an element leaves a document that can never close: the
  // file fails once, keeps the rows loaded before the hole, and nothing is
  // parsed again from byte 0.
  const std::string xml = sar_xml_doc(20);
  const std::string table = "res_sarxml_cpu_db1";
  // The first half ends inside the 10th timestamp, after its <cpu-load>
  // line; the stream resumes at the 14th timestamp's closing tag.
  const std::size_t cut = nth_pos(xml, "<cpu-load>\n", 10) + 11;
  const std::size_t resume = nth_pos(xml, "   </timestamp>", 14);

  db::Database db;
  StreamingTransformer st(db);
  st.ingest("db1", "sar_cpu.xml", std::string_view(xml).substr(0, cut));
  st.parse_all();
  ASSERT_TRUE(db.exists(table));
  EXPECT_EQ(db.get(table).row_count(), 9u);
  st.note_gap("db1", "sar_cpu.xml", resume - cut);
  for (std::size_t off = resume; off < xml.size(); off += 97) {
    st.ingest("db1", "sar_cpu.xml", std::string_view(xml).substr(off, 97));
    st.parse_all();
  }
  st.finalize();

  EXPECT_EQ(db.get(table).row_count(), 9u);
  EXPECT_EQ(st.stats().parse_deferrals, 1u);
  EXPECT_TRUE(st.outcome("db1", "sar_cpu.xml").parse_error.has_value());
  EXPECT_LE(st.stats().parsed_bytes, st.stats().bytes);
}

TEST(StreamingTransformer, UnclosedSarXmlKeepsRowsAndFailsAtFinalize) {
  // Every byte is parsed on ticks, but the document never closes: its rows
  // stay, and finalize() ends the file with an error.
  const std::string xml = sar_xml_doc(20, /*closed=*/false);
  db::Database db;
  StreamingTransformer st(db);
  for (std::size_t off = 0; off < xml.size();) {
    // Whole lines, about 50 bytes at a time.
    const std::size_t end =
        xml.find('\n', std::min(off + 50, xml.size() - 1)) + 1;
    st.ingest("db1", "sar_cpu.xml",
              std::string_view(xml).substr(off, end - off));
    st.parse_all();
    off = end;
  }
  EXPECT_EQ(st.stats().parsed_bytes, xml.size());
  EXPECT_FALSE(st.outcome("db1", "sar_cpu.xml").parse_error.has_value());
  EXPECT_EQ(db.get("res_sarxml_cpu_db1").row_count(), 20u);

  st.finalize();
  EXPECT_EQ(db.get("res_sarxml_cpu_db1").row_count(), 20u);
  EXPECT_EQ(st.stats().parse_deferrals, 1u);
  EXPECT_TRUE(st.outcome("db1", "sar_cpu.xml").parse_error.has_value());
}

TEST(StreamingTransformer, UnknownParserIdIsRejected) {
  Declaration d;
  d.parser_id = "nope";
  d.file_name = "custom.log";
  d.source = "custom";
  d.table_prefix = "res_custom";
  d.monitor_name = "Custom";

  db::Database db;
  StreamingTransformer st(db);
  st.declarations().add(d);
  try {
    st.ingest("web1", "custom.log", "7 hello\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom.log"), std::string::npos) << what;
    EXPECT_NE(what.find("'nope'"), std::string::npos) << what;
  }

  const test::ScratchDir dir("fastparse_unknown_parser");
  std::filesystem::create_directories(dir.path() / "web1");
  std::ofstream(dir.path() / "web1" / "custom.log") << "7 hello\n";
  DataTransformer transformer;
  transformer.declarations().add(d);
  db::Database batch;
  EXPECT_THROW((void)transformer.run(dir.path(), batch),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Satellite: rejected-line accounting.
// ---------------------------------------------------------------------------

TEST(FastParseRejected, CountsMalformedLinesPerFormat) {
  // apache_content() ends with 3 non-matching candidates, but blank lines
  // are structural (the reference XML drops trailing blanks too) — the two
  // non-blank garbage lines must be counted.
  ParseStats apache;
  expect_parity("apache_access.log", apache_content(), &apache);
  EXPECT_EQ(apache.rejected, 2u);
  EXPECT_GT(apache.lines, 20u);

  ParseStats tomcat;
  expect_parity("tomcat_mscope.log", tomcat_content(), &tomcat);
  EXPECT_EQ(tomcat.rejected, 1u);

  ParseStats csv;
  expect_parity("collectl.csv", collectl_csv_content(), &csv);
  EXPECT_EQ(csv.rejected, 1u);  // the "1,2,3" width mismatch
}

TEST(FastParseRejected, StreamingCountsRejectedIntoStatsAndRegistry) {
  obs::Counter& total =
      obs::Registry::global().counter("transform.parse.rejected");
  obs::Counter& apache =
      obs::Registry::global().counter("transform.parse.rejected.apache");
  const std::uint64_t total0 = total.get();
  const std::uint64_t apache0 = apache.get();

  db::Database db;
  StreamingTransformer st(db);
  const std::string content = apache_content();
  // Feed in two chunks so rejected lines are (re)counted across growing
  // prefixes — the delta accounting must not double-count.
  const std::size_t cut = content.size() / 2;
  st.ingest("web1", "apache_access.log", std::string_view(content).substr(0, cut));
  st.parse_all();
  st.ingest("web1", "apache_access.log", std::string_view(content).substr(cut));
  st.finalize();

  EXPECT_EQ(st.stats().rejected_lines, 2u);
  EXPECT_EQ(total.get() - total0, 2u);
  EXPECT_EQ(apache.get() - apache0, 2u);
}

// ---------------------------------------------------------------------------
// Satellite: randomized property test — mutate/truncate valid content; the
// fast path must never crash and must agree with the oracle on accept,
// reject and every emitted field. (CI runs this binary under ASan/UBSan and
// TSan, so memory errors in the byte scanners surface here.)
// ---------------------------------------------------------------------------

std::string mutate(const std::string& base, std::mt19937& rng) {
  std::string s = base;
  std::uniform_int_distribution<int> op_dist(0, 4);
  const int ops = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < ops && !s.empty(); ++i) {
    const auto pos = rng() % s.size();
    switch (op_dist(rng)) {
      case 0:  // truncate (also mid-line: streaming sees such prefixes)
        s.resize(pos);
        break;
      case 1:  // flip a byte to an arbitrary value, including '\0' and '\n'
        s[pos] = static_cast<char>(rng() % 256);
        break;
      case 2:  // delete a byte
        s.erase(pos, 1);
        break;
      case 3:  // duplicate a random slice
        s.insert(pos, s.substr(pos, 1 + rng() % 40));
        break;
      case 4:  // inject a burst of random bytes
      default: {
        std::string junk;
        for (std::size_t j = 0; j < 1 + rng() % 16; ++j) {
          junk += static_cast<char>(rng() % 256);
        }
        s.insert(pos, junk);
        break;
      }
    }
  }
  return s;
}

TEST(FastParseProperty, MutatedContentNeverCrashesAndMatchesOracle) {
  std::mt19937 rng(20170101);  // deterministic: failures must reproduce
  DeclarationRegistry registry;
  for (const auto& f : all_fixtures()) {
    const Declaration* decl = registry.match(f.file);
    ASSERT_NE(decl, nullptr);
    auto fp = FastParser::compile(*decl);
    ASSERT_NE(fp, nullptr);
    ParseContext ctx{"web1", f.file, decl};
    // Most mutations break an XML document, so sar XML gets more of them
    // to keep enough accepted ones.
    const bool xml = decl->parser_id == "sar_xml";
    int accepted = 0;
    for (int iter = 0; iter < (xml ? 400 : 40); ++iter) {
      const std::string mutated = mutate(f.content, rng);
      SCOPED_TRACE(std::string(f.file) + " iteration " +
                   std::to_string(iter));
      ParseStats stats;
      const auto fast =
          unless_throws([&] { return fp->parse(mutated, stats); });
      const auto ref =
          unless_throws([&] { return reference_parse(mutated, ctx); });
      ASSERT_EQ(fast.has_value(), ref.has_value())
          << (ref ? "only the fast path threw" : "only the oracle threw");
      if (!ref) continue;
      ++accepted;
      expect_batch_matches(*ref, *fast, f.file);
    }
    if (xml) {
      EXPECT_GT(accepted, 20) << "too few well-formed mutations";
    }
  }
}

/// Cuts `content` at random line boundaries, on average every `every`-th
/// one. Every piece but the last ends with '\n'; the last holds whatever
/// follows the final cut (possibly empty, possibly a line with no '\n').
std::vector<std::string_view> cut_at_lines(std::string_view content,
                                           unsigned every, std::mt19937& rng) {
  std::vector<std::string_view> pieces;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < content.size(); ++i) {
    if (content[i] == '\n' && rng() % every == 0) {
      pieces.push_back(content.substr(begin, i + 1 - begin));
      begin = i + 1;
    }
  }
  pieces.push_back(content.substr(begin));
  return pieces;
}

/// Cuts `content` into pieces of 1 to `max_len` bytes, wherever they fall.
std::vector<std::string_view> cut_at_bytes(std::string_view content,
                                           unsigned max_len,
                                           std::mt19937& rng) {
  std::vector<std::string_view> pieces;
  for (std::size_t begin = 0; begin < content.size();) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng() % max_len, content.size() - begin);
    pieces.push_back(content.substr(begin, n));
    begin += n;
  }
  return pieces;
}

/// Feeds `pieces` through parse_more() on one State, then finish(), and
/// returns each piece's batch. Throws what the parser throws.
std::vector<db::ColumnBatch> parse_pieces(
    const FastParser& fp, const std::vector<std::string_view>& pieces,
    ParseStats& stats) {
  FastParser::State state;
  std::vector<db::ColumnBatch> out;
  for (const std::string_view piece : pieces) {
    db::ColumnBatch part = fp.parse_more(state, piece, stats);
    // The schema only ever grows at the end: earlier columns keep their
    // names and positions (their types may widen).
    if (!out.empty()) {
      const db::Schema& prev = out.back().schema;
      EXPECT_GE(part.schema.size(), prev.size());
      for (std::size_t c = 0; c < prev.size() && c < part.schema.size();
           ++c) {
        EXPECT_EQ(part.schema[c].name, prev[c].name);
      }
    }
    out.push_back(std::move(part));
  }
  fp.finish(state);
  return out;
}

/// The pieces' rows, in order, are the whole parse's rows. Each piece cell
/// equals the oracle's cell read through db::parse_as at the piece's own
/// (possibly narrower) column type, and the whole parse's cell wherever
/// that type is already the final one; columns that appear only in a later
/// piece are NULL in the whole parse's earlier rows.
void expect_pieces_match(const Conversion& ref, const db::ColumnBatch& whole,
                         const std::vector<db::ColumnBatch>& pieces,
                         const std::string& label) {
  ASSERT_FALSE(pieces.empty()) << label;
  ASSERT_EQ(pieces.back().schema, whole.schema) << label;
  std::size_t g = 0;  // row in the whole file
  for (const db::ColumnBatch& part : pieces) {
    for (std::size_t r = 0; r < part.rows; ++r, ++g) {
      ASSERT_LT(g, whole.rows) << label;
      for (std::size_t c = 0; c < part.schema.size(); ++c) {
        const db::DataType t = part.schema[c].type;
        const auto want = db::parse_as(ref.rows[g][c], t);
        ASSERT_TRUE(want.has_value()) << label << " row " << g;
        ASSERT_TRUE(test::same_value(part.cell(r, c), *want))
            << label << " row " << g << " col " << part.schema[c].name;
        if (t == whole.schema[c].type) {
          ASSERT_TRUE(test::same_value(part.cell(r, c), whole.cell(g, c)))
              << label << " row " << g << " col " << part.schema[c].name;
        }
      }
      for (std::size_t c = part.schema.size(); c < whole.schema.size();
           ++c) {
        ASSERT_TRUE(db::is_null(whole.cell(g, c)))
            << label << " row " << g << " col " << whole.schema[c].name;
      }
    }
  }
  EXPECT_EQ(g, whole.rows) << label;
}

// Resumable parsing: feeding a file through parse_more() in pieces on one
// State, then finish(), must equal one parse() of the whole file — the same
// throw, or the same final schema, cells and stats — and both must match the
// oracle. Pieces are line-aligned; sar XML also takes pieces cut at any
// byte. The clean inputs are cut at every line (and sar XML at every byte),
// so each header, tomcat call column, skipped banner line and XML construct
// meets a cut.
TEST(FastParseProperty, ChunkedParseMatchesOneShot) {
  std::mt19937 rng(20170605);  // deterministic: failures must reproduce
  DeclarationRegistry registry;
  for (const auto& f : all_fixtures()) {
    const Declaration* decl = registry.match(f.file);
    ASSERT_NE(decl, nullptr);
    auto fp = FastParser::compile(*decl);
    ASSERT_NE(fp, nullptr);
    ParseContext ctx{"web1", f.file, decl};
    std::vector<std::string> inputs = {f.content};
    for (int iter = 0; iter < 40; ++iter) {
      inputs.push_back(mutate(f.content, rng));
    }
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      SCOPED_TRACE(std::string(f.file) + " input " + std::to_string(k));
      ParseStats whole_stats;
      const auto whole =
          unless_throws([&] { return fp->parse(inputs[k], whole_stats); });
      const auto ref =
          unless_throws([&] { return reference_parse(inputs[k], ctx); });
      ASSERT_EQ(whole.has_value(), ref.has_value());
      if (ref) expect_batch_matches(*ref, *whole, f.file);

      const unsigned every = k == 0 ? 1 : 1 + rng() % 6;
      std::vector<std::vector<std::string_view>> cuttings = {
          cut_at_lines(inputs[k], every, rng)};
      if (decl->parser_id == "sar_xml") {
        cuttings.push_back(cut_at_bytes(inputs[k], k == 0 ? 1 : 40, rng));
      }
      for (const auto& pieces : cuttings) {
        ParseStats chunk_stats;
        const auto chunked = unless_throws(
            [&] { return parse_pieces(*fp, pieces, chunk_stats); });
        ASSERT_EQ(whole.has_value(), chunked.has_value());
        if (!whole) continue;
        expect_pieces_match(*ref, *whole, *chunked, f.file);
        EXPECT_EQ(whole_stats.lines, chunk_stats.lines);
        EXPECT_EQ(whole_stats.rejected, chunk_stats.rejected);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Tentpole: batch pipeline parity and worker-pool determinism. The suite
// name carries "StreamingParity" so CI's TSan job picks up the threaded
// variants.
// ---------------------------------------------------------------------------

class StreamingParityFastpath : public ::testing::Test {
 protected:
  /// Streams every fixture into a fresh warehouse with the given transform
  /// config, chunked at awkward boundaries, with mid-stream parse_all()
  /// ticks. Deterministic by construction.
  static void stream_all(db::Database& db, const TransformConfig& tc) {
    StreamingTransformer::Config cfg;
    cfg.transform = tc;
    StreamingTransformer st(db, cfg);
    const auto fixtures = all_fixtures();
    std::size_t chunk = 7;
    std::vector<std::size_t> off(fixtures.size(), 0);
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t i = 0; i < fixtures.size(); ++i) {
        const std::string& c = fixtures[i].content;
        if (off[i] >= c.size()) continue;
        const std::size_t n = std::min(chunk, c.size() - off[i]);
        st.ingest("web1", fixtures[i].file,
                  std::string_view(c).substr(off[i], n));
        off[i] += n;
        chunk = chunk * 2 + 1;  // 7, 15, 31 ... then wrap
        if (chunk > 4096) chunk = 7;
        progress = true;
      }
      st.parse_all();
    }
    st.finalize();
  }
};

TEST_F(StreamingParityFastpath, WorkerPoolWarehouseIsByteIdentical) {
  TransformConfig serial;
  TransformConfig pooled;
  pooled.parse_workers = 4;

  db::Database db_serial, db_pooled;
  stream_all(db_serial, serial);
  stream_all(db_pooled, pooled);

  expect_identical_databases(db_serial, db_pooled, "1 vs 4 workers");
  const DeclarationRegistry registry;
  for (const auto& f : all_fixtures()) {
    test::expect_table_matches_oracle(db_serial, *registry.match(f.file),
                                      "web1", f.file, f.content);
  }
  EXPECT_FALSE(db_serial.table_names().empty());
}

TEST_F(StreamingParityFastpath, BatchTransformerFastPathMatchesReference) {
  namespace fs = std::filesystem;
  const test::ScratchDir dir("fastparse_batch");
  const fs::path& run_dir = dir.path();
  const auto fixtures = all_fixtures();
  for (const auto& f : fixtures) {
    fs::create_directories(run_dir / "web1");
    std::ofstream(run_dir / "web1" / f.file, std::ios::binary) << f.content;
  }

  db::Database db_fast;
  const auto rep_fast = DataTransformer().run(run_dir, db_fast);

  // What the oracle makes of each file: its rows, and whether it yields a
  // table at all.
  const DeclarationRegistry registry;
  std::size_t ref_rows = 0;
  std::size_t ref_tables = 0;
  ASSERT_EQ(rep_fast.files.size(), fixtures.size());
  for (const auto& file : rep_fast.files) {
    const auto f = std::find_if(
        fixtures.begin(), fixtures.end(),
        [&](const FormatFixture& x) { return file.file == x.file; });
    const Declaration* decl = registry.match(file.file);
    const Conversion ref =
        reference_parse(f->content, {"web1", file.file, decl});
    const std::size_t entries = ref.schema.empty() ? 0 : ref.rows.size();
    ref_rows += entries;
    ref_tables += ref.schema.empty() ? 0 : 1;
    EXPECT_EQ(file.entries, entries) << file.file;
    test::expect_table_matches_oracle(db_fast, *decl, "web1", file.file,
                                      f->content);
  }
  EXPECT_EQ(rep_fast.rows_loaded, ref_rows);
  EXPECT_EQ(rep_fast.tables_created, ref_tables);
}

}  // namespace
}  // namespace mscope
