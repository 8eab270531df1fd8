// Typed columnar ingest: Table::append against row-by-row insert, the
// streamed "-0" sign through an in-place widening, the typed QueueSignal,
// and typing on parse workers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <queue>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "catalog_equal.h"
#include "core/queue_signal.h"
#include "db/column_batch.h"
#include "db/database.h"
#include "db/wal/wal.h"
#include "logging/formats.h"
#include "obs/metrics.h"
#include "scratch_dir.h"
#include "transform/streaming.h"
#include "util/simtime.h"

namespace mscope {
namespace {

namespace fmt = logging::formats;
using util::kMsec;
using util::SimTime;

/// A batch holding `rows` (each one Value per schema column) in column form.
db::ColumnBatch batch_of(const db::Schema& schema,
                         const std::vector<db::Table::Row>& rows) {
  db::ColumnBatch b;
  b.schema = schema;
  b.rows = rows.size();
  b.columns.resize(schema.size());
  for (std::size_t c = 0; c < schema.size(); ++c) {
    db::ColumnBatch::Column& col = b.columns[c];
    col.type = schema[c].type;
    col.valid.assign(rows.size(), 0);
    col.ints.assign(col.type == db::DataType::kInt ? rows.size() : 0, 0);
    col.doubles.assign(col.type == db::DataType::kDouble ? rows.size() : 0,
                       0.0);
    col.texts.resize(col.type == db::DataType::kText ? rows.size() : 0);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const db::Value& v = rows[r][c];
      if (db::is_null(v)) continue;
      col.valid[r] = 1;
      switch (col.type) {
        case db::DataType::kInt: col.ints[r] = std::get<std::int64_t>(v); break;
        case db::DataType::kDouble: col.doubles[r] = std::get<double>(v); break;
        default: col.texts[r] = std::get<db::TextRef>(v); break;
      }
    }
  }
  return b;
}

std::string file_bytes(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).get();
}

// ---------------------------------------------------------------------------
// Table::append
// ---------------------------------------------------------------------------

const db::Schema kEventSchema = {{"ts_usec", db::DataType::kInt},
                                 {"ua_usec", db::DataType::kInt},
                                 {"lat", db::DataType::kDouble},
                                 {"url", db::DataType::kText}};

/// 60 event rows with NULLs in every column, a few anchors out of order,
/// and -0.0 / repeated texts.
std::vector<db::Table::Row> event_rows() {
  std::vector<db::Table::Row> rows;
  for (int i = 0; i < 60; ++i) {
    db::Table::Row row;
    const std::int64_t ts = (i % 9 == 4 ? i - 3 : i) * 250'000;
    row.emplace_back(i % 17 == 5 ? db::Value{} : db::Value{ts});
    row.emplace_back(i % 11 == 7 ? db::Value{} : db::Value{ts + 40});
    row.emplace_back(i % 13 == 2 ? db::Value{}
                     : i % 10 == 0 ? db::Value{-0.0}
                                   : db::Value{i * 0.5});
    row.emplace_back(i % 7 == 3 ? db::Value{}
                                : db::Value{db::TextRef(
                                      "/u" + std::to_string(i % 4))});
    rows.push_back(std::move(row));
  }
  return rows;
}

struct Loaded {
  std::string wal;
  std::uint64_t frames = 0;  ///< WAL mutation frames
  std::uint64_t inserts = 0;
  std::uint64_t seals = 0;
  std::vector<db::TimeIndex::Entry> ts_index;
  std::vector<db::TimeIndex::Entry> ua_index;
};

/// Loads `rows` into a fresh journaled table "ev_t" (small seals, warm time
/// indexes), by one append() or by one insert() per row.
Loaded load(db::Database& db, const std::filesystem::path& wal_path,
            const std::vector<db::Table::Row>& rows, bool by_batch) {
  Loaded out;
  {
    db::wal::WalWriter wal(wal_path);
    db.set_journal(&wal);
    db::Table& t = db.create_table("ev_t", kEventSchema);
    t.set_storage_config({/*seal_rows=*/8, /*partition_usec=*/1'000'000});
    (void)t.time_index("ts_usec");
    (void)t.time_index("ua_usec");
    const std::uint64_t inserts0 = counter("db.table.inserts");
    const std::uint64_t seals0 = counter("db.table.seals");
    if (by_batch) {
      t.append(batch_of(kEventSchema, rows), 0, rows.size());
    } else {
      for (const auto& row : rows) t.insert(row);
    }
    out.inserts = counter("db.table.inserts") - inserts0;
    out.seals = counter("db.table.seals") - seals0;
    const auto ts = t.find_time_index(0)->entries();
    const auto ua = t.find_time_index(1)->entries();
    out.ts_index.assign(ts.begin(), ts.end());
    out.ua_index.assign(ua.begin(), ua.end());
    wal.commit();
    db.set_journal(nullptr);
    out.frames = wal.stats().frames;
  }
  out.wal = file_bytes(wal_path);
  return out;
}

bool same_entries(const std::vector<db::TimeIndex::Entry>& a,
                  const std::vector<db::TimeIndex::Entry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].row != b[i].row) return false;
  }
  return true;
}

TEST(TableAppend, MatchesRowByRowInsert) {
  const test::ScratchDir dir("table_append");
  const auto rows = event_rows();
  db::Database by_batch, by_row;
  const Loaded a = load(by_batch, dir.path() / "batch.wal", rows, true);
  const Loaded b = load(by_row, dir.path() / "rows.wal", rows, false);

  test::expect_identical_catalogs(by_batch, by_row);
  EXPECT_EQ(a.inserts, rows.size());
  EXPECT_EQ(a.inserts, b.inserts);
  EXPECT_GT(a.seals, 0u);
  EXPECT_EQ(a.seals, b.seals);
  EXPECT_EQ(by_batch.get("ev_t").storage().segments().size(),
            by_row.get("ev_t").storage().segments().size());
  EXPECT_TRUE(same_entries(a.ts_index, b.ts_index));
  EXPECT_TRUE(same_entries(a.ua_index, b.ua_index));
  // The batch journals column ranges, the inserts one frame per row; each
  // log replays into a catalog identical to its live one.
  EXPECT_FALSE(a.wal.empty());
  EXPECT_LT(a.frames, b.frames);
  for (const auto& [wal, live] :
       {std::pair{dir.path() / "batch.wal", &by_batch},
        std::pair{dir.path() / "rows.wal", &by_row}}) {
    db::Database replayed;
    const db::wal::ReplayStats rs = db::wal::replay(wal, replayed);
    EXPECT_TRUE(rs.warnings.empty());
    EXPECT_EQ(rs.inserts_applied, rows.size());
    test::expect_identical_catalogs(replayed, *live);
  }
  // -0.0 keeps its sign through the batch.
  EXPECT_TRUE(std::signbit(std::get<double>(by_batch.get("ev_t").at(0, 2))));
}

TEST(TableAppend, RangeAppendsOnlyThoseRows) {
  const auto rows = event_rows();
  const db::ColumnBatch batch = batch_of(kEventSchema, rows);
  db::Database db;
  db::Table& t = db.create_table("ev_t", kEventSchema);
  t.append(batch, 10, 25);
  t.append(batch, 25, 25);  // empty range: nothing lands
  ASSERT_EQ(t.row_count(), 15u);
  for (std::size_t r = 0; r < 15; ++r) {
    for (std::size_t c = 0; c < kEventSchema.size(); ++c) {
      EXPECT_TRUE(test::same_value(t.at(r, c), rows[r + 10][c]))
          << "row " << r << " col " << c;
    }
  }
}

TEST(TableAppend, IntCellsIntoDoubleColumnConvertLikeInsert) {
  const db::Schema batch_schema = {{"v", db::DataType::kInt}};
  const db::Schema table_schema = {{"v", db::DataType::kDouble}};
  const std::vector<db::Table::Row> rows = {
      {db::Value{std::int64_t{3}}},
      {db::Value{}},
      {db::Value{std::int64_t{-7}}},
      {db::Value{std::int64_t{9007199254740993}}}};
  db::Database a, b;
  db::Table& ta = a.create_table("t", table_schema);
  db::Table& tb = b.create_table("t", table_schema);
  ta.append(batch_of(batch_schema, rows), 0, rows.size());
  for (const auto& row : rows) tb.insert(row);
  test::expect_identical_catalogs(a, b);
  EXPECT_EQ(db::type_of(ta.at(0, 0)), db::DataType::kDouble);
  EXPECT_EQ(std::get<double>(ta.at(2, 0)), -7.0);
  EXPECT_TRUE(db::is_null(ta.at(1, 0)));
}

TEST(TableAppend, TypeMismatchNamesTableAndColumnAndAppendsNothing) {
  const db::Schema table_schema = {{"ts_usec", db::DataType::kInt},
                                   {"host", db::DataType::kInt}};
  const db::Schema batch_schema = {{"ts_usec", db::DataType::kInt},
                                   {"host", db::DataType::kText}};
  const db::ColumnBatch batch = batch_of(
      batch_schema, {{db::Value{std::int64_t{1}}, db::Value{"web1"}}});
  db::Database db;
  db::Table& t = db.create_table("res_x", table_schema);
  try {
    t.append(batch, 0, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("res_x"), std::string::npos) << what;
    EXPECT_NE(what.find("host"), std::string::npos) << what;
  }
  EXPECT_EQ(t.row_count(), 0u);

  // Double cells never narrow into an Int column, and arity must match.
  const db::ColumnBatch wide = batch_of(
      {{"ts_usec", db::DataType::kDouble}, {"host", db::DataType::kInt}},
      {{db::Value{1.5}, db::Value{std::int64_t{2}}}});
  EXPECT_THROW(t.append(wide, 0, 1), std::invalid_argument);
  const db::ColumnBatch narrow =
      batch_of({{"ts_usec", db::DataType::kInt}},
               {{db::Value{std::int64_t{1}}}});
  EXPECT_THROW(t.append(narrow, 0, 1), std::invalid_argument);
  EXPECT_EQ(t.row_count(), 0u);
}

// ---------------------------------------------------------------------------
// "-0" through an in-place Int -> Double widening
// ---------------------------------------------------------------------------

std::string collectl_row(int i, const char* que_len) {
  fmt::CpuRow c;
  c.t = i * 100 * kMsec;
  c.user = 20;
  c.system = 4;
  c.iowait = 2;
  c.idle = 74;
  fmt::DiskRow d;
  d.t = c.t;
  d.read_kbs = 100;
  d.write_kbs = 30;
  d.util = 10;
  fmt::MemRow m;
  m.t = c.t;
  m.dirty_kb = 100;
  m.cached_kb = 2048;
  // The last field, QueLen, is printed as an integer; replace it.
  std::string row = fmt::collectl_csv_row(c, d, m);
  return row.substr(0, row.rfind(',') + 1) + que_len + "\n";
}

TEST(StreamingTransformer, NegativeZeroKeepsItsSignWhenItsColumnWidens) {
  // "-0" lands as Int 0 while the column is Int. A later "1.5" widens the
  // column to Double: in place, the cell would become +0.0, but a one-pass
  // parse (and the oracle) types the column Double from the start and
  // reads -0.0. The widening must rebuild instead.
  const std::string head = fmt::collectl_csv_header() + "\n";
  const std::string first = head + collectl_row(0, "-0") + collectl_row(1, "3");
  const std::string second = collectl_row(2, "1.5");

  db::Database streamed;
  transform::StreamingTransformer st(streamed);
  st.ingest("db1", "collectl.csv", first);
  st.parse_all();
  const std::string table = "res_collectl_db1";
  ASSERT_TRUE(streamed.exists(table));
  const auto col = streamed.get(table).column_index("dsk_quelen");
  ASSERT_TRUE(col.has_value());
  EXPECT_EQ(streamed.get(table).schema()[*col].type, db::DataType::kInt);
  st.ingest("db1", "collectl.csv", second);
  st.finalize();

  const db::Table& t = streamed.get(table);
  ASSERT_EQ(t.schema()[*col].type, db::DataType::kDouble);
  ASSERT_EQ(t.row_count(), 3u);
  const db::Value v = t.at(0, *col);
  ASSERT_EQ(db::type_of(v), db::DataType::kDouble);
  EXPECT_TRUE(std::signbit(std::get<double>(v)));
  EXPECT_EQ(st.stats().inplace_widens, 0u);
  EXPECT_EQ(st.stats().schema_rebuilds, 1u);

  db::Database one_pass;
  transform::StreamingTransformer st1(one_pass);
  st1.ingest("db1", "collectl.csv", first + second);
  st1.finalize();
  test::expect_identical_catalogs(streamed, one_pass);
}

TEST(StreamingTransformer, PositiveZeroStillWidensInPlace) {
  // Only a negative zero makes Int -> Double inexact.
  const std::string head = fmt::collectl_csv_header() + "\n";
  db::Database streamed;
  transform::StreamingTransformer st(streamed);
  st.ingest("db1", "collectl.csv", head + collectl_row(0, "0"));
  st.parse_all();
  st.ingest("db1", "collectl.csv", collectl_row(1, "1.5"));
  st.finalize();
  EXPECT_EQ(st.stats().inplace_widens, 1u);
  EXPECT_EQ(st.stats().schema_rebuilds, 1u);
}

// ---------------------------------------------------------------------------
// QueueSignal reads typed columns
// ---------------------------------------------------------------------------

using Sample = std::tuple<SimTime, std::string, double>;

TEST(QueueSignal, SkipsRowsWithANullArrivalOrDeparture) {
  const db::Schema schema = {{"ua_usec", db::DataType::kInt},
                             {"ud_usec", db::DataType::kInt}};
  const db::Value none;
  const auto i = [](std::int64_t v) { return db::Value{v}; };
  const db::ColumnBatch batch =
      batch_of(schema, {{i(0), i(10)}, {none, i(10)}, {i(3), i(8)},
                        {i(4), none}, {none, none}});
  core::QueueSignal qs(/*watermark=*/5);
  qs.on_rows("ev_t", batch, 0, batch.rows);
  qs.on_rows("res_t", batch, 0, batch.rows);  // not an event table
  std::vector<Sample> got;
  qs.evaluate([&](SimTime t, const std::string& table, double depth) {
    got.emplace_back(t, table, depth);
  });
  // Only (0, 10) and (3, 8) count: at 10 - 5 both have arrived and neither
  // has left. A NULL read as 0 would add an arrival at 0.
  EXPECT_EQ(got, (std::vector<Sample>{{5, "ev_t", 2.0}}));
}

/// The string-row signal the typed one replaced: each row's cells rendered
/// to text, ua_usec / ud_usec found by name and read back with strtoll.
class StringRowQueueSignal {
 public:
  explicit StringRowQueueSignal(SimTime watermark) : watermark_(watermark) {}

  void on_row(const std::string& table, const db::Schema& schema,
              const std::vector<std::string>& row) {
    if (table.rfind("ev_", 0) != 0) return;
    std::size_t ua_col = schema.size();
    std::size_t ud_col = schema.size();
    for (std::size_t i = 0; i < schema.size(); ++i) {
      if (schema[i].name == "ua_usec") ua_col = i;
      if (schema[i].name == "ud_usec") ud_col = i;
    }
    if (ua_col >= row.size() || ud_col >= row.size()) return;
    if (row[ua_col].empty() || row[ud_col].empty()) return;
    const std::int64_t ua = std::strtoll(row[ua_col].c_str(), nullptr, 10);
    const std::int64_t ud = std::strtoll(row[ud_col].c_str(), nullptr, 10);
    if (ud < ua) return;
    State& q = queues_[table];
    q.arrivals.push(ua);
    q.departures.push(ud);
    if (ud > q.max_ud) q.max_ud = ud;
  }

  void evaluate(std::vector<Sample>& out) {
    for (auto& [table, q] : queues_) {
      const std::int64_t t_eval = q.max_ud - watermark_;
      if (t_eval <= q.last_eval) continue;
      while (!q.arrivals.empty() && q.arrivals.top() <= t_eval) {
        q.arrivals.pop();
        ++q.depth;
      }
      while (!q.departures.empty() && q.departures.top() <= t_eval) {
        q.departures.pop();
        --q.depth;
      }
      q.last_eval = t_eval;
      out.emplace_back(t_eval, table, static_cast<double>(q.depth));
    }
  }

 private:
  struct State {
    using MinHeap = std::priority_queue<std::int64_t,
                                        std::vector<std::int64_t>,
                                        std::greater<>>;
    MinHeap arrivals;
    MinHeap departures;
    std::int64_t depth = 0;
    std::int64_t max_ud = 0;
    std::int64_t last_eval = -1;
  };
  SimTime watermark_;
  std::map<std::string, State> queues_;
};

std::string apache_stream(int n) {
  std::string s;
  for (int i = 0; i < n; ++i) {
    fmt::ApacheRecord r;
    r.ua = i * 7 * kMsec;
    r.ud = r.ua + (i % 23 == 0 ? 400 : 3 + i % 9) * kMsec;
    r.ds = r.ua + kMsec;
    r.dr = r.ud - kMsec;
    r.id = 0x100 + static_cast<std::uint64_t>(i);
    r.url = "/rubbos/Search";
    r.status = 200;
    r.bytes = 1024;
    r.instrumented = i % 5 != 4;  // baseline lines have no ua/ud
    s += fmt::apache_access(r) + "\n";
  }
  return s;
}

TEST(QueueSignal, StreamedFixtureEmitsTheStringRowSamples) {
  // Two event files streamed in uneven chunks, one tick per chunk: the typed
  // signal must emit, tick for tick, what the string-row signal emits on the
  // same rows.
  const std::vector<std::pair<std::string, std::string>> files = {
      {"web1", apache_stream(400)}, {"web2", apache_stream(250)}};
  db::Database db;
  transform::StreamingTransformer st(db);
  core::QueueSignal typed(50 * kMsec);
  StringRowQueueSignal strings(50 * kMsec);
  std::size_t rows_seen = 0;
  st.set_row_observer([&](const std::string& table,
                          const db::ColumnBatch& batch, std::size_t first,
                          std::size_t end) {
    typed.on_rows(table, batch, first, end);
    for (std::size_t r = first; r < end; ++r) {
      std::vector<std::string> row;
      for (std::size_t c = 0; c < batch.schema.size(); ++c) {
        row.push_back(db::value_to_string(batch.cell(r, c)));
      }
      strings.on_row(table, batch.schema, row);
      ++rows_seen;
    }
  });
  std::vector<Sample> got, want;
  std::vector<std::size_t> off(files.size(), 0);
  std::size_t chunk = 300;
  for (bool more = true; more;) {
    more = false;
    for (std::size_t f = 0; f < files.size(); ++f) {
      const std::string& c = files[f].second;
      if (off[f] >= c.size()) continue;
      const std::size_t n = std::min(chunk, c.size() - off[f]);
      st.ingest(files[f].first, "apache_access.log",
                std::string_view(c).substr(off[f], n));
      off[f] += n;
      chunk = chunk % 2000 + 613;
      more = true;
    }
    st.parse_all();
    typed.evaluate([&](SimTime t, const std::string& table, double depth) {
      got.emplace_back(t, table, depth);
    });
    strings.evaluate(want);
  }
  st.finalize();
  typed.evaluate([&](SimTime t, const std::string& table, double depth) {
    got.emplace_back(t, table, depth);
  });
  strings.evaluate(want);

  EXPECT_EQ(rows_seen, 650u);
  EXPECT_GT(want.size(), 20u);
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------------
// Typing on parse workers
// ---------------------------------------------------------------------------

/// Tomcat and Apache logs with unique request ids and URLs (the text cache
/// gives up on those) next to low-cardinality servlets and methods.
std::vector<std::pair<std::string, std::string>> typed_fixtures() {
  std::vector<std::pair<std::string, std::string>> out;
  for (int node = 0; node < 6; ++node) {
    std::string apache, tomcat;
    for (int i = 0; i < 600; ++i) {
      fmt::ApacheRecord a;
      a.ua = (i * 3 + node) * kMsec;
      a.ud = a.ua + (2 + i % 11) * kMsec;
      a.ds = a.ua + kMsec / 2;
      a.dr = a.ud - kMsec / 2;
      a.id = static_cast<std::uint64_t>(node) << 20 | static_cast<unsigned>(i);
      a.url = "/rubbos/ViewStory?storyId=" + std::to_string(i * 7 + node);
      a.status = i % 31 == 0 ? 500 : 200;
      a.bytes = 900 + static_cast<std::uint64_t>(i);
      a.instrumented = i % 9 != 8;
      apache += fmt::apache_access(a) + "\n";
      fmt::TomcatRecord t;
      t.ua = a.ua + kMsec;
      t.ud = a.ud - kMsec;
      t.id = a.id;
      t.servlet = i % 3 == 0 ? "ViewStory" : "Search";
      for (int c = 0; c < i % 3; ++c) {
        const SimTime ds = t.ua + (c + 1) * 100;
        t.calls.emplace_back(ds, ds + 50);
      }
      tomcat += fmt::tomcat_monitor(t) + "\n";
    }
    out.emplace_back("n" + std::to_string(node), std::move(apache));
    out.emplace_back("n" + std::to_string(node), std::move(tomcat));
  }
  return out;
}

void stream_typed(db::Database& db, unsigned workers) {
  transform::StreamingTransformer::Config cfg;
  cfg.transform.parse_workers = workers;
  transform::StreamingTransformer st(db, cfg);
  const auto files = typed_fixtures();
  std::vector<std::size_t> off(files.size(), 0);
  std::size_t chunk = 1000;
  for (bool more = true; more;) {
    more = false;
    for (std::size_t f = 0; f < files.size(); ++f) {
      const std::string& c = files[f].second;
      if (off[f] >= c.size()) continue;
      const std::size_t n = std::min(chunk, c.size() - off[f]);
      st.ingest(files[f].first,
                f % 2 == 0 ? "apache_access.log" : "tomcat_mscope.log",
                std::string_view(c).substr(off[f], n));
      off[f] += n;
      chunk = chunk % 9000 + 1777;
      more = true;
    }
    st.parse_all();
  }
  st.finalize();
}

TEST(TypedIngest, FourParseWorkersTypeCellsLikeOne) {
  db::Database serial, pooled;
  stream_typed(serial, 1);
  stream_typed(pooled, 4);
  test::expect_identical_catalogs(serial, pooled);
  ASSERT_TRUE(pooled.exists("ev_apache_n0"));
  const db::Table& t = pooled.get("ev_apache_n0");
  EXPECT_EQ(t.row_count(), 600u);
  // The URL column is unique per row: each cell is its own string.
  const auto url = t.column_index("url");
  ASSERT_TRUE(url.has_value());
  EXPECT_NE(db::as_text(t.at(5, *url)).find("storyId=35"), std::string::npos);
}

}  // namespace
}  // namespace mscope
