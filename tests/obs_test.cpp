// mScopeMeta tests: exactness of the concurrent metrics substrate, span
// nesting and Chrome trace export, the registry -> warehouse round trip,
// leveled logging, and — the layer's central promise — that opting out
// leaves the monitored warehouse byte-identical to a run without
// observability while opting in dogfoods the pipeline's health into the
// very mScopeDB it fills.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/milliscope.h"
#include "db/sql.h"
#include "obs/log.h"
#include "obs/meta_exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scratch_dir.h"

namespace mscope {
namespace {

namespace fs = std::filesystem;
using util::sec;
using util::SimTime;

// --- Metrics: the lock-cheap concurrent substrate --------------------------

TEST(ObsMetrics, ConcurrentCounterIncrementsAreExact) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("test.hits");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 200'000;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    pool.emplace_back([&c] {
      for (std::uint64_t n = 0; n < kPerThread; ++n) c.inc();
    });
  }
  for (auto& t : pool) t.join();
  // Relaxed ordering never loses increments — atomicity is per-RMW.
  EXPECT_EQ(c.get(), kThreads * kPerThread);
}

TEST(ObsMetrics, ConcurrentHistogramCountIsExact) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("test.latency");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    pool.emplace_back([&h, i] {
      for (int n = 0; n < kPerThread; ++n) h.record(100 + i);
    });
  }
  for (auto& t : pool) t.join();
  const util::LatencyHistogram merged = h.merged();
  // Sharding spreads contention but every record lands in exactly one shard;
  // the merge is exact on counts.
  EXPECT_EQ(merged.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_GE(merged.max(), 107);
  // 1% precision: the p50 representative lands inside the recorded range
  // (values 100..107 may share one bucket at this geometry).
  EXPECT_GE(merged.percentile(50), 100);
  EXPECT_LE(merged.percentile(50), 107);
}

TEST(ObsMetrics, RegistryHandsOutStableReferences) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("stable.one");
  obs::Gauge& g = reg.gauge("stable.two");
  a.add(7);
  g.set(-3);
  // Registering more instruments must not move the earlier ones — call
  // sites cache these references in function-local statics.
  for (int i = 0; i < 100; ++i) {
    (void)reg.counter("filler." + std::to_string(i));
  }
  EXPECT_EQ(&reg.counter("stable.one"), &a);
  EXPECT_EQ(&reg.gauge("stable.two"), &g);
  EXPECT_EQ(a.get(), 7u);
  EXPECT_EQ(g.get(), -3);
}

TEST(ObsMetrics, SnapshotIsSortedAndTyped) {
  obs::Registry reg;
  reg.counter("b.counter").add(2);
  reg.gauge("a.gauge").set(5);
  reg.histogram("c.hist").record(1000);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.gauge");
  EXPECT_EQ(snap[0].kind, obs::MetricSample::Kind::kGauge);
  EXPECT_DOUBLE_EQ(snap[0].value, 5.0);
  EXPECT_EQ(snap[1].name, "b.counter");
  EXPECT_EQ(snap[1].kind, obs::MetricSample::Kind::kCounter);
  EXPECT_DOUBLE_EQ(snap[1].value, 2.0);
  EXPECT_EQ(snap[2].name, "c.hist");
  EXPECT_EQ(snap[2].kind, obs::MetricSample::Kind::kHistogram);
  EXPECT_EQ(snap[2].count, 1u);

  reg.reset();
  for (const auto& s : reg.snapshot()) {
    EXPECT_DOUBLE_EQ(s.value, 0.0) << s.name;
    EXPECT_EQ(s.count, 0u) << s.name;
  }
}

// --- Tracer: spans on the virtual timeline ---------------------------------

TEST(ObsTrace, ScopedSpansNestAndStampVirtualTime) {
  SimTime now = 0;
  obs::Tracer tr([&now] { return now; });
  {
    now = 1000;
    auto outer = tr.span("outer", "t");
    EXPECT_EQ(tr.open_depth(), 1u);
    {
      now = 1500;
      auto inner = tr.span("inner", "t");
      EXPECT_EQ(tr.open_depth(), 2u);
      now = 1700;
    }
    EXPECT_EQ(tr.open_depth(), 1u);
    now = 2000;
  }
  EXPECT_EQ(tr.open_depth(), 0u);
  ASSERT_EQ(tr.spans().size(), 2u);
  const auto& outer = tr.spans()[0];
  const auto& inner = tr.spans()[1];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.begin, 1000);
  EXPECT_EQ(outer.end, 2000);
  EXPECT_EQ(outer.depth, 0);
  EXPECT_GE(outer.wall_usec, 0);  // host cost measured, not virtual
  EXPECT_EQ(inner.begin, 1500);
  EXPECT_EQ(inner.end, 1700);
  EXPECT_EQ(inner.depth, 1);
}

TEST(ObsTrace, BoundedCapacityDropsAndCounts) {
  SimTime now = 0;
  obs::Tracer::Config cfg;
  cfg.max_spans = 2;
  obs::Tracer tr([&now] { return now; }, cfg);
  tr.record("a", "t", 0, 10);
  { auto s = tr.span("b", "t"); }
  { auto s = tr.span("c", "t"); }  // over capacity: inert handle
  tr.record("d", "t", 5, 15);      // over capacity: dropped
  EXPECT_EQ(tr.spans().size(), 2u);
  EXPECT_EQ(tr.dropped(), 2u);
  // record() clamps a backwards interval instead of exporting negative dur.
  SimTime unused = 0;
  obs::Tracer tr2([&unused] { return unused; });
  tr2.record("neg", "t", 100, 50);
  EXPECT_EQ(tr2.spans()[0].end, 100);
}

/// Minimal structural JSON check: balanced braces/brackets outside string
/// literals, no trailing garbage. Not a full parser — enough to catch the
/// classic hand-rolled-JSON failures (stray comma, unescaped quote).
void expect_balanced_json(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped char
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{':
      case '[': ++depth; break;
      case '}':
      case ']':
        --depth;
        ASSERT_GE(depth, 0) << "unbalanced at byte " << i;
        break;
      case ',':
        // A comma immediately before a closing token is invalid JSON.
        ASSERT_TRUE(i + 1 < s.size() && s[i + 1] != '}' && s[i + 1] != ']')
            << "trailing comma at byte " << i;
        break;
      default: break;
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
}

std::size_t count_occurrences(const std::string& s, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = s.find(needle); pos != std::string::npos;
       pos = s.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(ObsTrace, ChromeJsonIsWellFormedAndSkipsOpenSpans) {
  SimTime now = 0;
  obs::Tracer tr([&now] { return now; });
  now = 100;
  { auto s = tr.span("closed\"quoted", "ship:db1"); now = 250; }
  tr.record("flight", "aggregate", 300, 450);
  auto open = tr.span("still-open", "transform");  // never closed below

  const std::string json = tr.to_chrome_json();
  expect_balanced_json(json);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  // Two closed spans -> two "X" events; the open one must not be exported.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 2u);
  EXPECT_EQ(json.find("still-open"), std::string::npos);
  // One thread_name metadata event per exported track, names escaped.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"M\""), 2u);
  EXPECT_NE(json.find("closed\\\"quoted"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":100,\"dur\":150"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":300,\"dur\":150"), std::string::npos);
  open.close();
}

// --- MetaExporter: registry -> warehouse round trip ------------------------

/// A one-cell SQL answer, as a double.
double sql_scalar(const db::Catalog& db, const std::string& query) {
  return db::as_double(db::Sql::execute(db, query).at(0, 0)).value();
}

TEST(ObsExporter, MetricsRoundTripMatchesSnapshot) {
  obs::Registry reg;
  reg.counter("rt.counter").add(42);
  reg.gauge("rt.gauge").set(-7);
  db::Database db;
  obs::MetaExporter meta(db, reg);
  EXPECT_FALSE(db.exists(meta.metrics_table()));  // lazy: nothing exported yet

  meta.export_metrics(sec(5));
  ASSERT_TRUE(db.exists(meta.metrics_table()));
  const db::Table& t = db.get(meta.metrics_table());
  ASSERT_EQ(t.row_count(), 2u);

  // Query the monitor's own health with the same engine it measures.
  const std::string from = " FROM " + meta.metrics_table();
  EXPECT_DOUBLE_EQ(
      sql_scalar(db, "SELECT MAX(value)" + from + " WHERE name = 'rt.counter'"),
      42.0);
  EXPECT_DOUBLE_EQ(
      sql_scalar(db, "SELECT MIN(value)" + from + " WHERE name = 'rt.gauge'"),
      -7.0);
  EXPECT_DOUBLE_EQ(sql_scalar(db, "SELECT COUNT(*)" + from +
                                      " WHERE ts_usec = " +
                                      std::to_string(sec(5))),
                   2.0);

  // A second export appends a new tick — a time series per metric name.
  reg.counter("rt.counter").add(8);
  meta.export_metrics(sec(6));
  EXPECT_EQ(t.row_count(), 4u);
  EXPECT_DOUBLE_EQ(
      sql_scalar(db, "SELECT MAX(value)" + from + " WHERE name = 'rt.counter'"),
      50.0);
  EXPECT_EQ(meta.stats().exports, 2u);
  EXPECT_EQ(meta.stats().metric_rows, 4u);
}

TEST(ObsExporter, HistogramTableRoundTrip) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("rt.lat");
  for (int i = 1; i <= 100; ++i) h.record(i * 1000);
  db::Database db;
  obs::MetaExporter meta(db, reg);
  meta.export_metrics(sec(1));

  ASSERT_TRUE(db.exists(meta.hist_table()));
  const db::Table& t = db.get(meta.hist_table());
  ASSERT_EQ(t.row_count(), 1u);
  const util::LatencyHistogram merged = h.merged();
  const std::string from = " FROM " + meta.hist_table();
  EXPECT_EQ(sql_scalar(db, "SELECT MAX(count)" + from),
            static_cast<double>(merged.count()));
  EXPECT_DOUBLE_EQ(sql_scalar(db, "SELECT MAX(mean_usec)" + from),
                   merged.mean());
  EXPECT_EQ(sql_scalar(db, "SELECT MAX(p99_usec)" + from),
            static_cast<double>(merged.percentile(99)));
  EXPECT_EQ(meta.stats().hist_rows, 1u);
}

TEST(ObsExporter, SpansExportIncrementallyAndSkipOpen) {
  SimTime now = 0;
  obs::Tracer tr([&now] { return now; });
  db::Database db;
  obs::Registry reg;
  obs::MetaExporter meta(db, reg);

  { auto s = tr.span("first", "t"); now = 100; }
  auto open = tr.span("open-at-export", "t");
  meta.export_spans(tr);
  ASSERT_TRUE(db.exists(meta.spans_table()));
  EXPECT_EQ(db.get(meta.spans_table()).row_count(), 1u);

  // The open span was skipped for good (documented); later spans still land.
  open.close();
  { now = 200; auto s = tr.span("second", "t"); now = 300; }
  meta.export_spans(tr);
  EXPECT_EQ(db.get(meta.spans_table()).row_count(), 2u);
  // Re-export with nothing new: the cursor holds, no duplicates.
  meta.export_spans(tr);
  EXPECT_EQ(db.get(meta.spans_table()).row_count(), 2u);
  EXPECT_EQ(meta.stats().span_rows, 2u);
}

// --- Log: the leveled choke point ------------------------------------------

TEST(ObsLog, LevelsSinkAndRecentRing) {
  obs::Log::clear_recent();
  std::vector<std::string> seen;
  obs::Log::set_sink([&seen](obs::Log::Level l, std::string_view msg) {
    seen.push_back(std::string(obs::Log::name(l)) + ":" + std::string(msg));
  });

  obs::Log::set_level(obs::Log::Level::kWarn);
  obs::Log::debug("too quiet");
  obs::Log::warn("lost a batch");
  obs::Log::error("bad frame");
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "WARN:lost a batch");
  EXPECT_EQ(seen[1], "ERROR:bad frame");

  // Quiet mode mutes the sink but the recent ring keeps recording, so a
  // post-mortem can still ask what went wrong.
  obs::Log::set_level(obs::Log::Level::kSilent);
  obs::Log::warn("while muted");
  EXPECT_EQ(seen.size(), 2u);
  const auto recent = obs::Log::recent();
  ASSERT_GE(recent.size(), 3u);
  EXPECT_NE(recent.back().find("while muted"), std::string::npos);

  obs::Log::clear_recent();
  EXPECT_TRUE(obs::Log::recent().empty());
  obs::Log::set_sink(nullptr);
  obs::Log::set_level(obs::Log::Level::kWarn);
}

// --- Opt-out parity: observability must not perturb the warehouse ----------

void expect_identical_non_meta(const db::Database& plain,
                               const db::Database& observed,
                               const std::string& meta_prefix) {
  std::vector<std::string> observed_names;
  for (const auto& name : observed.table_names()) {
    if (name.rfind(meta_prefix, 0) == 0) continue;
    observed_names.push_back(name);
  }
  ASSERT_EQ(plain.table_names(), observed_names);
  for (const auto& name : observed_names) {
    const db::Table& ta = plain.get(name);
    const db::Table& tb = observed.get(name);
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

class MetaParityFixture : public ::testing::Test {
 protected:
  static core::TestbedConfig base_config(const fs::path& log_dir) {
    core::TestbedConfig cfg;
    cfg.workload = 400;
    cfg.duration = sec(6);
    cfg.log_dir = log_dir;
    return cfg;
  }

  static db::Database* run_streamed(const fs::path& log_dir, bool observed) {
    core::Experiment exp(base_config(log_dir));
    auto* db = new db::Database();
    core::OnlineCollection::Config ccfg;
    if (observed) ccfg.observability.emplace().trace = true;
    auto online = exp.start_online(*db, nullptr, ccfg);
    exp.run();
    online->finish();
    if (observed) {
      exports_ = online->pipeline().exporter()->stats().exports;
      spans_ = online->pipeline().tracer()->spans().size();
      trace_json_ = online->pipeline().tracer()->to_chrome_json();
    }
    return db;
  }

  static void SetUpTestSuite() {
    // Same deterministic workload twice: once plain, once with mScopeMeta
    // dogfooding into the warehouse. Runs share the process-wide registry —
    // opt-out only controls whether it is *exported*, which is the contract.
    db_plain_ = run_streamed(dir_plain(), false);
    db_observed_ = run_streamed(dir_observed(), true);
  }

  static void TearDownTestSuite() {
    delete db_plain_;
    delete db_observed_;
    fs::remove_all(dir_plain());
    fs::remove_all(dir_observed());
  }

  static fs::path dir_plain() {
    return test::scratch_dir("obs_parity_plain");
  }
  static fs::path dir_observed() {
    return test::scratch_dir("obs_parity_observed");
  }

  static db::Database* db_plain_;
  static db::Database* db_observed_;
  static std::uint64_t exports_;
  static std::size_t spans_;
  static std::string trace_json_;
};

db::Database* MetaParityFixture::db_plain_ = nullptr;
db::Database* MetaParityFixture::db_observed_ = nullptr;
std::uint64_t MetaParityFixture::exports_ = 0;
std::size_t MetaParityFixture::spans_ = 0;
std::string MetaParityFixture::trace_json_;

TEST_F(MetaParityFixture, OptOutLeavesNoTraceInTheWarehouse) {
  for (const auto& name : db_plain_->table_names()) {
    EXPECT_NE(name.rfind("mscope_meta_", 0), 0u) << name;
  }
}

TEST_F(MetaParityFixture, MonitoredTablesAreByteIdentical) {
  expect_identical_non_meta(*db_plain_, *db_observed_, "mscope_meta_");
}

TEST_F(MetaParityFixture, MetaTablesFillWhenObserved) {
  ASSERT_TRUE(db_observed_->exists("mscope_meta_metrics"));
  ASSERT_TRUE(db_observed_->exists("mscope_meta_spans"));
  // One export per virtual second plus the final one in finish().
  EXPECT_GE(exports_, 6u);
  EXPECT_GT(db_observed_->get("mscope_meta_metrics").row_count(), 50u);
  EXPECT_EQ(db_observed_->get("mscope_meta_spans").row_count(), spans_);
  // The per-channel health series use the testbed's node names.
  EXPECT_GT(sql_scalar(*db_observed_,
                       "SELECT COUNT(*) FROM mscope_meta_metrics WHERE name = "
                       "'collector.db1.shipper.batches'"),
            0.0);
  EXPECT_GT(sql_scalar(*db_observed_,
                       "SELECT MAX(value) FROM mscope_meta_metrics WHERE name "
                       "= 'transform.rows_live'"),
            100.0);
}

TEST_F(MetaParityFixture, PipelineTraceExportsCleanly) {
  EXPECT_GT(spans_, 100u);  // ship + aggregate + parse ticks over 6 s
  expect_balanced_json(trace_json_);
  EXPECT_NE(trace_json_.find("\"ship:db1\""), std::string::npos);
  EXPECT_NE(trace_json_.find("\"aggregate\""), std::string::npos);
  EXPECT_NE(trace_json_.find("parse_all"), std::string::npos);
}

}  // namespace
}  // namespace mscope
