#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>

#include "core/metrics.h"
#include "core/milliscope.h"
#include "db/sql.h"
#include "fleet/fleet_collection.h"
#include "flow/attribution.h"
#include "flow/materializer.h"
#include "obs/metrics.h"
#include "transform/warehouse_io.h"

namespace mscopebench {

namespace {

namespace fs = std::filesystem;
using namespace mscope;
using util::SimTime;
using Clock = std::chrono::steady_clock;
using Rows = std::vector<std::vector<double>>;

constexpr SimTime kBucket = 50 * util::kMsec;
constexpr double kMB = 1e6;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Registry counter movement over a phase of the run.
class CounterDelta {
 public:
  CounterDelta() : before_(registry_values()) {}
  void stop() { after_ = registry_values(); }
  [[nodiscard]] double operator[](const std::string& name) const {
    const auto a = after_.find(name);
    const auto b = before_.find(name);
    return (a == after_.end() ? 0.0 : a->second) -
           (b == before_.end() ? 0.0 : b->second);
  }

 private:
  std::map<std::string, double> before_;
  std::map<std::string, double> after_;
};

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t n = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) n += e.file_size();
  }
  return n;
}

/// What the pipeline produced: the catalog analyses read, and the
/// physical databases behind it (one, or one per shard).
struct Warehouse {
  const db::Catalog* catalog = nullptr;
  std::vector<db::Database*> parts;

  [[nodiscard]] double rows() const {
    double n = 0;
    for (const auto* p : parts) {
      for (const auto& t : p->table_names()) {
        n += static_cast<double>(p->get(t).row_count());
      }
    }
    return n;
  }
  [[nodiscard]] double store_mb() const {
    double b = 0;
    for (const auto* p : parts) {
      for (const auto& t : p->table_names()) {
        b += static_cast<double>(p->get(t).storage().byte_size());
      }
    }
    return b / kMB;
  }
  /// Warm TimeIndex entries are (time, row) pairs of 16 bytes each.
  [[nodiscard]] double index_mb() const {
    double b = 0;
    for (const auto* p : parts) {
      for (const auto& name : p->table_names()) {
        const db::Table& t = p->get(name);
        for (std::size_t c = 0; c < t.column_count(); ++c) {
          if (const auto* ix = t.find_time_index(c)) {
            b += 16.0 * static_cast<double>(ix->size());
          }
        }
      }
    }
    return b / kMB;
  }
};

bool same_cell(const db::Value& a, const db::Value& b) {
  if (a.index() != b.index()) return false;
  if (const auto* x = std::get_if<double>(&a)) {
    const double y = std::get<double>(b);
    return *x == y || (std::isnan(*x) && std::isnan(y));
  }
  return a == b;
}

/// "" when `a` and `b` hold the same tables, schemas and cells.
std::string diff_databases(const db::Database& a, const db::Database& b) {
  if (a.table_names() != b.table_names()) return "table sets differ";
  for (const auto& name : a.table_names()) {
    const db::Table& ta = a.get(name);
    const db::Table& tb = b.get(name);
    if (ta.schema() != tb.schema()) return name + ": schema differs";
    if (ta.row_count() != tb.row_count()) return name + ": row count differs";
    auto ca = ta.scan();
    auto cb = tb.scan();
    while (ca.next() && cb.next()) {
      for (std::size_t c = 0; c < ta.column_count(); ++c) {
        if (!same_cell(ca.row()[c], cb.row()[c])) {
          return name + ": cell (" + std::to_string(ca.row_id()) + ", " +
                 std::to_string(c) + ") differs";
        }
      }
    }
  }
  return "";
}

Rows digest(const db::Table& t) {
  Rows out;
  for (auto c = t.scan(); c.next();) {
    std::vector<double> row;
    for (const auto& v : c.row()) {
      row.push_back(db::as_double(v).value_or(std::nan("")));
    }
    out.push_back(std::move(row));
  }
  return out;
}

Rows digest(const util::Series& s) {
  Rows out;
  for (const auto& p : s) out.push_back({static_cast<double>(p.time), p.value});
  return out;
}

// ---------------------------------------------------------------------------

struct Ctx {
  const Options& o;
  Tracer& tr;
  Result r;

  void expect(bool ok, const std::string& what) {
    ++r.checks_run;
    if (ok) return;
    ++r.checks_failed;
    if (r.failures.size() < 20) r.failures.push_back(what);
  }
  void metric(const std::string& name, double v) { r.metrics[name] = v; }
};

core::TestbedConfig testbed_config(const Options& o, const fs::path& logs) {
  core::TestbedConfig cfg;
  cfg.seed = o.seed;
  cfg.log_dir = logs;
  cfg.capture_messages = false;  // no SysViz comparison here
  core::ScenarioA a;             // MySQL redo-log flush stall on db1
  if (o.workload == "fleet_stream") {
    cfg.nodes_per_tier = {2, 2, 2, 2};
    cfg.workload = o.smoke ? 1000 : 2000;
    cfg.duration = util::sec(o.smoke ? 10 : 20);
    a.first_flush = util::sec(o.smoke ? 6 : 8);
    a.interval = util::sec(60);  // one stall per run
    a.flush_bytes = 128ULL << 20;
  } else if (o.workload == "online_durable") {
    cfg.workload = o.smoke ? 600 : 2000;
    cfg.duration = util::sec(o.smoke ? 10 : 14);
  } else {
    cfg.nodes_per_tier = {1, 2, 1, 2};  // the paper's Fig. 1 topology
    cfg.workload = o.smoke ? 800 : 3000;
    cfg.duration = util::sec(o.smoke ? 10 : 14);
  }
  cfg.scenario_a = a;
  return cfg;
}

// --- verdict ---------------------------------------------------------------

struct Verdict {
  std::vector<core::Diagnosis> diagnoses;
  flow::Result flows;
  std::vector<flow::DrillDown> drills;
};

Verdict verdict(Ctx& cx, const core::Experiment& exp, const Warehouse& wh) {
  Verdict v;
  {
    Tracer::Scope s(cx.tr, "core.diagnose");
    v.diagnoses = exp.diagnoser(*wh.catalog).diagnose(exp.config().duration);
  }
  {
    Tracer::Scope s(cx.tr, "flow.run");
    const flow::Materializer mat(
        *wh.catalog,
        flow::Deployment::from(exp.tables(), core::Testbed::services()));
    v.flows = mat.run();
  }
  {
    Tracer::Scope s(cx.tr, "flow.drill");
    for (const auto& d : v.diagnoses) {
      v.drills.push_back(
          flow::drill_down(v.flows, d.window.begin, d.window.end, 3));
    }
  }
  return v;
}

/// How far the verdict agrees with the injected fault (db1's disk stalls).
/// Measured, not asserted: flow::drill_down's pushback blind spot makes it
/// name another node on some seeds, so agreement is a share that later
/// changes must raise, while every run still counts as correct.
void verdict_metrics(Ctx& cx, const Verdict& v) {
  double pinned = 0;
  for (const auto& d : v.diagnoses) {
    if (d.bottleneck_node == "db1" && d.root_cause == "disk-io") pinned = 1;
  }
  double agreeing = 0;
  double exemplars = 0;
  for (std::size_t i = 0; i < v.drills.size(); ++i) {
    const auto& d = v.diagnoses[i];
    const auto& dd = v.drills[i];
    if (dd.culprit_tier == d.bottleneck_tier &&
        dd.culprit_node == d.bottleneck_node) {
      ++agreeing;
    }
    exemplars += static_cast<double>(dd.exemplars.size());
  }
  const double windows = static_cast<double>(v.diagnoses.size());
  cx.metric("core.pinned", pinned);
  cx.metric("core.windows", windows);
  cx.metric("flow.drill_agreement", windows > 0 ? agreeing / windows : 0.0);
  cx.metric("flow.exemplars", exemplars);
}

// --- the analyst query session --------------------------------------------

enum Kind { kPitBucket, kAlign, kWindowCount, kTopK, kPit, kQueue, kCount,
            kKinds };
constexpr const char* kKindName[kKinds] = {
    "query.pit_bucket", "query.align", "query.window", "query.topk",
    "query.native_pit", "query.native_queue", "query.count"};

struct Query {
  Kind kind = kCount;
  std::string table;
  std::string other;  ///< ALIGN join partner
  SimTime lo = 0;
  SimTime hi = 0;
  std::string sql;
  Rows result;
};

/// Sorted timestamp columns of one event table: the reference the session
/// checks its answers against, computed by a plain scan.
struct EventCols {
  std::vector<std::int64_t> ua;
  std::vector<std::int64_t> ud;
  std::vector<std::pair<std::int64_t, std::int64_t>> ud_dur;  ///< by ud

  explicit EventCols(const db::Table& t) {
    const auto ia = t.column_index("ua_usec");
    const auto id = t.column_index("ud_usec");
    const auto idur = t.column_index("duration_usec");
    constexpr std::int64_t kNone = std::numeric_limits<std::int64_t>::min();
    const auto cell = [kNone](const std::vector<db::Value>& row,
                              std::optional<std::size_t> col) {
      return col ? db::as_int(row[*col]).value_or(kNone) : kNone;
    };
    for (auto c = t.scan(); c.next();) {
      const std::int64_t a = cell(c.row(), ia);
      const std::int64_t d = cell(c.row(), id);
      const std::int64_t dur = cell(c.row(), idur);
      if (a != kNone && d != kNone) {
        ua.push_back(a);
        ud.push_back(d);
      }
      if (d != kNone && dur != kNone) ud_dur.emplace_back(d, dur);
    }
    std::sort(ua.begin(), ua.end());
    std::sort(ud.begin(), ud.end());
    std::sort(ud_dur.begin(), ud_dur.end());
  }

  static std::size_t below(const std::vector<std::int64_t>& v,
                           std::int64_t x) {
    return static_cast<std::size_t>(
        std::lower_bound(v.begin(), v.end(), x) - v.begin());
  }
};

std::vector<Query> plan_queries(const Options& o, const core::Experiment& exp,
                                const db::Catalog& db) {
  const auto tables = exp.tables().event_tables;
  std::vector<std::string> events;
  for (const auto& tier : tables) {
    events.insert(events.end(), tier.begin(), tier.end());
  }
  const std::vector<std::string> all = db.table_names();
  const SimTime horizon = exp.config().duration;

  std::mt19937_64 rng(o.seed * 0x9E3779B97F4A7C15ULL + 7);
  const auto pick = [&rng](const std::vector<std::string>& v) {
    return v[std::uniform_int_distribution<std::size_t>(0, v.size() - 1)(rng)];
  };
  // A random window of VSB size (100 ms .. max_ms), bucket-aligned.
  const auto window = [&rng, horizon](Query& q, int max_ms) {
    const SimTime w = util::kMsec *
        std::uniform_int_distribution<SimTime>(2, max_ms / 50)(rng) * 50;
    const SimTime lo = kBucket * std::uniform_int_distribution<SimTime>(
                                     0, (horizon - w) / kBucket)(rng);
    q.lo = lo;
    q.hi = lo + w;
  };

  // Kinds take turns, so every seed sends the same mix; the RNG draws
  // only tables and windows. A drawn mix would move p50 between kinds.
  std::vector<Query> out(o.smoke ? 40 : 252);
  for (std::size_t i = 0; i < out.size(); ++i) {
    Query& q = out[i];
    q.kind = static_cast<Kind>(i % kKinds);
    switch (q.kind) {
      case kPitBucket:
        q.table = pick(tables.front());
        window(q, 3000);
        q.sql = "SELECT BUCKET(ud_usec, " + std::to_string(kBucket) +
                ") AS b, MAX(duration_usec) AS mx FROM " + q.table +
                " WHERE ud_usec >= " + std::to_string(q.lo) +
                " AND ud_usec < " + std::to_string(q.hi) +
                " GROUP BY BUCKET(ud_usec, " + std::to_string(kBucket) + ")";
        break;
      case kAlign:
        q.table = pick(tables.front());
        q.other = pick(tables.back());
        window(q, 500);
        q.sql = "SELECT COUNT(*) FROM " + q.table + " AS a JOIN " + q.other +
                " AS d ON ALIGN(a.ud_usec, d.ud_usec, 2000)" +
                " WHERE a.ud_usec >= " + std::to_string(q.lo) +
                " AND a.ud_usec < " + std::to_string(q.hi);
        break;
      case kWindowCount:
        q.table = pick(events);
        window(q, 2000);
        q.sql = "SELECT COUNT(*) FROM " + q.table + " WHERE ua_usec >= " +
                std::to_string(q.lo) + " AND ua_usec < " +
                std::to_string(q.hi);
        break;
      case kTopK:
        q.table = flow::Materializer::kRequestsTable;
        window(q, 3000);
        q.sql = "SELECT req_id, rt_usec FROM " + q.table +
                " WHERE completed_usec >= " + std::to_string(q.lo) +
                " AND completed_usec < " + std::to_string(q.hi) +
                " ORDER BY rt_usec DESC LIMIT 10";
        break;
      case kPit:
        q.table = pick(tables.front());
        break;
      case kQueue:
        q.table = pick(events);
        window(q, 2000);
        break;
      case kCount:
      case kKinds:
        q.table = pick(all);
        q.sql = "SELECT COUNT(*) FROM " + q.table;
        break;
    }
  }
  return out;
}

/// The closed loop: one client, the next query only after the previous
/// answer. Only the call into the program is timed.
void run_queries(Ctx& cx, const db::Catalog& db, std::vector<Query>& qs) {
  Tracer::Scope session(cx.tr, "query.session");
  for (auto& q : qs) {
    Tracer::Scope s(cx.tr, kKindName[q.kind]);
    const Clock::time_point t0 = Clock::now();
    double ms = 0;
    if (q.kind == kPit) {
      const auto pit = core::pit_response_time_db(db, q.table, kBucket);
      ms = since(t0) * 1e3;
      q.result = digest(pit.max_rt_ms);
    } else if (q.kind == kQueue) {
      const auto series =
          core::queue_length_db(db, q.table, kBucket, q.lo, q.hi);
      ms = since(t0) * 1e3;
      q.result = digest(series);
    } else {
      const db::Table t = db::Sql::execute(db, q.sql);
      ms = since(t0) * 1e3;
      q.result = digest(t);
    }
    cx.r.query_ms.push_back(ms);
  }
}

/// Every answer against a reference computed another way.
void check_queries(Ctx& cx, const db::Catalog& db, const flow::Result& flows,
                   const std::vector<Query>& qs) {
  std::map<std::string, EventCols> cols;
  const auto col = [&](const std::string& t) -> const EventCols& {
    auto it = cols.find(t);
    if (it == cols.end()) it = cols.emplace(t, EventCols(db.get(t))).first;
    return it->second;
  };
  std::map<std::string, core::PitSeries> pits;
  const int failed_before = cx.r.checks_failed;
  const auto fail = [&cx](const Query& q, const std::string& why) {
    cx.expect(false, std::string(kKindName[q.kind]) + " on " + q.table +
                         " [" + std::to_string(q.lo) + ", " +
                         std::to_string(q.hi) + "): " + why);
  };

  for (const auto& q : qs) {
    switch (q.kind) {
      case kPitBucket: {  // SQL per-bucket max == native PIT, same window
        auto it = pits.find(q.table);
        if (it == pits.end()) {
          it = pits.emplace(q.table,
                            core::pit_response_time_db(db, q.table, kBucket))
                   .first;
        }
        Rows want;
        for (const auto& p : it->second.max_rt_ms) {
          if (p.time >= q.lo && p.time < q.hi) {
            want.push_back({static_cast<double>(p.time), p.value});
          }
        }
        Rows got = q.result;
        for (auto& row : got) row[1] /= 1000.0;
        std::sort(got.begin(), got.end());
        if (got != want) fail(q, "per-bucket max != pit_response_time_db");
        break;
      }
      case kAlign: {  // brute-force band count over the sorted columns
        const EventCols& a = col(q.table);
        const EventCols& d = col(q.other);
        double want = 0;
        for (std::size_t i = EventCols::below(a.ud, q.lo);
             i < a.ud.size() && a.ud[i] < q.hi; ++i) {
          want += static_cast<double>(
              EventCols::below(d.ud, a.ud[i] + 2000 + 1) -
              EventCols::below(d.ud, a.ud[i] - 2000));
        }
        if (q.result.size() != 1 || q.result[0][0] != want) {
          fail(q, "ALIGN join count");
        }
        break;
      }
      case kWindowCount: {
        const EventCols& c = col(q.table);
        const double want = static_cast<double>(
            EventCols::below(c.ua, q.hi) - EventCols::below(c.ua, q.lo));
        if (q.result.size() != 1 || q.result[0][0] != want) {
          fail(q, "window count");
        }
        break;
      }
      case kTopK: {  // against the in-memory flow result
        std::vector<double> want;
        for (const auto& r : flows.requests) {
          if (r.completed >= q.lo && r.completed < q.hi) {
            want.push_back(static_cast<double>(r.rt));
          }
        }
        std::sort(want.rbegin(), want.rend());
        want.resize(std::min<std::size_t>(want.size(), 10));
        std::vector<double> got;
        for (const auto& row : q.result) got.push_back(row[1]);
        if (got != want) fail(q, "top-k response times");
        break;
      }
      case kPit: {  // native PIT == per-bucket max over the raw column scan
        std::map<std::int64_t, double> want;
        for (const auto& [ud, dur] : col(q.table).ud_dur) {
          const std::int64_t b = ud / kBucket * kBucket;
          want[b] = std::max(want[b], static_cast<double>(dur) / 1000.0);
        }
        bool ok = want.size() == q.result.size();
        std::size_t i = 0;
        for (const auto& [b, mx] : want) {
          if (!ok) break;
          ok = q.result[i][0] == static_cast<double>(b) && q.result[i][1] == mx;
          ++i;
        }
        if (!ok) fail(q, "native PIT differs from the column scan");
        break;
      }
      case kQueue: {  // every bucket's peak between its two exact bounds
        const EventCols& c = col(q.table);
        const auto level = [&c](SimTime t) {  // arrived before t, not left
          return static_cast<double>(EventCols::below(c.ua, t)) -
                 static_cast<double>(EventCols::below(c.ud, t));
        };
        bool ok = q.result.size() ==
                  static_cast<std::size_t>((q.hi - q.lo) / kBucket);
        for (std::size_t i = 0; ok && i < q.result.size(); ++i) {
          const SimTime t = q.lo + static_cast<SimTime>(i) * kBucket;
          const double upper =
              static_cast<double>(EventCols::below(c.ua, t + kBucket)) -
              static_cast<double>(EventCols::below(c.ud, t));
          const double v = q.result[i][1];
          ok = q.result[i][0] == static_cast<double>(t) &&
               v >= std::max(level(t), level(t + kBucket)) && v <= upper;
        }
        if (!ok) fail(q, "queue length outside its bounds");
        break;
      }
      case kCount:
      case kKinds:
        if (q.result.size() != 1 ||
            q.result[0][0] !=
                static_cast<double>(db.get(q.table).row_count())) {
          fail(q, "COUNT(*) != row_count()");
        }
        break;
    }
  }
  // One check per answer; fail() above already counted the wrong ones.
  cx.r.checks_run +=
      static_cast<int>(qs.size()) - (cx.r.checks_failed - failed_before);
}

// --- per-layer probes (traced iterations only) -----------------------------

/// Same seed, no collection attached: the simulator's own cost, the floor
/// under Experiment::run with collection.
void sim_reference(Ctx& cx) {
  core::Experiment ref(testbed_config(cx.o, cx.o.dir / "ref_logs"));
  {
    Tracer::Scope s(cx.tr, "sim.reference");
    ref.run();
  }
  cx.metric("sim.run_s", cx.tr.total_seconds("sim.reference"));
}

/// The Diagnoser's three inputs as standalone calls (it shares work
/// between them, so these are not part of core.diagnose's breakdown).
void core_probes(Ctx& cx, const core::Experiment& exp, const db::Catalog& db) {
  const SimTime horizon = exp.config().duration;
  {
    Tracer::Scope s(cx.tr, "core.pit");
    (void)exp.diagnoser(db).pit(horizon);
  }
  const auto t = exp.tables();
  {
    Tracer::Scope s(cx.tr, "core.queue");
    for (const auto& tier : t.event_tables) {
      (void)core::queue_length_db_multi(db, tier, kBucket, 0, horizon);
    }
  }
  {
    Tracer::Scope s(cx.tr, "core.resource");
    for (const auto& tier : t.collectl_tables) {
      for (const auto& table : tier) {
        for (const char* c :
             {"dsk_pctutil", "cpu_user_pct", "cpu_sys_pct", "mem_dirtykb"}) {
          (void)core::resource_series(db, table, c);
        }
      }
    }
  }
  cx.metric("core.pit_s", cx.tr.total_seconds("core.pit"));
  cx.metric("core.queue_s", cx.tr.total_seconds("core.queue"));
  cx.metric("core.resource_s", cx.tr.total_seconds("core.resource"));
}

/// Binary snapshot round trip of every physical database, then a
/// WarehouseIO::recover from the same files (no WAL: snapshot only).
void snapshot_probe(Ctx& cx, const Warehouse& wh, bool recover) {
  const fs::path root = cx.o.dir / "snap_probe";
  std::vector<std::unique_ptr<db::Database>> loaded;
  {
    Tracer::Scope s(cx.tr, "db.snapshot_save");
    for (std::size_t i = 0; i < wh.parts.size(); ++i) {
      transform::WarehouseIO::save_snapshot(*wh.parts[i],
                                            root / std::to_string(i));
    }
  }
  {
    Tracer::Scope s(cx.tr, "db.snapshot_load");
    for (std::size_t i = 0; i < wh.parts.size(); ++i) {
      loaded.push_back(std::make_unique<db::Database>());
      (void)transform::WarehouseIO::load_snapshot(*loaded.back(),
                                                  root / std::to_string(i));
    }
  }
  cx.metric("db.snapshot_mb", static_cast<double>(dir_bytes(root)) / kMB);
  if (!recover) return;
  loaded.clear();
  Tracer::Scope s(cx.tr, "db.recover");
  for (std::size_t i = 0; i < wh.parts.size(); ++i) {
    db::Database fresh;
    (void)transform::WarehouseIO::recover(fresh, root / std::to_string(i));
  }
}

/// Streaming-transformer counters, summed over every transformer (one per
/// shard in a fleet).
void streaming_metrics(
    Ctx& cx,
    const std::vector<const transform::StreamingTransformer::Stats*>& all) {
  transform::StreamingTransformer::Stats sum;
  for (const auto* st : all) {
    sum.bytes += st->bytes;
    sum.parse_passes += st->parse_passes;
    sum.files += st->files;
    sum.rows_inserted += st->rows_inserted;
    sum.rows_live += st->rows_live;
    sum.schema_rebuilds += st->schema_rebuilds;
    sum.inplace_widens += st->inplace_widens;
    sum.rejected_lines += st->rejected_lines;
  }
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  cx.metric("transform.bytes_in_mb", d(sum.bytes) / kMB);
  cx.metric("transform.parse_passes", d(sum.parse_passes));
  cx.metric("transform.passes_per_file", d(sum.parse_passes) / d(sum.files));
  cx.metric("transform.insert_amplification",
            d(sum.rows_inserted) / d(sum.rows_live));
  cx.metric("transform.schema_rebuilds", d(sum.schema_rebuilds));
  cx.metric("transform.inplace_widens", d(sum.inplace_widens));
  cx.metric("transform.rejected_lines", d(sum.rejected_lines));
}

/// Spans under `root`'s subtree, excluding the root itself.
double descendant_self_seconds(const Tracer& tr, std::size_t root) {
  double self = 0;
  for (std::size_t i = 0; i < tr.spans().size(); ++i) {
    for (int p = tr.spans()[i].parent; p >= 0;
         p = tr.spans()[static_cast<std::size_t>(p)].parent) {
      if (static_cast<std::size_t>(p) == root) {
        self += tr.self_seconds(i);
        break;
      }
    }
  }
  return self;
}

/// Metrics every workload reports the same way.
void common_metrics(Ctx& cx, core::Experiment& exp, const Warehouse& wh,
                    const Verdict& v, const CounterDelta& wall_counters,
                    const CounterDelta& verdict_counters,
                    const CounterDelta& query_counters) {
  double log_bytes = 0;
  double log_records = 0;
  for (const auto& n : exp.testbed().node_stats()) {
    log_bytes += static_cast<double>(n.log_bytes);
    log_records += static_cast<double>(n.log_records);
  }
  cx.metric("sim.log_mb", log_bytes / kMB);
  cx.metric("sim.log_records", log_records);
  cx.metric("db.table.inserts", wall_counters["db.table.inserts"]);
  cx.metric("db.table.seals", wall_counters["db.table.seals"]);
  cx.metric("db.table.widens", wall_counters["db.table.widens"]);
  cx.metric("db.store_mb", wh.store_mb());
  cx.metric("db.index_mb", wh.index_mb());
  cx.metric("db.wal.frames", wall_counters["db.wal.frames"]);
  cx.metric("db.wal.mb", wall_counters["db.wal.bytes"] / kMB);
  const double scanned = query_counters["db.sql.segments_scanned"];
  const double skipped = query_counters["db.sql.segments_skipped"];
  cx.metric("db.sql.rows_scanned", query_counters["db.sql.rows_scanned"]);
  cx.metric("db.sql.segments_scanned", scanned);
  cx.metric("db.sql.segments_skipped", skipped);
  cx.metric("db.sql.skip_ratio",
            scanned + skipped > 0 ? skipped / (scanned + skipped) : 0.0);
  for (const char* m : {"db.query.segments_scanned",
                        "db.query.segments_skipped", "db.query.plans_index"}) {
    cx.metric(m, verdict_counters[m]);
  }
  cx.metric("flow.requests", static_cast<double>(v.flows.requests.size()));
  cx.metric("flow.spans", static_cast<double>(v.flows.spans.size()));
  cx.metric("flow.spans_per_request",
            v.flows.requests.empty()
                ? 0.0
                : static_cast<double>(v.flows.spans.size()) /
                      static_cast<double>(v.flows.requests.size()));
  for (const auto& [metric, span] :
       {std::pair{"collector.finish_s", "collector.finish"},
        {"transform.load_s", "transform.load"},
        {"db.recover_s", "db.recover"},
        {"db.snapshot_save_s", "db.snapshot_save"},
        {"db.snapshot_load_s", "db.snapshot_load"},
        {"core.diagnose_s", "core.diagnose"},
        {"flow.run_s", "flow.run"},
        {"flow.write_s", "flow.write"},
        {"flow.drill_s", "flow.drill"}}) {
    cx.metric(metric, cx.tr.total_seconds(span));
  }
  std::size_t wall = 0;
  while (cx.tr.spans()[wall].name != "wall") ++wall;
  const double traced_wall = cx.tr.spans()[wall].seconds();
  cx.metric("trace.wall_s", traced_wall);
  cx.metric("trace.self_share",
            descendant_self_seconds(cx.tr, wall) / traced_wall);
}

// --- the three workloads ---------------------------------------------------

/// Times shared by all workloads: set-up, the ingest and verdict phases
/// inside the timed sequence, and the sequence as a whole.
struct Phases {
  Clock::time_point setup;
  Clock::time_point wall;
  double setup_s = 0;
  double ingest_s = 0;
  double verdict_s = 0;
  double rows = 0;

  void end_to_end(Ctx& cx) const {
    cx.metric("setup_s", setup_s);
    cx.metric("wall_s", since(wall));
    cx.metric("ingest_krows_per_s", rows / 1e3 / ingest_s);
    cx.metric("verdict_s", verdict_s);
    cx.metric("peak_rss_mb", peak_rss_mb());
  }
};

/// fleet_stream's collection: replicated tiers stream through a 2-level
/// relay tree into a 4-shard warehouse, with mScopeMeta export on.
class FleetStream {
 public:
  FleetStream(Ctx& cx, core::Experiment& exp,
              core::OnlineVsbDetector& detector) {
    fleet::FleetCollection::Config fc;
    fc.topology.levels = 2;
    fc.topology.racks = 2;
    fc.topology.shards = 4;
    fc.observability.emplace();
    Tracer::Scope s(cx.tr, "fleet.wire");
    db_.emplace(fc.topology.shards);
    fleet_.emplace(exp.testbed(), *db_, &detector, fc);
  }

  [[nodiscard]] Warehouse warehouse() {
    Warehouse wh{&*db_, {}};
    for (int i = 0; i < db_->shard_count(); ++i) {
      wh.parts.push_back(&db_->shard(i));
    }
    return wh;
  }
  [[nodiscard]] db::Database& flow_target() { return db_->shard(0); }
  void finish() { fleet_->finish(); }
  void after_flows(Ctx& /*cx*/) {}

  void check(Ctx& cx, core::Experiment& exp) {
    const auto t = fleet_->totals();
    cx.metric("fleet.collect_lag_max_ms", static_cast<double>(t.max_lag) / 1e3);
    cx.expect(t.dropped == 0,
              "collection dropped " + std::to_string(t.dropped) + " records");
    cx.expect(t.root_gaps == 0,
              std::to_string(t.root_gaps) + " holes at the root");
    std::map<std::string, std::uint64_t> ingested;
    for (const auto& [key, bytes] : fleet_->root_ingested_bytes()) {
      ingested[key.first] += bytes;
    }
    std::string short_node;
    for (const auto& n : exp.testbed().node_stats()) {
      if (ingested[n.name] != n.log_bytes && short_node.empty()) {
        short_node = n.name;
      }
    }
    cx.expect(short_node.empty(),
              "root ingested != bytes written on " + short_node);
  }

  void layer_metrics(Ctx& cx) {
    std::vector<const transform::StreamingTransformer::Stats*> stats;
    for (int i = 0; i < db_->shard_count(); ++i) {
      stats.push_back(&fleet_->shard_transformer(i).stats());
    }
    streaming_metrics(cx, stats);
    const auto t = fleet_->totals();
    cx.metric("collector.batches", static_cast<double>(t.batches));
    cx.metric("collector.retries",
              static_cast<double>(t.leaf_retries + t.relay_retries));
    cx.metric("collector.dropped", static_cast<double>(t.dropped));
    cx.metric("fleet.relay_frames", static_cast<double>(t.relay_frames));
    cx.metric("fleet.root_gaps", static_cast<double>(t.root_gaps));
    cx.metric("fleet.root_cpu_ms", static_cast<double>(t.root_cpu) / 1e3);
    cx.metric("db.recover.frames_applied", 0);
    snapshot_probe(cx, warehouse(), true);
  }

 private:
  std::optional<fleet::ShardedWarehouse> db_;
  std::optional<fleet::FleetCollection> fleet_;  ///< destroyed before db_
};

/// online_durable's collection: the flat collector through
/// Experiment::start_online, writing through the WAL with group commits and
/// periodic checkpoints.
class OnlineDurable {
 public:
  OnlineDurable(Ctx& cx, core::Experiment& exp,
                core::OnlineVsbDetector& detector)
      : dir_(cx.o.dir / "durable") {
    core::OnlineCollection::Config oc;
    oc.durability.emplace();
    oc.durability->dir = dir_;
    oc.durability->checkpoint_every = 4;  // group commit each second
    Tracer::Scope s(cx.tr, "collector.start_online");
    coll_ = exp.start_online(db_, &detector, oc);
  }

  [[nodiscard]] Warehouse warehouse() { return {&db_, {&db_}}; }
  [[nodiscard]] db::Database& flow_target() { return db_; }
  void finish() { coll_->finish(); }

  /// Makes the flow tables durable, then recovers into a fresh database.
  void after_flows(Ctx& cx) {
    {
      Tracer::Scope s(cx.tr, "db.wal.commit");
      coll_->wal()->commit();
    }
    const Clock::time_point r0 = Clock::now();
    {
      Tracer::Scope s(cx.tr, "db.recover");
      recovery_ = transform::WarehouseIO::recover(recovered_, dir_);
    }
    // Untraced runs have no spans; the report prints this as recover_s.
    cx.metric("db.recover_s", since(r0));
  }

  void check(Ctx& cx, core::Experiment& /*exp*/) {
    const auto dropped = coll_->totals().dropped;
    cx.expect(dropped == 0,
              "collection dropped " + std::to_string(dropped) + " records");
    cx.expect(recovery_.warnings.empty() &&
                  recovery_.last_commit_id == coll_->wal()->last_commit_id(),
              "recovery degraded or stopped short of the last commit");
    const std::string diff = diff_databases(db_, recovered_);
    cx.expect(diff.empty(), "recovered warehouse differs from live: " + diff);
  }

  void layer_metrics(Ctx& cx) {
    streaming_metrics(cx, {&coll_->transformer().stats()});
    const auto t = coll_->totals();
    cx.metric("collector.batches", static_cast<double>(t.batches));
    cx.metric("collector.retries", static_cast<double>(t.retries));
    cx.metric("collector.dropped", static_cast<double>(t.dropped));
    for (const char* m : {"fleet.relay_frames", "fleet.root_gaps",
                          "fleet.root_cpu_ms", "fleet.collect_lag_max_ms"}) {
      cx.metric(m, 0);
    }
    cx.metric("db.recover.frames_applied",
              static_cast<double>(recovery_.wal_frames_applied));
    snapshot_probe(cx, warehouse(), false);
  }

 private:
  fs::path dir_;
  db::Database db_;
  db::Database recovered_;
  transform::RecoveryStats recovery_;
  std::unique_ptr<core::OnlineCollection> coll_;  ///< destroyed before db_
};

/// fleet_stream and online_durable: the simulator runs with `C`'s collection
/// attached and a live detector watching; then the verdict, the flow tables
/// and the analyst session run on the warehouse the collection built.
template <class C>
void streaming(Ctx& cx) {
  Phases ph;
  ph.setup = Clock::now();
  std::optional<Tracer::Scope> setup(std::in_place, cx.tr, "setup");
  const core::TestbedConfig cfg = testbed_config(cx.o, cx.o.dir / "logs");
  std::optional<core::Experiment> exp;
  {
    Tracer::Scope s(cx.tr, "core.experiment");
    exp.emplace(cfg);
  }
  core::OnlineVsbDetector detector;
  exp->testbed().clients().set_on_complete(
      [&detector](const sim::RequestPtr& r) { detector.on_complete(r); });
  C coll(cx, *exp, detector);  // destroyed before the detector and testbed
  setup.reset();
  ph.setup_s = since(ph.setup);

  const Warehouse wh = coll.warehouse();
  std::optional<Tracer::Scope> wall(std::in_place, cx.tr, "wall");
  ph.wall = Clock::now();
  CounterDelta wall_counters;
  {
    Tracer::Scope s(cx.tr, "collector.run");
    exp->run();
  }
  {
    Tracer::Scope s(cx.tr, "collector.finish");
    coll.finish();
  }
  ph.ingest_s = since(ph.wall);
  ph.rows = wh.rows();
  const Clock::time_point v0 = Clock::now();
  CounterDelta verdict_counters;
  const Verdict v = verdict(cx, *exp, wh);
  verdict_counters.stop();
  ph.verdict_s = since(v0);
  {
    Tracer::Scope s(cx.tr, "flow.write");
    flow::Materializer::materialize(v.flows, coll.flow_target());
  }
  coll.after_flows(cx);
  std::vector<Query> qs = plan_queries(cx.o, *exp, *wh.catalog);
  CounterDelta query_counters;
  run_queries(cx, *wh.catalog, qs);
  query_counters.stop();
  wall_counters.stop();
  wall.reset();
  ph.end_to_end(cx);

  coll.check(cx, *exp);
  verdict_metrics(cx, v);
  check_queries(cx, *wh.catalog, v.flows, qs);

  if (!cx.tr.enabled()) return;
  coll.layer_metrics(cx);
  sim_reference(cx);
  cx.metric("collector.inline_s", cx.tr.total_seconds("collector.run") -
                                      cx.r.metrics["sim.run_s"]);
  core_probes(cx, *exp, *wh.catalog);
  {
    db::Database flat;
    Tracer::Scope s(cx.tr, "transform.load");
    (void)exp->load_warehouse(flat);
  }
  common_metrics(cx, *exp, wh, v, wall_counters, verdict_counters,
                 query_counters);
}

void batch_query(Ctx& cx) {
  Phases ph;
  ph.setup = Clock::now();
  std::optional<Tracer::Scope> setup(std::in_place, cx.tr, "setup");
  const core::TestbedConfig cfg = testbed_config(cx.o, cx.o.dir / "logs");
  std::optional<core::Experiment> exp;
  {
    Tracer::Scope s(cx.tr, "core.experiment");
    exp.emplace(cfg);
  }
  {
    Tracer::Scope s(cx.tr, "sim.run");
    exp->run();
  }
  setup.reset();
  ph.setup_s = since(ph.setup);

  db::Database db;
  const Warehouse wh{&db, {&db}};
  std::optional<Tracer::Scope> wall(std::in_place, cx.tr, "wall");
  ph.wall = Clock::now();
  CounterDelta wall_counters;
  transform::DataTransformer::Report report;
  CounterDelta load_counters;
  {
    Tracer::Scope s(cx.tr, "transform.load");
    report = exp->load_warehouse(db);
  }
  load_counters.stop();
  ph.ingest_s = since(ph.wall);
  ph.rows = wh.rows();
  const Clock::time_point v0 = Clock::now();
  CounterDelta verdict_counters;
  const Verdict v = verdict(cx, *exp, wh);
  verdict_counters.stop();
  ph.verdict_s = since(v0);
  {
    Tracer::Scope s(cx.tr, "flow.write");
    flow::Materializer::materialize(v.flows, db);
  }
  const fs::path snap = cx.o.dir / "snapshot";
  db::Database reloaded;
  {
    Tracer::Scope s(cx.tr, "db.snapshot_save");
    transform::WarehouseIO::save_snapshot(db, snap);
  }
  {
    Tracer::Scope s(cx.tr, "db.snapshot_load");
    (void)transform::WarehouseIO::load_snapshot(reloaded, snap);
  }
  std::vector<Query> qs = plan_queries(cx.o, *exp, reloaded);
  CounterDelta query_counters;
  run_queries(cx, reloaded, qs);
  query_counters.stop();
  wall_counters.stop();
  wall.reset();
  ph.end_to_end(cx);

  const std::string diff = diff_databases(db, reloaded);
  cx.expect(diff.empty(), "snapshot round trip differs: " + diff);
  verdict_metrics(cx, v);
  check_queries(cx, reloaded, v.flows, qs);

  if (!cx.tr.enabled()) return;
  // The loader has no byte counter; it reads each file it matches whole, so
  // its input is those files' size on disk. Its parse passes are the ones it
  // reports: the default path (XML intermediates on) reports none, so these
  // read 0 until it does, and a loader routed through the streaming
  // transformer would show its passes here.
  double bytes = 0;
  double files = 0;
  for (const auto& f : report.files) {
    if (!f.matched) continue;
    bytes += static_cast<double>(fs::file_size(cfg.log_dir / f.node / f.file));
    ++files;
  }
  const double passes = load_counters["transform.parse.fast_passes"] +
                        load_counters["transform.parse.ref_passes"];
  cx.metric("transform.bytes_in_mb", bytes / kMB);
  cx.metric("transform.parse_passes", passes);
  cx.metric("transform.passes_per_file", passes / files);
  cx.metric("transform.insert_amplification",
            load_counters["db.table.inserts"] /
                static_cast<double>(report.rows_loaded));
  cx.metric("transform.schema_rebuilds",
            load_counters["transform.schema_widenings"]);
  cx.metric("transform.inplace_widens", 0);
  cx.metric("transform.rejected_lines",
            load_counters["transform.parse.rejected"]);
  // No collector and no fleet on this workload.
  for (const char* m : {"collector.inline_s", "collector.batches",
                        "collector.retries", "collector.dropped",
                        "fleet.relay_frames", "fleet.root_gaps",
                        "fleet.root_cpu_ms", "fleet.collect_lag_max_ms"}) {
    cx.metric(m, 0);
  }
  cx.metric("db.snapshot_mb", static_cast<double>(dir_bytes(snap)) / kMB);
  db::Database recovered;
  transform::RecoveryStats rs;
  {
    Tracer::Scope s(cx.tr, "db.recover");
    rs = transform::WarehouseIO::recover(recovered, snap);
  }
  cx.metric("db.recover.frames_applied",
            static_cast<double>(rs.wal_frames_applied));
  // The set-up's run is already a sim-only pass with this seed.
  cx.metric("sim.run_s", cx.tr.total_seconds("sim.run"));
  core_probes(cx, *exp, db);
  common_metrics(cx, *exp, wh, v, wall_counters, verdict_counters,
                 query_counters);
}

}  // namespace

Result run_iteration(const Options& o, Tracer& tracer) {
  Ctx cx{o, tracer, {}};
  obs::Registry::global().reset();
  if (o.workload == "fleet_stream") {
    streaming<FleetStream>(cx);
  } else if (o.workload == "online_durable") {
    streaming<OnlineDurable>(cx);
  } else if (o.workload == "batch_query") {
    batch_query(cx);
  } else {
    throw std::invalid_argument("unknown workload: " + o.workload);
  }
  return std::move(cx.r);
}

}  // namespace mscopebench
