// mScopeSQL (google-benchmark): seven analyses — full-column scan aggregate,
// selective filter, time-bucketed group-by, a cross-tier hash join, a top-k
// ORDER BY, a time-alignment (ALIGN) join and a top-k over a join's Text
// column — through the vectorized pipeline, plus parse+plan overhead in
// isolation. Every iteration carries lexing, parsing and planning.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <string>

#include "db/database.h"
#include "db/sql.h"
#include "util/rng.h"
#include "util/simtime.h"

namespace {

using namespace mscope;

constexpr int kUrlVariants = 8;

// One synthetic two-tier warehouse per size, built once and leaked
// (benchmark fixture): an apache-shaped event table with `rows` requests at
// one per msec, and a mysql-shaped table visited by every third request.
db::Database& warehouse(std::int64_t rows) {
  static std::map<std::int64_t, db::Database*>& dbs =
      *new std::map<std::int64_t, db::Database*>();
  auto it = dbs.find(rows);
  if (it == dbs.end()) {
    auto* d = new db::Database();  // intentionally leaked benchmark fixture
    auto& ev = d->create_table("ev", {{"req_id", db::DataType::kText},
                                      {"url", db::DataType::kText},
                                      {"tier", db::DataType::kInt},
                                      {"ua_usec", db::DataType::kInt},
                                      {"duration_usec", db::DataType::kInt}});
    auto& my = d->create_table("my", {{"req_id", db::DataType::kText},
                                      {"ts_usec", db::DataType::kInt},
                                      {"visit_usec", db::DataType::kInt}});
    ev.reserve(static_cast<std::size_t>(rows));
    util::Rng rng(13);
    for (std::int64_t i = 0; i < rows; ++i) {
      const std::int64_t ua = util::msec(i);
      const std::int64_t dur =
          3000 + static_cast<std::int64_t>(rng.next_below(20000));
      ev.insert({db::Value{std::string("ID") + std::to_string(i)},
                 db::Value{std::string("/rubbos/Servlet") +
                           std::to_string(i % kUrlVariants)},
                 db::Value{i % 4}, db::Value{ua}, db::Value{dur}});
      if (i % 3 == 0) {
        my.insert({db::Value{std::string("ID") + std::to_string(i)},
                   db::Value{ua + 150}, db::Value{dur / 2}});
      }
    }
    (void)ev.time_index("ua_usec");  // warm, so benches measure steady state
    it = dbs.emplace(rows, d).first;
  }
  return *it->second;
}

// --- scan: one aggregate over every row of one column ------------------------

void BM_ScanAggSql(benchmark::State& state) {
  db::Database& db = warehouse(state.range(0));
  for (auto _ : state) {
    const db::Table r =
        db::Sql::execute(db, "SELECT SUM(duration_usec) FROM ev");
    benchmark::DoNotOptimize(r.at(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScanAggSql)->Arg(100000)->Arg(1000000);

// --- filter: selective predicate, count survivors ----------------------------

void BM_FilterCountSql(benchmark::State& state) {
  db::Database& db = warehouse(state.range(0));
  for (auto _ : state) {
    const db::Table r = db::Sql::execute(
        db, "SELECT COUNT(*) FROM ev WHERE url = '/rubbos/Servlet3'");
    benchmark::DoNotOptimize(r.at(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FilterCountSql)->Arg(100000)->Arg(1000000);

// --- group-by: the per-second roll-up behind every figure --------------------

void BM_GroupBySql(benchmark::State& state) {
  db::Database& db = warehouse(state.range(0));
  for (auto _ : state) {
    const db::Table r = db::Sql::execute(
        db,
        "SELECT BUCKET(ua_usec, 1000000), COUNT(*), AVG(duration_usec), "
        "MAX(duration_usec) FROM ev GROUP BY BUCKET(ua_usec, 1000000)");
    benchmark::DoNotOptimize(r.row_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupBySql)->Arg(100000)->Arg(1000000);

// --- join: cross-tier hash join on the request id ----------------------------

void BM_HashJoinSql(benchmark::State& state) {
  db::Database& db = warehouse(state.range(0));
  for (auto _ : state) {
    const db::Table r = db::Sql::execute(
        db,
        "SELECT COUNT(*), MAX(m.visit_usec) FROM ev AS e JOIN my AS m "
        "ON e.req_id = m.req_id");
    benchmark::DoNotOptimize(r.at(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashJoinSql)->Arg(100000)->Arg(1000000);

// --- top-k: a full sort of one table, the first ten rows kept ---------------

void BM_OrderBySql(benchmark::State& state) {
  db::Database& db = warehouse(state.range(0));
  for (auto _ : state) {
    const db::Table r = db::Sql::execute(
        db,
        "SELECT req_id, duration_usec FROM ev ORDER BY duration_usec DESC "
        "LIMIT 10");
    benchmark::DoNotOptimize(r.at(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OrderBySql)->Arg(100000)->Arg(1000000);

// --- align: each mysql visit paired with the requests within 500 usec --------

void BM_AlignJoinSql(benchmark::State& state) {
  db::Database& db = warehouse(state.range(0));
  for (auto _ : state) {
    const db::Table r = db::Sql::execute(
        db,
        "SELECT COUNT(*) FROM ev AS e JOIN my AS m "
        "ON ALIGN(e.ua_usec, m.ts_usec, 500)");
    benchmark::DoNotOptimize(r.at(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AlignJoinSql)->Arg(100000)->Arg(1000000);

// --- join, residual filter and top-k over a build-side Text column ----------
// Each join output batch shares the build side's whole req_id dictionary
// (one entry per mysql row): the residual filter and the sort's drain must
// cost each batch's rows, not that dictionary's size.

void BM_JoinOrderBySql(benchmark::State& state) {
  db::Database& db = warehouse(state.range(0));
  for (auto _ : state) {
    const db::Table r = db::Sql::execute(
        db,
        "SELECT m.req_id, e.duration_usec FROM ev AS e JOIN my AS m "
        "ON e.req_id = m.req_id WHERE m.req_id != 'ID3' OR e.tier = 1 "
        "ORDER BY m.req_id DESC LIMIT 10");
    benchmark::DoNotOptimize(r.at(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_JoinOrderBySql)->Arg(100000)->Arg(1000000);

// --- parse + plan overhead in isolation --------------------------------------

void BM_ParsePlanOnly(benchmark::State& state) {
  db::Database& db = warehouse(100000);
  // LIMIT 0 keeps execution trivial: the iteration cost is dominated by
  // lexing, parsing, binding and planning the join query.
  for (auto _ : state) {
    const db::Table r = db::Sql::execute(
        db,
        "SELECT e.req_id, m.visit_usec FROM ev AS e JOIN my AS m "
        "ON e.req_id = m.req_id WHERE e.ua_usec < 0 LIMIT 0");
    benchmark::DoNotOptimize(r.row_count());
  }
}
BENCHMARK(BM_ParsePlanOnly);

}  // namespace

BENCHMARK_MAIN();
