// Microbenchmarks of the columnar segment store (google-benchmark): SQL
// predicate scans and un-indexed time ranges over sealed delta+varint /
// dictionary segments with zone-map skipping, against the identical table
// kept entirely in the store's tail (SegmentConfig{.seal_rows = 0}): typed
// column arrays with no zone maps to skip by and no dictionary, so a Text
// predicate builds one per scan. Also reports the resident-memory side of
// the trade: bytes per row at warehouse scale.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>

#include "db/database.h"
#include "db/sql.h"
#include "util/rng.h"

namespace {

using namespace mscope;

constexpr int kUrlVariants = 8;

// One synthetic Apache-shaped event table per (size, sealed) pair, built
// once and leaked (benchmark fixture). Same layout and rng seed as
// bench_sql_engine's, so numbers are comparable across the two binaries.
db::Database& warehouse(std::int64_t rows, bool sealed) {
  static std::map<std::pair<std::int64_t, bool>, db::Database*>& dbs =
      *new std::map<std::pair<std::int64_t, bool>, db::Database*>();
  const auto key = std::make_pair(rows, sealed);
  auto it = dbs.find(key);
  if (it == dbs.end()) {
    auto* d = new db::Database();  // intentionally leaked benchmark fixture
    auto& t = d->create_table("ev", {{"req_id", db::DataType::kText},
                                     {"url", db::DataType::kText},
                                     {"tier", db::DataType::kInt},
                                     {"ua_usec", db::DataType::kInt},
                                     {"ud_usec", db::DataType::kInt},
                                     {"duration_usec", db::DataType::kInt}});
    if (!sealed) t.set_storage_config({.seal_rows = 0});
    t.reserve(static_cast<std::size_t>(rows));
    util::Rng rng(13);
    for (std::int64_t i = 0; i < rows; ++i) {
      const std::int64_t ua = util::msec(i);
      const std::int64_t dur =
          3000 + static_cast<std::int64_t>(rng.next_below(20000));
      t.insert({db::Value{std::string("ID") + std::to_string(i)},
                db::Value{std::string("/rubbos/Servlet") +
                          std::to_string(i % kUrlVariants)},
                db::Value{i % 4}, db::Value{ua}, db::Value{ua + dur},
                db::Value{dur}});
    }
    it = dbs.emplace(key, d).first;
  }
  return *it->second;
}

std::int64_t count(const db::Database& db, const std::string& where) {
  return std::get<std::int64_t>(
      db::Sql::execute(db, "SELECT COUNT(*) FROM ev WHERE " + where).at(0, 0));
}

// No TimeIndex is warm on these tables: ranges prune on zone maps alone.
const std::string kUrlEq = "url = '/rubbos/Servlet3'";
const std::string kTenSeconds = "ua_usec >= 1000000 AND ua_usec < 11000000";

// Equality predicate on a Text column: dictionary probe + code scan per
// segment vs dictionary-encoding the tail's cells first.
void BM_PredicateScanColumnar(benchmark::State& state) {
  const db::Database& db = warehouse(state.range(0), /*sealed=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(count(db, kUrlEq));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PredicateScanColumnar)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_PredicateScanTail(benchmark::State& state) {
  const db::Database& db = warehouse(state.range(0), /*sealed=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(count(db, kUrlEq));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PredicateScanTail)->Arg(10000)->Arg(100000)->Arg(1000000);

// 10-second time range: zone maps skip every segment outside the slice, so
// the columnar scan touches ~1% of the table at 1M rows.
void BM_TimeRangeScanColumnar(benchmark::State& state) {
  const db::Database& db = warehouse(state.range(0), /*sealed=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(count(db, kTenSeconds));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TimeRangeScanColumnar)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_TimeRangeScanTail(benchmark::State& state) {
  const db::Database& db = warehouse(state.range(0), /*sealed=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(count(db, kTenSeconds));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TimeRangeScanTail)->Arg(10000)->Arg(100000)->Arg(1000000);

// Full-table sequential materialization through RowCursor: the cost floor
// of every analysis pass (trace reconstruction, consistency checks).
void BM_FullScanCursor(benchmark::State& state) {
  db::Table& t = warehouse(state.range(0), /*sealed=*/true).get("ev");
  for (auto _ : state) {
    std::size_t n = 0;
    for (db::RowCursor cur = t.scan(); cur.next();) n += cur.row().size();
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FullScanCursor)->Arg(10000)->Arg(100000)->Arg(1000000);

std::size_t vm_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      std::sscanf(line + 6, "%zu", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

// Storage footprint of the 1M-row table in both layouts. byte_size() gives
// the engine's own accounting; the VmRSS delta around construction confirms
// it against the allocator's reality.
void report_memory() {
  const std::int64_t rows = 1'000'000;
  const std::size_t rss0 = vm_rss_kb();
  const std::size_t tail =
      warehouse(rows, false).get("ev").storage().byte_size();
  const std::size_t rss1 = vm_rss_kb();
  const std::size_t columnar =
      warehouse(rows, true).get("ev").storage().byte_size();
  const std::size_t rss2 = vm_rss_kb();
  std::printf("# storage footprint, %lld rows\n", (long long)rows);
  std::printf("#   unsealed tail:  %8.1f MB (%.1f B/row), "
              "VmRSS delta %8.1f MB\n",
              tail / 1e6, tail / (double)rows, (rss1 - rss0) / 1e3);
  std::printf("#   sealed columnar: %7.1f MB encoded (%.1f B/row), "
              "VmRSS delta %8.1f MB\n",
              columnar / 1e6, columnar / (double)rows, (rss2 - rss1) / 1e3);
  std::printf("#   size ratio: %.2fx\n", tail / (double)columnar);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  report_memory();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
