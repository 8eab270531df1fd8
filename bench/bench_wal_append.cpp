// Measures the write-ahead log's cost on mScopeDB's two write paths, each
// against the same path without a journal: row-at-a-time inserts, where
// every insert writes its own one-row frame (frame encoding + CRC32C + a
// buffered write), and 256-row column-range appends, where the range goes
// into one frame in the store's column layout. Group-commit flushes are
// measured alone (BM_GroupCommitFlush) and amortized at the commit cadences
// below. items/s counts rows for every benchmark.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "db/column_batch.h"
#include "db/database.h"
#include "db/wal/wal.h"

namespace {

namespace fs = std::filesystem;
using namespace mscope;

db::Schema bench_schema() {
  return {{"ts_usec", db::DataType::kInt},
          {"duration_usec", db::DataType::kInt},
          {"util", db::DataType::kDouble},
          {"op", db::DataType::kText}};
}

db::Table::Row make_row(std::int64_t i) {
  db::Table::Row row;
  row.reserve(4);
  row.push_back(db::Value{i * 100});
  row.push_back(db::Value{(i * 37) % 5000});
  row.push_back(db::Value{static_cast<double>(i % 100) / 100.0});
  row.push_back(db::Value{db::TextRef(i % 2 == 0 ? "read" : "write")});
  return row;
}

/// Rows [first, first + rows) of make_row's sequence in column form.
db::ColumnBatch make_batch(std::int64_t first, std::size_t rows) {
  db::ColumnBatch b;
  b.schema = bench_schema();
  b.rows = rows;
  b.columns.resize(b.schema.size());
  for (std::size_t c = 0; c < b.schema.size(); ++c) {
    b.columns[c].type = b.schema[c].type;
    b.columns[c].valid.assign(rows, 1);
  }
  const db::TextRef read("read");
  const db::TextRef write("write");
  for (std::int64_t i = first; i < first + static_cast<std::int64_t>(rows);
       ++i) {
    b.columns[0].ints.push_back(i * 100);
    b.columns[1].ints.push_back((i * 37) % 5000);
    b.columns[2].doubles.push_back(static_cast<double>(i % 100) / 100.0);
    b.columns[3].texts.emplace_back(i % 2 == 0 ? read : write);
  }
  return b;
}

constexpr std::size_t kBatchRows = 256;

fs::path wal_file() {
  return fs::temp_directory_path() /
         ("bench_wal_append_" + std::to_string(::getpid()) + ".log");
}

// Keep tables bounded so the measurement stays on insert, not on memory.
constexpr std::size_t kMaxRows = 1u << 20;

void BM_InsertBare(benchmark::State& state) {
  db::Database db;
  db::Table& t = db.create_table("ev_bench", bench_schema());
  std::int64_t i = 0;
  for (auto _ : state) {
    t.insert(make_row(i++));
    if (t.row_count() >= kMaxRows) t.clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InsertBare);

void BM_InsertJournaled(benchmark::State& state) {
  const std::int64_t commit_every = state.range(0);
  db::Database db;
  db::wal::WalWriter wal(wal_file());
  db.set_journal(&wal);
  db::Table& t = db.create_table("ev_bench", bench_schema());
  std::int64_t i = 0;
  for (auto _ : state) {
    t.insert(make_row(i++));
    if (i % commit_every == 0) wal.commit();
    if (t.row_count() >= kMaxRows) t.clear();
  }
  db.set_journal(nullptr);
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(wal.stats().bytes));
  state.counters["frames"] = static_cast<double>(wal.stats().frames);
}
// Group-commit cadences: every insert (worst case), streaming batch sizes,
// and the OnlineCollection default regime (hundreds of rows per tick).
BENCHMARK(BM_InsertJournaled)->Arg(1)->Arg(64)->Arg(1024);

void BM_AppendBare(benchmark::State& state) {
  db::Database db;
  db::Table& t = db.create_table("ev_bench", bench_schema());
  const db::ColumnBatch batch = make_batch(0, kBatchRows);
  for (auto _ : state) {
    t.append(batch, 0, batch.rows);
    if (t.row_count() >= kMaxRows) t.clear();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatchRows));
}
BENCHMARK(BM_AppendBare);

void BM_AppendJournaled(benchmark::State& state) {
  // Commit every `range(0)` rows, as BM_InsertJournaled does.
  const auto appends_per_commit = std::max<std::int64_t>(
      1, state.range(0) / static_cast<std::int64_t>(kBatchRows));
  db::Database db;
  db::wal::WalWriter wal(wal_file());
  db.set_journal(&wal);
  db::Table& t = db.create_table("ev_bench", bench_schema());
  const db::ColumnBatch batch = make_batch(0, kBatchRows);
  std::int64_t i = 0;
  for (auto _ : state) {
    t.append(batch, 0, batch.rows);
    if (++i % appends_per_commit == 0) wal.commit();
    if (t.row_count() >= kMaxRows) t.clear();
  }
  db.set_journal(nullptr);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatchRows));
  state.SetBytesProcessed(static_cast<std::int64_t>(wal.stats().bytes));
  state.counters["frames"] = static_cast<double>(wal.stats().frames);
}
BENCHMARK(BM_AppendJournaled)->Arg(1024);

void BM_GroupCommitFlush(benchmark::State& state) {
  // The commit marker + flush alone, on a log with one dirty frame — the
  // fixed cost each group-commit tick pays.
  db::Database db;
  db::wal::WalWriter wal(wal_file());
  db.set_journal(&wal);
  db::Table& t = db.create_table("ev_bench", bench_schema());
  std::int64_t i = 0;
  for (auto _ : state) {
    t.insert(make_row(i++));
    wal.commit();
    if (t.row_count() >= kMaxRows) t.clear();
  }
  db.set_journal(nullptr);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GroupCommitFlush);

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  const int rc = ::benchmark::RunSpecifiedBenchmarks() > 0 ? 0 : 1;
  std::error_code ec;
  fs::remove(wal_file(), ec);
  fs::remove(wal_file().string() + ".tmp", ec);
  return rc;
}
