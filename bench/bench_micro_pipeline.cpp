// Microbenchmarks of the data-pipeline stages (google-benchmark): how fast
// mScopeDataTransformer parses native logs and loads mScopeDB,
// and how fast the analyses read their series back (db::ColumnReader under
// PIT and queue length). These bound how quickly a collected run can be
// turned into a diagnosis.

#include <benchmark/benchmark.h>

#include "core/metrics.h"
#include "logging/formats.h"
#include "sim/simulation.h"
#include "transform/streaming.h"
#include "util/rng.h"

namespace {

using namespace mscope;
namespace fmt = logging::formats;

std::string make_apache_log(int lines) {
  std::string out;
  util::Rng rng(7);
  for (int i = 0; i < lines; ++i) {
    fmt::ApacheRecord r;
    r.ua = util::msec(i);
    r.ud = r.ua + 3000 + static_cast<util::SimTime>(rng.next_below(20000));
    r.ds = r.ua + 500;
    r.dr = r.ud - 500;
    r.id = static_cast<std::uint64_t>(i);
    r.url = "/rubbos/ViewStory";
    r.bytes = 7000;
    out += fmt::apache_access(r);
    out += '\n';
  }
  return out;
}

// One complete file through the batch load path: ingest + finalize() (fast
// parse, typing, inserts, load catalog).
void BM_DataImport(benchmark::State& state) {
  const auto lines = static_cast<int>(state.range(0));
  const std::string content = make_apache_log(lines);
  for (auto _ : state) {
    db::Database db;
    transform::StreamingTransformer st(db);
    st.ingest("web1", "apache_access.log", std::string_view(content));
    st.finalize();
    benchmark::DoNotOptimize(db);
  }
  state.SetItemsProcessed(state.iterations() * lines);
}
BENCHMARK(BM_DataImport)->Arg(1000)->Arg(10000);

db::Database& warehouse_100k() {
  static db::Database& db = *[] {
    auto* d = new db::Database();  // intentionally leaked benchmark fixture
    auto& t = d->create_table("ev", {{"req_id", db::DataType::kText},
                                    {"ua_usec", db::DataType::kInt},
                                    {"ud_usec", db::DataType::kInt},
                                    {"duration_usec", db::DataType::kInt}});
    util::Rng rng(13);
    for (int i = 0; i < 100000; ++i) {
      const std::int64_t ua = util::msec(i);
      const std::int64_t dur =
          3000 + static_cast<std::int64_t>(rng.next_below(20000));
      t.insert({db::Value{std::string("ID") + std::to_string(i)},
                db::Value{ua}, db::Value{ua + dur}, db::Value{dur}});
    }
    return d;
  }();
  return db;
}  // NOLINT

void BM_PitSeries(benchmark::State& state) {
  db::Database& db = warehouse_100k();
  for (auto _ : state) {
    const auto pit = core::pit_response_time_db(db, "ev", util::msec(50));
    benchmark::DoNotOptimize(pit.overall_avg_ms);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_PitSeries);

void BM_QueueLength(benchmark::State& state) {
  db::Database& db = warehouse_100k();
  for (auto _ : state) {
    const auto q =
        core::queue_length_db(db, "ev", util::msec(50), 0, util::sec(100));
    benchmark::DoNotOptimize(q.data());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_QueueLength);

void BM_SimulationEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    // A self-propagating chain of 100k events.
    int remaining = 100000;
    std::function<void()> tick = [&] {
      if (--remaining > 0) sim.schedule(1, tick);
    };
    sim.schedule(1, tick);
    sim.run_until(util::sec(100));
    benchmark::DoNotOptimize(sim.executed());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_SimulationEventThroughput);

// The kernel under a testbed-sized load: ~3k pending timers (sessions
// thinking, jobs on cores, monitor ticks; mScopeBench's batch_query testbed
// peaks at 3,053 pending events) each re-arming itself at a pseudo-random
// delay, so every firing sifts a ~3k-key heap. The closure is
// 48 bytes, the size of a CPU job, so how its storage is managed shows too.
void BM_SimulationPendingSet(benchmark::State& state) {
  constexpr int kTimers = 3000;
  constexpr int kFirings = 300000;
  struct Timer {
    sim::Simulation* sim;
    int* remaining;
    std::uint64_t lcg;
    std::uint64_t pad[3];
    void operator()() {
      if (--*remaining <= 0) return;
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      const auto delay = static_cast<util::SimTime>(1 + (lcg >> 33) % 5000);
      sim->schedule(delay, Timer(*this));
    }
  };
  static_assert(sizeof(Timer) == 48);
  std::uint64_t fired = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    int remaining = kFirings;
    for (int i = 0; i < kTimers; ++i) {
      sim.schedule(i % 97, Timer{&sim, &remaining,
                                 static_cast<std::uint64_t>(i), {}});
    }
    sim.run_until(util::sec(1000));
    benchmark::DoNotOptimize(sim.executed());
    fired += sim.executed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_SimulationPendingSet);

}  // namespace

BENCHMARK_MAIN();
