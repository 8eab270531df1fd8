// Allocation and time cost of the simulated testbed alone: counts every
// operator new made during one Experiment::run (simulation plus the event
// and resource monitors writing their logs), with no collection attached.
//
//   ./bench_sim_allocations                         # batch_query size
//   ./bench_sim_allocations --size fleet_stream     # fleet_stream size
//   ./bench_sim_allocations --repeat 9              # median wall of 9 runs
//   ./bench_sim_allocations --keep-logs DIR         # leave the logs in DIR
//
// The two sizes are mScopeBench's workload testbeds (full size, seed 1000 =
// the first iteration of seed 1). With --keep-logs, two builds' log
// directories can be compared with `diff -r`.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/milliscope.h"

namespace {
std::atomic<std::uint64_t> g_news{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else {
    p = std::aligned_alloc(align, (n + align - 1) / align * align);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace mscope;

namespace {

constexpr std::uint64_t kSeed = 1000;

/// mScopeBench's full-size testbeds for its batch_query and fleet_stream
/// workloads (Scenario A's redo-log stall on db1): a copy of the full-size
/// branches of testbed_config in mscopebench/workloads.cpp, which this must
/// follow.
core::TestbedConfig testbed_config(const std::string& size,
                                   const std::filesystem::path& logs) {
  core::TestbedConfig cfg;
  cfg.seed = kSeed;
  cfg.log_dir = logs;
  cfg.capture_messages = false;
  core::ScenarioA a;
  if (size == "fleet_stream") {
    cfg.nodes_per_tier = {2, 2, 2, 2};
    cfg.workload = 2000;
    cfg.duration = util::sec(20);
    a.first_flush = util::sec(8);
    a.interval = util::sec(60);
    a.flush_bytes = 128ULL << 20;
  } else {
    cfg.nodes_per_tier = {1, 2, 1, 2};
    cfg.workload = 3000;
    cfg.duration = util::sec(14);
  }
  cfg.scenario_a = a;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  std::string size = "batch_query";
  int repeat = 1;
  std::filesystem::path keep;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--size") == 0 && has_value) {
      size = argv[++i];
    } else if (std::strcmp(argv[i], "--repeat") == 0 && has_value) {
      repeat = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--keep-logs") == 0 && has_value) {
      keep = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--size batch_query|fleet_stream] [--repeat N] "
                   "[--keep-logs DIR]\n",
                   argv[0]);
      return 2;
    }
  }
  if (size != "batch_query" && size != "fleet_stream") {
    std::fprintf(stderr, "unknown size %s\n", size.c_str());
    return 2;
  }
  const std::filesystem::path logs =
      keep.empty() ? bench::bench_dir("sim_allocations") : keep;

  std::vector<double> walls;
  std::uint64_t news = 0;
  std::uint64_t events = 0;
  for (int r = 0; r < repeat; ++r) {
    core::Experiment exp(testbed_config(size, logs));
    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    exp.run();
    const auto t1 = std::chrono::steady_clock::now();
    news = g_news.load(std::memory_order_relaxed) - before;
    events = exp.testbed().simulation().executed();
    walls.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  std::sort(walls.begin(), walls.end());

  std::printf("simulated testbed, %s size, seed %llu\n", size.c_str(),
              static_cast<unsigned long long>(kSeed));
  std::printf("  %-28s%14llu\n", "events executed",
              static_cast<unsigned long long>(events));
  std::printf("  %-28s%14llu\n", "operator new calls (run)",
              static_cast<unsigned long long>(news));
  std::printf("  %-28s%14.2f\n", "operator new per event",
              events > 0 ? static_cast<double>(news) /
                               static_cast<double>(events)
                         : 0.0);
  std::printf("  %-28s%14.3f  (median of %d)\n", "Experiment::run wall (s)",
              walls[walls.size() / 2], repeat);
  return 0;
}
