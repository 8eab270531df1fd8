#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <type_traits>
#include <vector>

#include "sim/node.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mscope::sim {
namespace {

using util::msec;
using util::sec;
using util::usec;

TEST(Simulation, FiresInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 100);
  EXPECT_EQ(sim.executed(), 3u);
}

TEST(Simulation, SameTimeIsFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.run_until(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation sim;
  int fired = 0;
  sim.schedule(1, [&] {
    ++fired;
    sim.schedule(1, [&] { ++fired; });
  });
  sim.run_until(10);
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation sim;
  bool late = false;
  sim.schedule(100, [&] { late = true; });
  sim.run_until(99);
  EXPECT_FALSE(late);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(100);
  EXPECT_TRUE(late);
}

TEST(Simulation, RejectsPastAndNegative) {
  Simulation sim;
  sim.schedule(10, [] {});
  sim.run_until(10);
  EXPECT_THROW(sim.schedule(-1, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_at(5, [] {}), std::invalid_argument);
}

TEST(Simulation, StepReturnsFalseWhenEmpty) {
  Simulation sim;
  EXPECT_FALSE(sim.step());
}

Node::Config small_node() {
  Node::Config c;
  c.name = "n";
  c.cores = 2;
  c.disk.bandwidth_mbps = 100.0;  // 100 bytes/usec
  c.disk.per_op = 10;
  return c;
}

TEST(Cpu, RunsJobsAndAccounts) {
  Simulation sim;
  Node node(sim, small_node());
  int done = 0;
  node.cpu().submit(100, [&] { ++done; });
  node.cpu().submit(50, CpuCategory::kSystem, CpuPriority::kNormal,
                    [&] { ++done; });
  sim.run_until(sec(1));
  EXPECT_EQ(done, 2);
  EXPECT_EQ(node.cpu().busy_user(), 100);
  EXPECT_EQ(node.cpu().busy_system(), 50);
  EXPECT_EQ(node.cpu().busy_cores(), 0);
}

TEST(Cpu, QueuesBeyondCores) {
  Simulation sim;
  Node node(sim, small_node());  // 2 cores
  std::vector<SimTime> completion;
  for (int i = 0; i < 4; ++i) {
    node.cpu().submit(100, [&] { completion.push_back(sim.now()); });
  }
  EXPECT_EQ(node.cpu().busy_cores(), 2);
  EXPECT_EQ(node.cpu().queue_length(), 2);
  sim.run_until(sec(1));
  ASSERT_EQ(completion.size(), 4u);
  EXPECT_EQ(completion[0], 100);
  EXPECT_EQ(completion[1], 100);
  EXPECT_EQ(completion[2], 200);
  EXPECT_EQ(completion[3], 200);
}

TEST(Cpu, KernelPriorityPreemptsQueue) {
  Simulation sim;
  Node node(sim, small_node());
  std::vector<char> order;
  // Fill both cores.
  node.cpu().submit(100, [&] { order.push_back('a'); });
  node.cpu().submit(100, [&] { order.push_back('b'); });
  // Normal queued first, then a kernel job: kernel must run first.
  node.cpu().submit(10, CpuCategory::kUser, CpuPriority::kNormal,
                    [&] { order.push_back('n'); });
  node.cpu().submit(10, CpuCategory::kSystem, CpuPriority::kKernel,
                    [&] { order.push_back('k'); });
  sim.run_until(sec(1));
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[2], 'k');
  EXPECT_EQ(order[3], 'n');
}

TEST(Cpu, ZeroDemandCompletes) {
  Simulation sim;
  Node node(sim, small_node());
  bool done = false;
  node.cpu().submit(0, [&] { done = true; });
  sim.run_until(1);
  EXPECT_TRUE(done);
  EXPECT_THROW(node.cpu().submit(-1, nullptr), std::invalid_argument);
}

TEST(Disk, FifoServiceAndCounters) {
  Simulation sim;
  Node node(sim, small_node());
  std::vector<SimTime> times;
  // 100 MB/s == 100 bytes/usec; per_op 10us.
  node.disk().submit(1000, true, [&] { times.push_back(sim.now()); });
  node.disk().submit(500, false, [&] { times.push_back(sim.now()); });
  EXPECT_TRUE(node.disk().busy());
  EXPECT_EQ(node.disk().queue_length(), 2);
  sim.run_until(sec(1));
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], 20);       // 10 + 1000/100
  EXPECT_EQ(times[1], 20 + 15);  // 10 + 500/100
  EXPECT_EQ(node.disk().bytes_written(), 1000u);
  EXPECT_EQ(node.disk().bytes_read(), 500u);
  EXPECT_EQ(node.disk().ops_completed(), 2u);
  EXPECT_EQ(node.disk().busy_time(), 35);
  EXPECT_FALSE(node.disk().busy());
}

TEST(Disk, LargeWriteBlocksSmallOne) {
  // The scenario-A mechanism in miniature: a small commit submitted after a
  // huge flush waits for the whole flush.
  Simulation sim;
  Node node(sim, small_node());
  SimTime commit_done = -1;
  node.disk().submit(10'000'000, true, nullptr);       // 100 ms transfer
  node.disk().submit(100, true, [&] { commit_done = sim.now(); });
  sim.run_until(sec(1));
  EXPECT_GT(commit_done, msec(100));
}

TEST(PageCache, RecyclesAboveThresholdAndStopsAtWatermark) {
  Simulation sim;
  Node::Config c = small_node();
  c.page_cache.recycle_threshold_bytes = 1 << 20;
  c.page_cache.low_watermark_bytes = 1 << 18;
  c.page_cache.writeback_chunk_bytes = 1 << 18;
  c.page_cache.slice = msec(5);
  Node node(sim, c);
  node.page_cache().dirty(2 << 20);
  EXPECT_TRUE(node.page_cache().recycling());
  EXPECT_EQ(node.page_cache().recycle_episodes(), 1);
  sim.run_until(sec(2));
  EXPECT_FALSE(node.page_cache().recycling());
  EXPECT_LE(node.page_cache().dirty_bytes(), 1 << 18);
  // CPU burned at kernel priority (system time) during recycling.
  EXPECT_GT(node.cpu().busy_system(), 0);
  // Dirty bytes were written back to disk.
  EXPECT_GT(node.disk().bytes_written(), 0u);
}

TEST(PageCache, BackgroundWritebackDrainsWithoutCpuStorm) {
  Simulation sim;
  Node::Config c = small_node();
  c.page_cache.background_chunk_bytes = 1 << 20;
  c.page_cache.background_interval = msec(100);
  Node node(sim, c);
  node.page_cache().dirty(3 << 20);
  EXPECT_FALSE(node.page_cache().recycling());
  sim.run_until(sec(2));
  EXPECT_EQ(node.page_cache().dirty_bytes(), 0);
  EXPECT_EQ(node.cpu().busy_system(), 0);
}

TEST(PageCache, ValidatesConfig) {
  Simulation sim;
  Node::Config c = small_node();
  c.page_cache.low_watermark_bytes = c.page_cache.recycle_threshold_bytes;
  EXPECT_THROW(Node node(sim, c), std::invalid_argument);
}

TEST(Node, IowaitAccruesOnlyWhenIdleAndDiskBusy) {
  Simulation sim;
  Node node(sim, small_node());  // 2 cores
  // Disk busy for 10 + 100000/100 = 1010 usec; CPU fully idle.
  node.disk().submit(100000, false, nullptr);
  sim.run_until(msec(10));
  const auto c1 = node.counters();
  EXPECT_EQ(c1.iowait, 1010 * 2);  // both cores idle while disk busy

  // Now occupy both cores for the whole next disk op: no further iowait.
  node.cpu().submit(msec(5), nullptr);
  node.cpu().submit(msec(5), nullptr);
  node.disk().submit(100000, false, nullptr);
  sim.run_until(msec(20));
  const auto c2 = node.counters();
  EXPECT_EQ(c2.iowait, c1.iowait);
}

TEST(Node, CpuUtilFractionsSumToOne) {
  Simulation sim;
  Node node(sim, small_node());
  const auto before = node.counters();
  node.cpu().submit(msec(100), nullptr);                      // user
  node.cpu().submit(msec(50), CpuCategory::kSystem,
                    CpuPriority::kNormal, nullptr);           // system
  sim.run_until(msec(100));
  const auto after = node.counters();
  const auto u = Node::cpu_util(before, after, node.cores());
  EXPECT_NEAR(u.user, 0.5, 1e-9);    // 100ms of 200 core-ms
  EXPECT_NEAR(u.system, 0.25, 1e-9);
  EXPECT_NEAR(u.user + u.system + u.iowait + u.idle, 1.0, 1e-9);
}

TEST(Node, CountersMonotonic) {
  Simulation sim;
  Node node(sim, small_node());
  node.add_net_rx(100);
  node.add_net_tx(200);
  const auto c = node.counters();
  EXPECT_EQ(c.net_rx, 100u);
  EXPECT_EQ(c.net_tx, 200u);
}

// --- kernel properties against a priority-queue oracle -----------------------

/// The reference event queue: a std::priority_queue of (time, seq) entries,
/// the kernel's queue before the key heap and callback slab replaced it.
class OracleQueue {
 public:
  void schedule_at(SimTime t, int id) { q_.push({t, seq_++, id}); }
  [[nodiscard]] std::optional<int> step() {
    if (q_.empty()) return std::nullopt;
    const Entry e = q_.top();
    q_.pop();
    now_ = e.time;
    return e.id;
  }
  [[nodiscard]] bool due(SimTime until) const {
    return !q_.empty() && q_.top().time <= until;
  }
  void advance_to(SimTime t) { now_ = std::max(now_, t); }
  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::size_t size() const { return q_.size(); }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    int id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> q_;
  std::uint64_t seq_ = 0;
  SimTime now_ = 0;
};

/// Drives a Simulation and the oracle in lockstep. Every event has an id
/// and a fixed list of child delays; firing it records the id and schedules
/// the children (pre-assigned ids), so both sides see the same scheduling
/// calls exactly when they fire the same events in the same order.
class Lockstep {
 public:
  explicit Lockstep(std::uint64_t seed) : rng_(seed, 77) {}

  /// A fresh event `delay` from now, with up to `max_children` children,
  /// through schedule() or schedule_at().
  void add(SimTime delay, int max_children, bool absolute) {
    const int id = new_event(max_children);
    if (absolute) {
      schedule_sim(sim_.now() + delay, id);
    } else {
      sim_.schedule(delay, fire_sim(id));
    }
    oracle_.schedule_at(oracle_.now() + delay, id);
  }

  void step() {
    const bool fired = sim_.step();
    const std::optional<int> id = oracle_.step();
    ASSERT_EQ(fired, id.has_value());
    if (id) fire_oracle(*id);
  }

  void run_until(SimTime until) {
    sim_.run_until(until);
    while (oracle_.due(until)) fire_oracle(*oracle_.step());
    oracle_.advance_to(until);
  }

  void expect_agree() const {
    ASSERT_EQ(sim_order_, oracle_order_);
    EXPECT_EQ(sim_.now(), oracle_.now());
    EXPECT_EQ(sim_.pending(), oracle_.size());
    EXPECT_EQ(sim_.executed(), sim_order_.size());
  }

  [[nodiscard]] Simulation& sim() { return sim_; }
  [[nodiscard]] util::Rng& rng() { return rng_; }
  [[nodiscard]] SimTime delay() {
    // Small delays, 0 included, so same-time ties are the common case.
    static constexpr std::array<SimTime, 6> kDelays{0, 0, 1, 2, 5, 40};
    return kDelays[rng_.next_below(kDelays.size())];
  }

 private:
  struct Plan {
    std::vector<std::pair<SimTime, int>> children;  ///< (delay, child id)
  };

  [[nodiscard]] const std::vector<std::pair<SimTime, int>>& children(
      int id) const {
    return plans_[static_cast<std::size_t>(id)].children;
  }

  int new_event(int max_children) {
    const int id = static_cast<int>(plans_.size());
    plans_.emplace_back();
    const std::uint64_t n =
        rng_.next_below(static_cast<std::uint64_t>(max_children) + 1);
    for (std::uint64_t k = 0; k < n; ++k) {
      const SimTime d = delay();
      const int child = new_event(0);
      plans_[static_cast<std::size_t>(id)].children.emplace_back(d, child);
    }
    return id;
  }

  Callback fire_sim(int id) {
    return [this, id] {
      sim_order_.push_back(id);
      for (const auto& [d, child] : children(id))
        schedule_sim(sim_.now() + d, child);
    };
  }
  void schedule_sim(SimTime t, int id) { sim_.schedule_at(t, fire_sim(id)); }

  void fire_oracle(int id) {
    oracle_order_.push_back(id);
    for (const auto& [d, child] : children(id))
      oracle_.schedule_at(oracle_.now() + d, child);
  }

  util::Rng rng_;
  Simulation sim_;
  OracleQueue oracle_;
  std::vector<Plan> plans_;
  std::vector<int> sim_order_;
  std::vector<int> oracle_order_;
};

TEST(SimKernel, RandomInterleavingsMatchThePriorityQueueOracle) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    Lockstep ls(seed);
    for (int op = 0; op < 600; ++op) {
      switch (ls.rng().next_below(5)) {
        case 0:
          ls.add(ls.delay(), 2, /*absolute=*/false);
          break;
        case 1:  // children are scheduled reentrantly, from the firing event
          ls.add(ls.delay(), 4, /*absolute=*/true);
          break;
        case 2:
        case 3:
          ls.step();
          break;
        default:
          ls.run_until(ls.sim().now() + ls.delay());
          break;
      }
    }
    ls.run_until(ls.sim().now() + 1'000'000);
    ls.expect_agree();
    EXPECT_EQ(ls.sim().pending(), 0u);
  }
}

TEST(SimKernel, CallbackGrowsTheSlabWhileItRuns) {
  // One running callback schedules hundreds of events: the slab reallocates
  // under it, so the kernel must have moved it out before calling it. Its
  // own (inline) captures are read after every schedule, where ASan would
  // flag a read of freed slab memory.
  Simulation sim;
  std::vector<int> order;
  const std::array<std::uint64_t, 2> payload{11, 22};
  std::uint64_t checksum = 0;
  sim.schedule(1, [&sim, &order, &checksum, payload] {
    for (int i = 0; i < 500; ++i) {
      sim.schedule(i % 3, [&order, i] { order.push_back(i); });
      checksum += payload[static_cast<std::size_t>(i) % payload.size()];
    }
  });
  sim.run_until(10);
  EXPECT_EQ(checksum, 250u * (11 + 22));
  // Ties fire in scheduling order: every i % 3 == 0 at t=1, then 1, then 2.
  std::vector<int> expected;
  for (int r = 0; r < 3; ++r) {
    for (int i = r; i < 500; i += 3) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
}

// Every callback lives inside the Callback: a closure that is too large or
// over-aligned does not convert at all, and must hold its bulk behind a
// pointer instead.
struct alignas(64) OverAligned {
  int v = 7;
};
using OversizedClosure =
    decltype([big = std::array<char, Callback::kInlineBytes + 8>{}] {
      (void)big;
    });
using OverAlignedClosure = decltype([o = OverAligned{}] { (void)o; });
static_assert(!std::is_constructible_v<Callback, OversizedClosure>);
static_assert(!std::is_constructible_v<Callback, OverAlignedClosure>);
static_assert(std::is_constructible_v<Callback, void (*)()>);

TEST(SimKernel, MoveOnlyCapturesRunAndAreDestroyed) {
  Simulation sim;
  int sum = 0;
  auto shared = std::make_shared<int>(5);
  const std::weak_ptr<int> watch = shared;
  sim.schedule(1, [&sum, p = std::make_unique<int>(42)] { sum += *p; });
  // Bulk too large to capture inline rides behind a unique_ptr; the closure
  // is still moved (never copied).
  auto pad = std::make_unique<std::array<int, 32>>();
  (*pad)[31] = 100;
  sim.schedule(2, [&sum, p = std::make_unique<int>(1), pad = std::move(pad)] {
    sum += *p + (*pad)[31];
  });
  sim.schedule(3, [&sum, s = std::move(shared)] { sum += *s; });
  sim.run_until(10);
  EXPECT_EQ(sum, 42 + 101 + 5);
  EXPECT_TRUE(watch.expired());  // the fired closure released its capture
}

TEST(SimKernel, NullCompletionsOnCpuAndDisk) {
  Simulation sim;
  Node node(sim, small_node());
  const std::function<void()> empty;
  node.cpu().submit(10, nullptr);
  node.cpu().submit(10, empty);
  node.cpu().submit(10, CpuCategory::kSystem, CpuPriority::kKernel, nullptr);
  node.disk().submit(100, true, nullptr);
  node.disk().submit(100, false, empty);
  sim.run_until(sec(1));
  EXPECT_EQ(node.cpu().busy_cores(), 0);
  EXPECT_EQ(node.cpu().busy_user(), 20);
  EXPECT_EQ(node.cpu().busy_system(), 10);
  EXPECT_EQ(node.disk().ops_completed(), 2u);
  EXPECT_FALSE(node.disk().busy());
  EXPECT_THROW(sim.schedule(1, nullptr), std::invalid_argument);
  EXPECT_THROW(sim.schedule(1, empty), std::invalid_argument);
}

TEST(SimKernel, DestroyedWithEventsPendingReleasesEveryCapture) {
  auto shared = std::make_shared<int>(1);
  const std::weak_ptr<int> watch = shared;
  {
    Simulation sim;
    for (int i = 0; i < 100; ++i) {
      sim.schedule(10 + i, [s = shared, p = std::make_unique<int>(i)] {
        (void)s;
        (void)p;
      });
      sim.schedule(10 + i,
                   [s = shared,
                    big = std::make_unique<
                        std::array<char, 2 * Callback::kInlineBytes>>()] {
                     (void)s;
                     (void)big;
                   });
    }
    sim.schedule(1, [] {});
    sim.run_until(5);
    EXPECT_EQ(sim.pending(), 200u);
  }
  shared.reset();
  EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace mscope::sim
