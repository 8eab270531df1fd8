#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sim/network.h"
#include "sim/node.h"
#include "sim/server.h"
#include "workload/client.h"
#include "workload/rubbos.h"

namespace mscope::workload {
namespace {

using util::msec;
using util::sec;

TEST(Rubbos, HasTwentyFourInteractions) {
  EXPECT_EQ(Rubbos::interactions().size(), 24u);
}

TEST(Rubbos, InteractionTableIsWellFormed) {
  std::set<std::string> names;
  for (const auto& ix : Rubbos::interactions()) {
    EXPECT_FALSE(ix.name.empty());
    EXPECT_TRUE(names.insert(ix.name).second) << "duplicate " << ix.name;
    EXPECT_EQ(ix.url, "/rubbos/" + ix.name);
    EXPECT_GT(ix.weight, 0.0);
    EXPECT_GE(ix.queries, 1);
    EXPECT_GT(ix.tomcat_cpu, 0.0);
    EXPECT_GT(ix.mysql_cpu, 0.0);
    EXPECT_GE(ix.buffer_miss, 0.0);
    EXPECT_LE(ix.buffer_miss, 1.0);
    EXPECT_FALSE(ix.sql_template.empty());
  }
}

TEST(Rubbos, MixIsBrowseHeavy) {
  double read_w = 0, write_w = 0;
  for (const auto& ix : Rubbos::interactions()) {
    (ix.is_write ? write_w : read_w) += ix.weight;
  }
  // RUBBoS read/write mix: ~90/10.
  EXPECT_GT(read_w / (read_w + write_w), 0.85);
}

TEST(Rubbos, NextInteractionInRangeAndFollowsEdges) {
  util::Rng rng(1);
  int follow = 0;
  constexpr int kN = 20000;
  const int n = static_cast<int>(Rubbos::interactions().size());
  for (int i = 0; i < kN; ++i) {
    const int next = Rubbos::next_interaction(0, rng);  // StoriesOfTheDay
    ASSERT_GE(next, 0);
    ASSERT_LT(next, n);
    if (next == 1) ++follow;  // ViewStory follow-up edge (p = .45)
  }
  EXPECT_GT(static_cast<double>(follow) / kN, 0.40);
}

TEST(Rubbos, MakeDemandsShape) {
  util::Rng rng(2);
  const auto& ix = Rubbos::interactions()[1];  // ViewStory, 3 queries
  const auto demands = Rubbos::make_demands(ix, rng);
  ASSERT_EQ(demands.size(), 4u);
  EXPECT_EQ(demands[Rubbos::kApache].size(), 1u);
  EXPECT_EQ(demands[Rubbos::kApache][0].downstream_calls, 1);
  EXPECT_EQ(demands[Rubbos::kTomcat].size(), 1u);
  EXPECT_EQ(demands[Rubbos::kTomcat][0].downstream_calls, ix.queries);
  EXPECT_EQ(demands[Rubbos::kCjdbc].size(),
            static_cast<std::size_t>(ix.queries));
  EXPECT_EQ(demands[Rubbos::kMysql].size(),
            static_cast<std::size_t>(ix.queries));
}

TEST(Rubbos, WriteInteractionCommitsOnLastQueryOnly) {
  util::Rng rng(3);
  const Interaction* write_ix = nullptr;
  for (const auto& ix : Rubbos::interactions()) {
    if (ix.is_write && ix.queries > 1) {
      write_ix = &ix;
      break;
    }
  }
  ASSERT_NE(write_ix, nullptr);
  const auto demands = Rubbos::make_demands(*write_ix, rng);
  const auto& mysql = demands[Rubbos::kMysql];
  for (std::size_t q = 0; q + 1 < mysql.size(); ++q) {
    EXPECT_EQ(mysql[q].commit_write_bytes, 0u);
  }
  EXPECT_GT(mysql.back().commit_write_bytes, 0u);
}

TEST(Rubbos, BufferMissMultiplierIncreasesReads) {
  const auto& ix = Rubbos::interactions()[1];
  int base = 0, boosted = 0;
  constexpr int kN = 5000;
  {
    util::Rng rng(4);
    for (int i = 0; i < kN; ++i) {
      // Bound to a local: a range-for over a member of the returned
      // temporary would read it after it is destroyed.
      const auto demands = Rubbos::make_demands(ix, rng, 1.0);
      for (const auto& d : demands[Rubbos::kMysql]) {
        base += d.disk_read_bytes > 0;
      }
    }
  }
  {
    util::Rng rng(4);
    for (int i = 0; i < kN; ++i) {
      const auto demands = Rubbos::make_demands(ix, rng, 3.0);
      for (const auto& d : demands[Rubbos::kMysql]) {
        boosted += d.disk_read_bytes > 0;
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(boosted) / base, 3.0, 0.35);
}

TEST(Rubbos, WireSizesValidTiersOnly) {
  for (int t = 0; t < Rubbos::kTiers; ++t) {
    const auto w = Rubbos::wire_sizes(t);
    EXPECT_GT(w.request, 0u);
    EXPECT_GT(w.response, w.request);  // responses carry the payload
  }
  EXPECT_THROW(Rubbos::wire_sizes(4), std::out_of_range);
}

// --- ClientPool ------------------------------------------------------------

struct ClientRig {
  sim::Simulation sim;
  sim::Network net{sim, {}};
  std::unique_ptr<sim::Node> server_node;
  std::unique_ptr<sim::Node> client_node;
  std::unique_ptr<sim::Server> server;

  ClientRig() {
    sim::Node::Config nc;
    nc.cores = 8;
    nc.name = "srv";
    server_node = std::make_unique<sim::Node>(sim, nc);
    nc.name = "cli";
    client_node = std::make_unique<sim::Node>(sim, nc);
    sim::Server::Config sc;
    sc.tier = 0;
    sc.workers = 50;
    server = std::make_unique<sim::Server>(sim, *server_node, net, sc);
  }
};

TEST(ClientPool, ClosedLoopCompletesRequests) {
  ClientRig rig;
  ClientPool::Config cc;
  cc.users = 50;
  cc.mean_think = msec(500);
  ClientPool pool(rig.sim, rig.net, *rig.client_node, *rig.server, cc);
  pool.start();
  rig.sim.run_until(sec(10));
  EXPECT_GT(pool.completed().size(), 400u);
  EXPECT_EQ(pool.issued(), pool.completed().size());
  for (const auto& r : pool.completed()) {
    EXPECT_GE(r->response_time(), 0);
    EXPECT_EQ(r->records.size(), 4u);
    EXPECT_EQ(r->records[0].visits.size(), 1u);  // front tier visited once
  }
}

TEST(ClientPool, ThroughputScalesWithUsers) {
  std::size_t done_small = 0, done_large = 0;
  for (const int users : {25, 100}) {
    ClientRig rig;
    ClientPool::Config cc;
    cc.users = users;
    cc.mean_think = msec(500);
    ClientPool pool(rig.sim, rig.net, *rig.client_node, *rig.server, cc);
    pool.start();
    rig.sim.run_until(sec(10));
    (users == 25 ? done_small : done_large) = pool.completed().size();
  }
  EXPECT_NEAR(static_cast<double>(done_large) / done_small, 4.0, 0.8);
}

TEST(ClientPool, StopAtHaltsNewRequests) {
  ClientRig rig;
  ClientPool::Config cc;
  cc.users = 20;
  cc.mean_think = msec(100);
  cc.stop_at = sec(2);
  ClientPool pool(rig.sim, rig.net, *rig.client_node, *rig.server, cc);
  pool.start();
  rig.sim.run_until(sec(10));
  for (const auto& r : pool.completed()) {
    EXPECT_LT(r->client_send, sec(2));
  }
}

TEST(ClientPool, DeterministicForSameSeed) {
  std::vector<std::uint64_t> ids_a, ids_b;
  for (int run = 0; run < 2; ++run) {
    ClientRig rig;
    ClientPool::Config cc;
    cc.users = 30;
    cc.mean_think = msec(300);
    cc.seed = 99;
    ClientPool pool(rig.sim, rig.net, *rig.client_node, *rig.server, cc);
    pool.start();
    rig.sim.run_until(sec(5));
    auto& ids = run == 0 ? ids_a : ids_b;
    for (const auto& r : pool.completed()) {
      ids.push_back(r->id);
      ids.push_back(static_cast<std::uint64_t>(r->client_recv));
    }
  }
  EXPECT_EQ(ids_a, ids_b);
}

TEST(ClientPool, InteractionMixRoughlyMatchesWeights) {
  // The Markov chain's stationary distribution is weight-driven with
  // follow-up affinity; over many requests the browse-heavy shape must
  // hold: the top-weight interactions dominate and writes stay ~10%.
  ClientRig rig;
  ClientPool::Config cc;
  cc.users = 200;
  cc.mean_think = msec(100);
  ClientPool pool(rig.sim, rig.net, *rig.client_node, *rig.server, cc);
  pool.start();
  rig.sim.run_until(sec(20));
  std::vector<std::size_t> counts(Rubbos::interactions().size(), 0);
  std::size_t writes = 0;
  for (const auto& r : pool.completed()) {
    ++counts[static_cast<std::size_t>(r->interaction)];
    if (Rubbos::interactions()[static_cast<std::size_t>(r->interaction)]
            .is_write) {
      ++writes;
    }
  }
  const double total = static_cast<double>(pool.completed().size());
  ASSERT_GT(total, 10000);
  // The story/comment browsing pair dominates (weights + follow-up edges:
  // ViewStory feeds ViewComment, which also self-loops).
  const std::size_t hottest =
      static_cast<std::size_t>(std::max_element(counts.begin(), counts.end()) -
                               counts.begin());
  EXPECT_TRUE(hottest == 1u || hottest == 2u) << hottest;
  // Write fraction lands near RUBBoS's ~10% read-write mix.
  EXPECT_GT(writes / total, 0.03);
  EXPECT_LT(writes / total, 0.20);
  // Every interaction type occurs (no dead table entries).
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_GT(counts[i], 0u) << Rubbos::interactions()[i].name;
  }
}

TEST(ClientPool, StickySessionsBalanceAcrossEntries) {
  ClientRig rig;
  // A second front-tier replica on its own node.
  sim::Node::Config nc;
  nc.cores = 8;
  nc.name = "srv2";
  sim::Node node2(rig.sim, nc);
  sim::Server::Config sc;
  sc.tier = 0;
  sc.workers = 50;
  sim::Server server2(rig.sim, node2, rig.net, sc);

  ClientPool::Config cc;
  cc.users = 100;
  cc.mean_think = msec(200);
  ClientPool pool(rig.sim, rig.net, *rig.client_node,
                  {rig.server.get(), &server2}, cc);
  pool.start();
  rig.sim.run_until(sec(10));
  const auto a = rig.server->completed();
  const auto b = server2.completed();
  EXPECT_GT(a, 0u);
  EXPECT_GT(b, 0u);
  EXPECT_NEAR(static_cast<double>(a) / static_cast<double>(b), 1.0, 0.2);
  // Sticky: each session's requests all hit the same replica, so per-tier
  // ground truth still shows one visit per request.
  for (const auto& r : pool.completed()) {
    EXPECT_EQ(r->records[0].visits.size(), 1u);
  }
}

TEST(ClientPool, OnCompleteCallbackFires) {
  ClientRig rig;
  ClientPool::Config cc;
  cc.users = 10;
  cc.mean_think = msec(200);
  ClientPool pool(rig.sim, rig.net, *rig.client_node, *rig.server, cc);
  int called = 0;
  pool.set_on_complete([&](const sim::RequestPtr&) { ++called; });
  pool.start();
  rig.sim.run_until(sec(3));
  EXPECT_EQ(static_cast<std::size_t>(called), pool.completed().size());
  EXPECT_GT(called, 0);
}

}  // namespace
}  // namespace mscope::workload
