#include "sim/server.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/network.h"
#include "sim/node.h"

namespace mscope::sim {
namespace {

using util::msec;
using util::sec;

struct Rig {
  Simulation sim;
  Network net{sim, {}};
  std::unique_ptr<Node> node_a;
  std::unique_ptr<Node> node_b;
  std::unique_ptr<Server> front;
  std::unique_ptr<Server> back;

  explicit Rig(int front_workers = 2, int back_workers = 2) {
    Node::Config nc;
    nc.cores = 4;
    nc.name = "a";
    node_a = std::make_unique<Node>(sim, nc);
    nc.name = "b";
    node_b = std::make_unique<Node>(sim, nc);
    Server::Config fc;
    fc.service = "front";
    fc.tier = 0;
    fc.workers = front_workers;
    front = std::make_unique<Server>(sim, *node_a, net, fc);
    Server::Config bc;
    bc.service = "back";
    bc.tier = 1;
    bc.workers = back_workers;
    back = std::make_unique<Server>(sim, *node_b, net, bc);
    front->set_downstream(back.get());
  }

  RequestPtr make_request(SimTime front_cpu, SimTime back_cpu, int calls) {
    auto req = std::make_shared<Request>();
    req->id = next_id++;
    req->records.resize(2);
    req->demands.resize(2);
    TierDemand f;
    f.cpu_pre = front_cpu / 2;
    f.cpu_post = front_cpu - f.cpu_pre;
    f.downstream_calls = calls;
    req->demands[0].push_back(f);
    TierDemand b;
    b.cpu_pre = back_cpu;
    req->demands[1].push_back(b);
    return req;
  }

  std::uint64_t next_id = 1;
};

TEST(Server, RecordsFourTimestamps) {
  Rig rig;
  auto req = rig.make_request(200, 300, 1);
  bool responded = false;
  rig.front->accept(req, [&] { responded = true; });
  rig.sim.run_until(sec(1));
  ASSERT_TRUE(responded);

  const Visit& fv = req->records[0].visits.at(0);
  EXPECT_EQ(fv.upstream_arrival, 0);
  ASSERT_EQ(fv.downstream.size(), 1u);
  const auto [ds, dr] = fv.downstream[0];
  // cpu_pre = 100 before the downstream send.
  EXPECT_EQ(ds, 100);
  // round trip: latency + back cpu + latency.
  EXPECT_EQ(dr, ds + rig.net.latency() + 300 + rig.net.latency());
  EXPECT_EQ(fv.upstream_departure, dr + 100);  // cpu_post

  const Visit& bv = req->records[1].visits.at(0);
  EXPECT_EQ(bv.upstream_arrival, ds + rig.net.latency());
  EXPECT_EQ(bv.upstream_departure, bv.upstream_arrival + 300);
}

TEST(Server, MultipleDownstreamCallsAreSequential) {
  Rig rig;
  auto req = rig.make_request(0, 100, 3);
  rig.front->accept(req, [] {});
  rig.sim.run_until(sec(1));
  const auto& calls = req->records[0].visits[0].downstream;
  ASSERT_EQ(calls.size(), 3u);
  for (std::size_t i = 1; i < calls.size(); ++i) {
    EXPECT_GE(calls[i].first, calls[i - 1].second);
  }
  // Back tier saw three visits.
  EXPECT_EQ(req->records[1].visits.size(), 3u);
}

SimTime req_start(const RequestPtr& r);  // defined at the bottom

TEST(Server, PooledTasksAreReusedAcrossVisits) {
  // Ten waves of five concurrent requests, three back-tier calls each: 50
  // front visits and 150 back visits, but never more than five of either in
  // flight, so each pool stops at five tasks.
  Rig rig(/*front_workers=*/8, /*back_workers=*/8);
  int responded = 0;
  int peak_front = 0;
  for (int wave = 0; wave < 10; ++wave) {
    rig.sim.schedule_at(msec(100) * wave, [&rig, &responded, &peak_front] {
      for (int i = 0; i < 5; ++i) {
        rig.front->accept(rig.make_request(200, 300, 3),
                          [&responded] { ++responded; });
      }
      peak_front = std::max(peak_front, rig.front->concurrent());
    });
  }
  rig.sim.run_until(sec(2));
  EXPECT_EQ(responded, 50);
  EXPECT_EQ(rig.front->completed(), 50u);
  EXPECT_EQ(rig.back->completed(), 150u);
  EXPECT_EQ(peak_front, 5);
  EXPECT_EQ(rig.front->tasks_allocated(), 5u);
  EXPECT_LE(rig.back->tasks_allocated(), 5u);
  EXPECT_GE(rig.back->tasks_allocated(), 1u);
}

TEST(Server, WorkerLimitQueuesRequests) {
  Rig rig(/*front_workers=*/1);
  auto r1 = rig.make_request(1000, 0, 0);
  auto r2 = rig.make_request(1000, 0, 0);
  int done = 0;
  rig.front->accept(r1, [&] { ++done; });
  rig.front->accept(r2, [&] { ++done; });
  EXPECT_EQ(rig.front->concurrent(), 2);
  EXPECT_EQ(rig.front->waiting(), 1);
  rig.sim.run_until(sec(1));
  EXPECT_EQ(done, 2);
  // Serialized: second starts only after the first finishes.
  EXPECT_GE(req_start(r2), r1->records[0].visits[0].upstream_departure);
  EXPECT_EQ(rig.front->completed(), 2u);
  EXPECT_EQ(rig.front->concurrent(), 0);
}

TEST(Server, ConcurrencyTracksArrivalsAndDepartures) {
  Rig rig(4, 4);
  for (int i = 0; i < 3; ++i) {
    rig.front->accept(rig.make_request(500, 0, 0), [] {});
  }
  EXPECT_EQ(rig.front->concurrent(), 3);
  rig.sim.run_until(sec(1));
  EXPECT_EQ(rig.front->concurrent(), 0);
}

TEST(Server, LeafDiskReadDelaysCompletion) {
  Rig rig;
  auto req = rig.make_request(0, 100, 1);
  req->demands[1][0].disk_read_bytes = 1'000'000;  // ~ms on default disk
  rig.front->accept(req, [] {});
  rig.sim.run_until(sec(1));
  const Visit& bv = req->records[1].visits[0];
  EXPECT_GT(bv.upstream_departure - bv.upstream_arrival, msec(1));
  EXPECT_GT(rig.node_b->disk().bytes_read(), 0u);
}

TEST(Server, CommitWriteGoesToDisk) {
  Rig rig;
  auto req = rig.make_request(0, 100, 1);
  req->demands[1][0].commit_write_bytes = 8192;
  rig.front->accept(req, [] {});
  rig.sim.run_until(sec(1));
  EXPECT_EQ(rig.node_b->disk().bytes_written(), 8192u);
}

/// Hook that counts invocations and returns a logging cost.
class CountingHooks : public EventHooks {
 public:
  int arrivals = 0, departures = 0, sends = 0, receives = 0;
  SimTime cost = 0;
  void on_upstream_arrival(const Server&, const Request&, int) override {
    ++arrivals;
  }
  SimTime on_upstream_departure(const Server&, const Request&, int) override {
    ++departures;
    return cost;
  }
  void on_downstream_send(const Server&, const Request&, int, int) override {
    ++sends;
  }
  void on_downstream_receive(const Server&, const Request&, int,
                             int) override {
    ++receives;
  }
};

TEST(Server, HooksFireAtAllFourPoints) {
  Rig rig;
  CountingHooks hooks;
  rig.front->set_hooks(&hooks);
  auto req = rig.make_request(100, 100, 2);
  rig.front->accept(req, [] {});
  rig.sim.run_until(sec(1));
  EXPECT_EQ(hooks.arrivals, 1);
  EXPECT_EQ(hooks.departures, 1);
  EXPECT_EQ(hooks.sends, 2);
  EXPECT_EQ(hooks.receives, 2);
}

TEST(Server, LoggingCostHoldsWorkerNotResponse) {
  Rig rig(/*front_workers=*/1);
  CountingHooks hooks;
  hooks.cost = msec(10);
  rig.front->set_hooks(&hooks);
  auto r1 = rig.make_request(100, 0, 0);
  auto r2 = rig.make_request(100, 0, 0);
  SimTime t1 = -1, t2 = -1;
  rig.front->accept(r1, [&] { t1 = rig.sim.now(); });
  rig.front->accept(r2, [&] { t2 = rig.sim.now(); });
  rig.sim.run_until(sec(1));
  // First response is NOT delayed by its own logging...
  EXPECT_EQ(t1, 100);
  // ...but the worker is held, so the second request waits out the cost.
  EXPECT_GE(t2, msec(10) + 200);
}

TEST(Server, VisitIndexIncrementsPerVisit) {
  Rig rig;
  auto req = rig.make_request(0, 50, 3);
  rig.front->accept(req, [] {});
  rig.sim.run_until(sec(1));
  ASSERT_EQ(req->records[1].visits.size(), 3u);
  for (const auto& v : req->records[1].visits) {
    EXPECT_GE(v.upstream_arrival, 0);
    EXPECT_GE(v.upstream_departure, v.upstream_arrival);
  }
}

TEST(Network, TapCapturesRequestAndResponse) {
  Rig rig;
  MessageTap tap;
  rig.net.set_tap(&tap);
  auto req = rig.make_request(100, 100, 1);
  rig.front->accept(req, [] {});
  rig.sim.run_until(sec(1));
  ASSERT_EQ(tap.messages().size(), 2u);
  EXPECT_EQ(tap.messages()[0].kind, Message::Kind::kRequest);
  EXPECT_EQ(tap.messages()[1].kind, Message::Kind::kResponse);
  EXPECT_EQ(tap.messages()[0].conn_id, tap.messages()[1].conn_id);
  EXPECT_EQ(tap.messages()[0].req_id, req->id);
}

TEST(Network, NicCountersUpdated) {
  Rig rig;
  auto req = rig.make_request(100, 100, 1);
  rig.front->accept(req, [] {});
  rig.sim.run_until(sec(1));
  EXPECT_GT(rig.node_a->counters().net_tx, 0u);
  EXPECT_GT(rig.node_b->counters().net_rx, 0u);
}

SimTime req_start(const RequestPtr& r) {
  // With zero queueing the start equals arrival; with queueing, the first
  // CPU work begins at dispatch. We approximate "start" as departure minus
  // total demand, which for this test's CPU-only request is exact.
  const auto& v = r->records[0].visits[0];
  SimTime demand = 0;
  for (const auto& d : r->demands[0]) demand += d.cpu_pre + d.cpu_post;
  return v.upstream_departure - demand;
}

}  // namespace
}  // namespace mscope::sim
