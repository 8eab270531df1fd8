// mScopeFleet: the hierarchical fan-in collection tree and its sharded root
// warehouse. The headline assertions: 64 monitored servers stream through a
// two-level relay tree into a 4-shard warehouse that is cell-identical to
// the flat batch transform of the same logs, and diagnosis over the merged
// view still pins the single faulty replica. Plus the loss story: a hole
// opened at any hop (leaf shipper or relay uplink) is detected, sized, and
// attributed to its origin node at every hop above it, all the way into the
// mscope_meta_* tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "catalog_equal.h"
#include "core/milliscope.h"
#include "fleet/fleet_collection.h"
#include "fleet/sharded_warehouse.h"
#include "fleet/topology.h"
#include "log_bytes.h"
#include "scratch_dir.h"

namespace mscope::fleet {
namespace {

namespace fs = std::filesystem;
using test::expect_identical_catalogs;
using util::msec;
using util::sec;
using util::SimTime;

/// Max exported value of one metric series in a <prefix>metrics table.
double max_metric(const db::Catalog& db, const std::string& metric) {
  const db::Table* t = db.find("mscope_meta_metrics");
  if (t == nullptr) return -1.0;
  const std::size_t name_col = *t->column_index("name");
  const std::size_t value_col = *t->column_index("value");
  double best = -1.0;
  for (std::size_t r = 0; r < t->row_count(); ++r) {
    if (db::value_to_string(t->at(r, name_col)) != metric) continue;
    best = std::max(best, std::get<double>(t->at(r, value_col)));
  }
  return best;
}

// --- Topology arithmetic ---------------------------------------------------

TEST(Topology, PlacementIsAFunctionOfTheNodeName) {
  Topology::Config cfg;
  cfg.levels = 2;
  cfg.racks = 2;
  cfg.shards = 4;
  Topology small({"app1", "db1", "web1"}, cfg);
  Topology grown({"app1", "app2", "db1", "db2", "mid1", "web1"}, cfg);
  // Hash routing: a node's shard never moves when the fleet grows.
  EXPECT_EQ(small.shard_of("db1"), grown.shard_of("db1"));
  EXPECT_EQ(small.shard_of("web1"), grown.shard_of("web1"));
  // The jitter stream tag is pure arithmetic on the name.
  EXPECT_EQ(Topology::node_stream("db1"), Topology::node_stream("db1"));
  EXPECT_NE(Topology::node_stream("db1"), Topology::node_stream("db2"));
  EXPECT_NE(Topology::node_stream("db1"), 0u);
}

TEST(Topology, DepthOneHasNoRacks) {
  Topology::Config cfg;
  cfg.levels = 1;
  Topology t({"db1", "web1"}, cfg);
  EXPECT_EQ(t.racks(), 0);
  EXPECT_THROW((void)t.rack_of("db1"), std::logic_error);
}

TEST(Topology, RacksNeverOutnumberLeaves) {
  Topology::Config cfg;
  cfg.levels = 2;
  cfg.racks = 8;
  Topology t({"db1", "web1"}, cfg);
  EXPECT_EQ(t.racks(), 2);
  EXPECT_LT(t.rack_of("db1"), 2);
}

// --- Satellite: deterministic per-node network jitter ----------------------

/// Issues `sends` messages from `sender` and returns each message's hop
/// latency, with the fleet registered in `reg_order`.
std::vector<SimTime> jitter_hops(const std::vector<std::string>& reg_order,
                                 const std::string& sender, int sends) {
  sim::Simulation sim;
  sim::Network net(sim, {});
  std::vector<std::unique_ptr<sim::Node>> nodes;
  std::map<std::string, std::uint16_t> wires;
  for (const auto& name : reg_order) {
    sim::Node::Config nc;
    nc.name = name;
    nodes.push_back(std::make_unique<sim::Node>(sim, nc));
    wires[name] = net.register_node(nodes.back().get());
  }
  net.set_jitter(50, /*seed=*/99);
  for (const auto& name : reg_order) {
    net.seed_node_stream(wires[name], Topology::node_stream(name));
  }
  std::vector<SimTime> hops(static_cast<std::size_t>(sends), -1);
  for (int i = 0; i < sends; ++i) {
    net.send(wires.at(sender), wires.at(reg_order.front()), 1, 0,
             sim::Message::Kind::kRequest, 64,
             [&sim, &hops, i] { hops[static_cast<std::size_t>(i)] = sim.now(); },
             /*record_tap=*/false);
  }
  sim.run_until(sec(1));
  return hops;
}

TEST(NetworkJitter, StreamsFollowTheNodeNameNotRegistrationOrder) {
  // Same node name, completely different registration order and fleet
  // composition: the jitter sequence must replay identically, because each
  // stream is derived from the node's topology identity (its name), not
  // from a shared RNG or the wire id it happened to get.
  const auto a = jitter_hops({"web1", "db1"}, "db1", 12);
  const auto b = jitter_hops({"mid9", "app3", "db1", "web1"}, "db1", 12);
  EXPECT_EQ(a, b);
  // And the draws really do vary (jitter is live, not constant).
  EXPECT_NE(*std::min_element(a.begin(), a.end()),
            *std::max_element(a.begin(), a.end()));
  for (const SimTime h : a) {
    EXPECT_GE(h, 100);       // base latency
    EXPECT_LE(h, 100 + 50);  // + max jitter
  }
}

TEST(NetworkJitter, ZeroJitterIsExactlyTheBaseLatency) {
  sim::Simulation sim;
  sim::Network net(sim, {});
  sim::Node::Config nc;
  nc.name = "n";
  sim::Node node(sim, nc);
  const auto wire = net.register_node(&node);
  SimTime hop = -1;
  net.send(wire, wire, 1, 0, sim::Message::Kind::kRequest, 64,
           [&] { hop = sim.now(); }, false);
  sim.run_until(sec(1));
  EXPECT_EQ(hop, 100);
}

// --- The tentpole: 64 servers through a two-level tree ---------------------

class FleetParityFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::TestbedConfig cfg;
    cfg.workload = 12000;
    cfg.duration = sec(14);
    cfg.nodes_per_tier = {16, 16, 16, 16};  // 64 monitored servers
    cfg.log_dir = test::scratch_dir("fleet_parity");
    // Flush on db1 ONLY. At fleet scale a stall on one of 16 backends only
    // touches ~1/16 of the queries, so it takes a longer flush (a bigger
    // redo log) for the pile-up to clear the front tier's VLRT bar — the
    // realistic regime where fleet-wide diagnosis matters.
    core::ScenarioA a;
    a.flush_bytes = 512ULL << 20;  // ~3.4 s of saturated disk
    cfg.scenario_a = a;

    exp_ = new core::Experiment(cfg);
    detector_ = new core::OnlineVsbDetector();
    exp_->testbed().clients().set_on_complete(
        [](const sim::RequestPtr& r) { detector_->on_complete(r); });

    FleetCollection::Config fc;
    fc.topology.levels = 2;
    fc.topology.racks = 8;
    fc.topology.shards = 4;
    fleet_db_ = new ShardedWarehouse(fc.topology.shards);
    fleet_ = new FleetCollection(exp_->testbed(), *fleet_db_, detector_, fc);

    exp_->run();
    fleet_->finish();
    matched_bytes_ = test::matched_log_bytes(cfg.log_dir);

    db_batch_ = new db::Database();
    exp_->load_warehouse(*db_batch_);
  }

  static void TearDownTestSuite() {
    fs::remove_all(exp_->config().log_dir);
    delete fleet_;
    delete exp_;
    delete detector_;
    delete fleet_db_;
    delete db_batch_;
  }

  static core::Experiment* exp_;
  static core::OnlineVsbDetector* detector_;
  static ShardedWarehouse* fleet_db_;
  static FleetCollection* fleet_;
  static db::Database* db_batch_;
  static std::uint64_t matched_bytes_;
};

core::Experiment* FleetParityFixture::exp_ = nullptr;
core::OnlineVsbDetector* FleetParityFixture::detector_ = nullptr;
ShardedWarehouse* FleetParityFixture::fleet_db_ = nullptr;
FleetCollection* FleetParityFixture::fleet_ = nullptr;
db::Database* FleetParityFixture::db_batch_ = nullptr;
std::uint64_t FleetParityFixture::matched_bytes_ = 0;

TEST_F(FleetParityFixture, MergedWarehouseIsCellIdenticalToFlatBatch) {
  // The acceptance bar: the tree (leaf -> rack relay -> root, 4 shards,
  // merge-on-read) must be invisible in the data.
  expect_identical_catalogs(*fleet_db_, *db_batch_);
}

TEST_F(FleetParityFixture, AllSixtyFourServersLandInTheWarehouse) {
  EXPECT_EQ(fleet_db_->get(db::Database::kNodeTable).row_count(), 64u);
  EXPECT_TRUE(fleet_db_->find("ev_mysql_db16") != nullptr);
  EXPECT_TRUE(fleet_db_->find("ev_apache_web16") != nullptr);
  EXPECT_TRUE(fleet_db_->find("res_collectl_app7") != nullptr);
  const auto t = fleet_->totals();
  EXPECT_EQ(t.dropped, 0u);
  EXPECT_EQ(t.leaf_abandoned, 0u);
  EXPECT_EQ(t.relay_abandoned, 0u);
  EXPECT_EQ(t.root_gaps, 0u);
  EXPECT_GT(t.records_tailed, 10'000u);
}

TEST_F(FleetParityFixture, DiagnosisOverTheMergedViewPinsDb1) {
  const auto diagnoses = exp_->diagnoser(*fleet_db_).diagnose(sec(14));
  ASSERT_FALSE(diagnoses.empty());
  for (const auto& d : diagnoses) {
    EXPECT_EQ(d.bottleneck_tier, 3);
    EXPECT_EQ(d.bottleneck_node, "db1")
        << "must single out the one flushing replica among 16 backends";
    EXPECT_EQ(d.root_cause, "disk-io");
  }
}

TEST_F(FleetParityFixture, EveryHopDidRealWorkAndChargedForIt) {
  const auto t = fleet_->totals();
  EXPECT_GT(t.batches, 64u);        // every leaf shipped
  EXPECT_GT(t.relay_frames, 8u);    // every rack relay forwarded
  EXPECT_GT(t.shipping_cpu, 0);     // leaves paid to serialize
  EXPECT_GT(t.relay_cpu, 0);        // relays paid to decode + re-frame
  EXPECT_GT(t.root_cpu, 0);         // the root paid to ingest
  // End-to-end collection lag was measured across both hops.
  EXPECT_GT(t.max_lag, 0);
  EXPECT_GT(t.max_lag, t.last_lag / 2);
  for (const auto& relay : fleet_->rack_relays()) {
    EXPECT_GT(relay->stats().bytes_in, 0u) << relay->name();
  }
}

TEST_F(FleetParityFixture, EveryShippedByteIsParsedOnce) {
  // Linear parse work, summed over the per-shard transformers: each byte a
  // shard ingested into a matched file went through exactly one parse.
  std::uint64_t parsed = 0;
  std::uint64_t passes = 0;
  for (int i = 0; i < fleet_->topology().shards(); ++i) {
    parsed += fleet_->shard_transformer(i).stats().parsed_bytes;
    passes += fleet_->shard_transformer(i).stats().parse_passes;
  }
  EXPECT_EQ(parsed, matched_bytes_);
  EXPECT_GT(passes, 64u);  // mid-run ticks, not one parse per file at the end
}

TEST_F(FleetParityFixture, DynamicTablesReadZeroCopyFromTheirShard) {
  // Shard-by-node keeps every per-node table whole in one shard, so the
  // merged view hands back the shard's table itself — no copy, no merge.
  const int shard = fleet_->topology().shard_of("db1");
  EXPECT_EQ(fleet_db_->find("ev_mysql_db1"),
            fleet_db_->shard(shard).find("ev_mysql_db1"));
}

// --- Loss at either hop: detected, sized, attributed -----------------------

struct LossRun {
  core::TestbedConfig cfg;
  std::unique_ptr<core::Experiment> exp;
  std::unique_ptr<ShardedWarehouse> db;
  std::unique_ptr<FleetCollection> fleet;

  explicit LossRun(const std::string& dir_stem) {
    cfg.workload = 1000;
    cfg.duration = sec(8);
    cfg.nodes_per_tier = {1, 2, 1, 2};
    cfg.log_dir = test::scratch_dir(dir_stem);
    exp = std::make_unique<core::Experiment>(cfg);

    FleetCollection::Config fc;
    fc.topology.levels = 2;
    fc.topology.racks = 2;
    fc.topology.shards = 2;
    // Fast abandonment so an injected fault window turns into loss.
    fc.shipper.max_retries = 2;
    fc.shipper.backoff_base = msec(1);
    fc.relay.uplink.max_retries = 2;
    fc.relay.uplink.backoff_base = msec(1);
    fc.observability.emplace();
    db = std::make_unique<ShardedWarehouse>(fc.topology.shards);
    fleet = std::make_unique<FleetCollection>(exp->testbed(), *db.get(),
                                              nullptr, fc);
  }

  ~LossRun() { fs::remove_all(cfg.log_dir); }

  void run() {
    exp->run();
    fleet->finish();
  }
};

TEST(FleetLoss, LeafHoleSurvivesReframingAcrossBothHops) {
  LossRun r("fleet_leafloss");
  // Kill db1's uplink to its rack relay for a window mid-run: the shipper
  // abandons batches, opening a hole in db1's byte streams.
  for (const auto& ch : r.fleet->channels()) {
    if (ch.node == "db1") {
      ch.shipper->set_fault_injector([](SimTime now, std::uint64_t, int) {
        return now >= sec(3) && now < sec(4);
      });
    }
  }
  r.run();

  const auto t = r.fleet->totals();
  EXPECT_GT(t.leaf_abandoned, 0u);
  EXPECT_GT(t.leaf_retries, 0u);

  // Hop 1: db1's rack relay sees the hole and attributes it to db1.
  const auto rack =
      static_cast<std::size_t>(r.fleet->topology().rack_of("db1"));
  const auto& relay = *r.fleet->rack_relays()[rack];
  ASSERT_TRUE(relay.gaps_by_node().count("db1"));
  EXPECT_GT(relay.gaps_by_node().at("db1").gap_bytes, 0u);
  EXPECT_EQ(relay.gaps_by_node().size(), 1u) << "only db1 lost data";

  // Hop 2: the relay splits its chunk runs at the hole, so the *root* also
  // sees it — same size, same attribution — after re-framing.
  ASSERT_TRUE(r.fleet->gaps_by_node().count("db1"));
  EXPECT_EQ(r.fleet->gaps_by_node().at("db1").gap_bytes,
            relay.gaps_by_node().at("db1").gap_bytes);
  EXPECT_EQ(t.root_gap_bytes, relay.gaps_by_node().at("db1").gap_bytes);

  // And the loss is queryable: the meta tables carry the per-node gauge.
  EXPECT_GT(max_metric(*r.db, "fleet.db1.gap_bytes"), 0.0);
  EXPECT_GT(max_metric(*r.db, "collector.db1.shipper.abandoned"), 0.0);
}

TEST(FleetLoss, RelayUplinkFailureIsAttributedToItsLeaves) {
  LossRun r("fleet_relayloss");
  const auto rack =
      static_cast<std::size_t>(r.fleet->topology().rack_of("db1"));
  // Kill the relay's own uplink mid-run: whole pre-merged frames abandon,
  // losing bytes from every leaf behind that relay at once.
  r.fleet->rack_relays()[rack]->set_fault_injector(
      [](SimTime now, std::uint64_t, int) {
        return now >= sec(3) && now < sec(4);
      });
  r.run();

  const auto t = r.fleet->totals();
  EXPECT_EQ(t.leaf_abandoned, 0u) << "leaves were healthy";
  EXPECT_GT(t.relay_abandoned, 0u);
  EXPECT_GT(t.root_gaps, 0u);
  EXPECT_GT(t.root_gap_bytes, 0u);

  // Every hole the root observed traces back to a leaf of the dead relay.
  ASSERT_FALSE(r.fleet->gaps_by_node().empty());
  for (const auto& [node, g] : r.fleet->gaps_by_node()) {
    EXPECT_EQ(r.fleet->topology().rack_of(node), static_cast<int>(rack))
        << node << " is not behind the faulted relay";
    EXPECT_GT(g.gap_bytes, 0u);
  }

  const std::string relay_name = Topology::rack_name(static_cast<int>(rack));
  EXPECT_GT(max_metric(*r.db, "fleet." + relay_name + ".abandoned"), 0.0);
  EXPECT_GT(max_metric(*r.db, "fleet.root.gap_bytes"), 0.0);
}

// --- Other tree depths stay lossless and parity-exact ----------------------

void expect_depth_parity(int levels, int racks, int pods, int shards,
                         const std::string& dir_stem) {
  core::TestbedConfig cfg;
  cfg.workload = 800;
  cfg.duration = sec(6);
  cfg.nodes_per_tier = {1, 2, 1, 2};
  cfg.log_dir = test::scratch_dir(dir_stem);
  core::Experiment exp(cfg);

  FleetCollection::Config fc;
  fc.topology.levels = levels;
  fc.topology.racks = racks;
  fc.topology.pods = pods;
  fc.topology.shards = shards;
  ShardedWarehouse fleet_db(shards);
  FleetCollection fleet(exp.testbed(), fleet_db, nullptr, fc);

  exp.run();
  fleet.finish();

  db::Database batch;
  exp.load_warehouse(batch);
  expect_identical_catalogs(fleet_db, batch);

  if (levels == 3) {
    std::uint64_t pod_frames = 0;
    for (const auto& p : fleet.pod_relays()) pod_frames += p->stats().frames_out;
    EXPECT_GT(pod_frames, 0u) << "the pod layer never forwarded";
  }
  fs::remove_all(cfg.log_dir);
}

TEST(FleetDepth, DepthOneDegeneratesToTheFlatPipeline) {
  expect_depth_parity(1, 0, 0, 1, "fleet_d1");
}

TEST(FleetDepth, DepthThreeAddsAPodLayerWithoutChangingTheData) {
  expect_depth_parity(3, 3, 2, 2, "fleet_d3");
}

// --- Pipeline spans: opt-in, and on every hop of a fleet ------------------

TEST(FleetTrace, SpansAreOptInAndCoverLeavesRootAndParse) {
  for (const bool trace : {false, true}) {
    SCOPED_TRACE(trace ? "trace on" : "trace off");
    core::TestbedConfig cfg;
    cfg.workload = 400;
    cfg.duration = sec(3);
    cfg.nodes_per_tier = {1, 2, 1, 2};
    cfg.capture_messages = false;
    cfg.log_dir = test::scratch_dir("fleet_trace");
    core::Experiment exp(cfg);

    FleetCollection::Config fc;
    fc.topology.levels = 2;
    fc.topology.racks = 2;
    fc.topology.shards = 2;
    fc.observability.emplace().trace = trace;
    ShardedWarehouse db(fc.topology.shards);
    FleetCollection fleet(exp.testbed(), db, nullptr, fc);
    exp.run();
    fleet.finish();
    fs::remove_all(cfg.log_dir);

    // The gauges export either way; spans only when asked for.
    EXPECT_TRUE(db.shard(0).exists("mscope_meta_metrics"));
    if (!trace) {
      EXPECT_EQ(fleet.tracer(), nullptr);
      EXPECT_FALSE(db.shard(0).exists("mscope_meta_spans"));
      continue;
    }
    ASSERT_NE(fleet.tracer(), nullptr);
    const auto& spans = fleet.tracer()->spans();
    std::set<std::string> shipped, parsed;
    std::size_t aggregates = 0;
    std::size_t parse_ticks = 0;
    for (const auto& s : spans) {
      if (s.track.rfind("ship:", 0) == 0) shipped.insert(s.track.substr(5));
      if (s.name.rfind("aggregate relay", 0) == 0) ++aggregates;
      if (s.name == "parse_all") ++parse_ticks;
      if (s.name.rfind("parse ", 0) == 0) {
        parsed.insert(s.name.substr(6, s.name.find('/') - 6));
      }
    }
    const std::set<std::string> leaves(fleet.topology().leaves().begin(),
                                       fleet.topology().leaves().end());
    EXPECT_EQ(shipped, leaves) << "every leaf records its ship spans";
    EXPECT_EQ(parsed, leaves) << "both shards' transformers record parses";
    EXPECT_GT(aggregates, 0u) << "the root records relay frames";
    EXPECT_GT(parse_ticks, 0u);
    ASSERT_TRUE(db.shard(0).exists("mscope_meta_spans"));
    EXPECT_EQ(db.shard(0).get("mscope_meta_spans").row_count(), spans.size());
  }
}

}  // namespace
}  // namespace mscope::fleet
