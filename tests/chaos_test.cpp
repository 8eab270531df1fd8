// mScopeChaos: deterministic fault injection against the collection tree,
// and the self-healing that must absorb it. The suite has three layers:
//
//  1. FaultPlan mechanics — text round-trip, validation, and the name-keyed
//     randomized generator (fault "f3" is the same fault for a given seed
//     no matter how many siblings the plan has).
//  2. Targeted hop behaviors — hold-back instead of abandonment during a
//     partition, ack-loss duplicates suppressed byte-exactly, relay
//     crash+restart with resume priming, leaf agent crash attribution, and
//     uplink abandonment routed through the gap tracker (no silent drops).
//  3. The property sweep — 50 randomized FaultPlans; after every one of
//     them the byte-conservation books must close: for each origin node,
//     bytes written == unique bytes ingested at the root + holes the gap
//     tracker attributed to it (with a principled relaxation for the one
//     unattributable case: a generation boundary swallowed by a crash).
//     With durability on, every shard's WAL directory must also rebuild
//     that shard exactly after a clean finish, and recover it to a commit
//     after a torn mid-run kill.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "catalog_equal.h"
#include "chaos/chaos_engine.h"
#include "chaos/fault_plan.h"
#include "core/milliscope.h"
#include "crash_at_injector.h"
#include "fleet/fleet_collection.h"
#include "fleet/sharded_warehouse.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "scratch_dir.h"
#include "transform/warehouse_io.h"
#include "util/io_file.h"

namespace mscope::chaos {
namespace {

namespace fs = std::filesystem;
using test::expect_identical_catalogs;
using transform::RecoveryStats;
using transform::WarehouseIO;
using util::msec;
using util::sec;
using util::SimTime;

// --- 1. FaultPlan mechanics ------------------------------------------------

TEST(FaultPlan, TextFormatRoundTrips) {
  const std::string text =
      "# a comment line\n"
      "f1 partition relay1:root 3000000 1500000\n"
      "\n"
      "f2 crash-relay relay2 5000000 800000\n"
      "f3 crash-leaf web2 6000000 700000\n"
      "f4 loss relay1:root 8000000 1200000 0.15 0.05\n"
      "f5 rotate db2 9000000 0 3\n"
      "f6 skew app1 10000000 2000000 1500\n"
      "f7 slow-disk db2 11000000 900000 4\n"
      "f8 blackhole web3 12000000 500000\n";
  const FaultPlan plan = FaultPlan::parse(text);
  ASSERT_EQ(plan.size(), 8u);
  EXPECT_EQ(plan.faults()[0].kind, FaultKind::kPartition);
  EXPECT_EQ(plan.faults()[0].a, "relay1");
  EXPECT_EQ(plan.faults()[0].b, "root");
  EXPECT_EQ(plan.faults()[3].data_p, 0.15);
  EXPECT_EQ(plan.faults()[3].ack_p, 0.05);
  EXPECT_EQ(plan.faults()[4].count, 3u);
  EXPECT_EQ(plan.faults()[5].skew, 1500);
  EXPECT_EQ(plan.faults()[6].factor, 4.0);
  // format() -> parse() is the identity on the fault list.
  const FaultPlan again = FaultPlan::parse(plan.format());
  EXPECT_EQ(again.format(), plan.format());
  ASSERT_EQ(again.size(), plan.size());
  EXPECT_EQ(again.faults()[7].kind, FaultKind::kBlackhole);
}

TEST(FaultPlan, ValidationRejectsMalformedPlans) {
  EXPECT_THROW((void)FaultPlan::parse("f1 nonsense web1 0 0"),
               std::invalid_argument);
  // partition needs a peer, blackhole must not have one.
  EXPECT_THROW((void)FaultPlan::parse("f1 partition web1 0 1000"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("f1 blackhole web1:root 0 1000"),
               std::invalid_argument);
  // duplicate names, negative times, probabilities summing past 1.
  EXPECT_THROW((void)FaultPlan::parse("f1 blackhole web1 0 9\n"
                                      "f1 blackhole web2 0 9"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("f1 blackhole web1 -5 9"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("f1 loss web1:root 0 9 0.7 0.5"),
               std::invalid_argument);
  // a lingering fault with no duration is a no-op the author didn't intend.
  EXPECT_THROW((void)FaultPlan::parse("f1 partition a:root 0 0"),
               std::invalid_argument);
}

TEST(FaultPlan, RandomizedPlansReplayAndKeyStreamsByName) {
  FaultPlan::RandomOptions opts;
  opts.leaves = {"web1", "web2", "app1", "db1"};
  opts.relays = {"relay0", "relay1"};
  opts.faults = 5;
  const FaultPlan a = FaultPlan::randomized(77, opts);
  const FaultPlan b = FaultPlan::randomized(77, opts);
  EXPECT_EQ(a.format(), b.format());
  EXPECT_NE(a.format(), FaultPlan::randomized(78, opts).format());
  // Name-keyed streams: growing the plan never rewrites existing faults.
  opts.faults = 9;
  const FaultPlan grown = FaultPlan::randomized(77, opts);
  ASSERT_EQ(grown.size(), 9u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(grown.faults()[i].name, a.faults()[i].name);
    EXPECT_EQ(grown.faults()[i].kind, a.faults()[i].kind);
    EXPECT_EQ(grown.faults()[i].start, a.faults()[i].start);
    EXPECT_EQ(grown.faults()[i].a, a.faults()[i].a);
  }
}

// --- shared harness: a small fleet under one plan --------------------------

/// Byte-conservation books for one origin node, closed at the root.
struct Books {
  std::uint64_t written = 0;
  std::uint64_t ingested = 0;
  std::uint64_t holes = 0;
};

struct ChaosRun {
  fleet::FleetCollection::Totals totals;
  ChaosEngine::Stats chaos;
  std::map<std::string, Books> books;
  std::map<std::string, collector::GapTracker::Stats> gaps_by_node;
  int racks = 0;
  std::vector<std::string> leaves;
  std::map<std::string, int> rack_of;  ///< leaf -> rack index
};

/// Runs a {2,2,2,2} fleet (8 monitored servers, 2 rack relays) for 5s of
/// virtual time under `plan`, with a light workload, and closes the books.
/// `configure` edits the fleet config before wiring; `rig` runs after the
/// fleet is wired but before the clock starts (for fault-injector installs);
/// `inspect` sees the finished fleet and its warehouse.
ChaosRun run_fleet_under(
    const FaultPlan& plan, int workload = 250,
    const std::function<void(fleet::FleetCollection&)>& rig = {},
    const std::function<void(fleet::FleetCollection::Config&)>& configure = {},
    const std::function<void(fleet::FleetCollection&,
                             fleet::ShardedWarehouse&)>& inspect = {}) {
  obs::Registry::global().reset();
  // The faults under test *should* warn — quiet mode keeps 50-plan sweeps
  // readable; the accounting assertions below check the same facts.
  obs::Log::set_level(obs::Log::Level::kSilent);
  core::TestbedConfig cfg;
  cfg.workload = workload;
  cfg.duration = sec(5);
  cfg.nodes_per_tier = {2, 2, 2, 2};
  cfg.capture_messages = false;
  cfg.log_dir = test::scratch_dir("chaos");
  core::Experiment exp(cfg);

  fleet::FleetCollection::Config fc;
  fc.topology.levels = 2;
  fc.topology.racks = 2;
  fc.topology.shards = 2;
  if (configure) configure(fc);
  fleet::ShardedWarehouse db(fc.topology.shards);
  fleet::FleetCollection fl(exp.testbed(), db, nullptr, fc);
  if (rig) rig(fl);

  ChaosEngine engine(exp.testbed(), fl, plan);
  engine.arm();
  exp.run();
  fl.finish();
  if (inspect) inspect(fl, db);

  ChaosRun r;
  r.totals = fl.totals();
  r.chaos = engine.stats();
  r.racks = fl.topology().racks();
  r.leaves = fl.topology().leaves();
  for (const auto& leaf : r.leaves) {
    r.rack_of[leaf] = fl.topology().rack_of(leaf);
  }
  for (int t = 0; t < core::Testbed::kTiers; ++t) {
    for (int rep = 0; rep < exp.testbed().replicas(t); ++rep) {
      auto& b = r.books[core::Testbed::replica_name(t, rep)];
      exp.testbed().facility(t, rep).for_each_file(
          [&b](logging::LogFile& f) { b.written += f.bytes_written(); });
    }
  }
  for (const auto& [channel, bytes] : fl.root_ingested_bytes()) {
    r.books[channel.first].ingested += bytes;
  }
  for (const auto& [node, g] : fl.gaps_by_node()) {
    r.books[node].holes = g.gap_bytes;
    r.gaps_by_node[node] = g;
  }
  fs::remove_all(cfg.log_dir);
  return r;
}

FaultSpec make(const std::string& name, FaultKind kind, const std::string& a,
               SimTime start, SimTime duration) {
  FaultSpec f;
  f.name = name;
  f.kind = kind;
  f.a = a;
  f.start = start;
  f.duration = duration;
  return f;
}

void expect_books_balance(const ChaosRun& r) {
  for (const auto& [node, b] : r.books) {
    EXPECT_EQ(b.written, b.ingested + b.holes)
        << node << ": written " << b.written << " ingested " << b.ingested
        << " holes " << b.holes;
  }
}

// --- 2. Targeted hop behaviors ---------------------------------------------

TEST(ChaosHops, PartitionHoldsBackInsteadOfAbandoning) {
  // Cut relay0 away from the root for 1.5s mid-run. The uplink must freeze
  // its retry budget and re-probe — zero abandonment, zero data loss, and
  // the books close with no holes anywhere once the link heals.
  FaultSpec f = make("cut", FaultKind::kPartition, "relay0", sec(2), msec(1500));
  f.b = "root";
  const ChaosRun r = run_fleet_under(FaultPlan({f}));
  EXPECT_GT(r.totals.relay_holds, 0u);
  EXPECT_EQ(r.totals.relay_abandoned, 0u);
  EXPECT_EQ(r.totals.root_gap_bytes, 0u);
  EXPECT_EQ(r.totals.root_gaps, 0u);
  expect_books_balance(r);
  for (const auto& [node, b] : r.books) EXPECT_EQ(b.holes, 0u) << node;
}

TEST(ChaosHops, AckLossDuplicatesAreSuppressedByteExactly) {
  // Pure ack loss: every payload arrives, a third of the acks vanish. The
  // sender must retransmit (spurious deliveries) and the receiving hop must
  // trim every redelivered byte — no holes, no double ingest.
  FaultSpec f = make("acks", FaultKind::kLoss, "relay0", sec(2), msec(1500));
  f.b = "root";
  f.data_p = 0.0;
  f.ack_p = 0.35;
  const ChaosRun r = run_fleet_under(FaultPlan({f}));
  EXPECT_GT(r.totals.root_dup_bytes, 0u) << "no duplicate was ever trimmed";
  EXPECT_EQ(r.totals.root_gap_bytes, 0u) << "ack loss must not lose data";
  EXPECT_EQ(r.totals.relay_abandoned, 0u);
  expect_books_balance(r);
}

TEST(ChaosHops, RelayCrashRestartsWithResumePriming) {
  const ChaosRun r = run_fleet_under(
      FaultPlan({make("boom", FaultKind::kCrashRelay, "relay0", sec(2),
                      msec(800))}));
  EXPECT_EQ(r.totals.relay_crashes, 1u);
  // Leaves behind relay0 held back while it was dead, then performed the
  // epoch handshake against incarnation 2 and resumed.
  EXPECT_GT(r.totals.leaf_holds, 0u);
  EXPECT_GT(r.totals.leaf_reconnects, 0u);
  EXPECT_GT(r.totals.resumed_channels, 0u);
  // Whatever died in the relay's queue is a *root-attributed* hole on the
  // origin channels — and nothing beyond it.
  expect_books_balance(r);
  for (const auto& [node, b] : r.books) {
    if (b.holes > 0) {
      EXPECT_EQ(r.rack_of.at(node), 0)
          << node << " is not served by the crashed relay";
    }
  }
}

TEST(ChaosHops, LeafAgentCrashIsAttributedToThatNodeOnly) {
  const ChaosRun r = run_fleet_under(
      FaultPlan({make("die", FaultKind::kCrashLeaf, "web2", sec(2),
                      msec(900))}));
  EXPECT_EQ(r.totals.leaf_crashes, 1u);
  expect_books_balance(r);
  EXPECT_GT(r.books.at("web2").holes, 0u)
      << "the crash window must surface as a hole";
  for (const auto& [node, b] : r.books) {
    if (node != "web2") {
      EXPECT_EQ(b.holes, 0u) << node;
    }
  }
}

TEST(ChaosHops, UplinkAbandonmentIsRoutedThroughTheGapTracker) {
  // Satellite: an abandoned relay frame used to vanish silently — the relay
  // counted it but nobody could say *whose* bytes died. Kill every uplink
  // attempt for a window long enough to exhaust max_retries and verify the
  // loss lands in the relay's per-origin gap accounting AND still closes
  // the root's books.
  const ChaosRun r = run_fleet_under(
      FaultPlan{}, 250,
      [](fleet::FleetCollection& fl) {
        auto* relay = fl.relay_by_name("relay0");
        ASSERT_NE(relay, nullptr);
        relay->set_fault_injector([](SimTime now, std::uint64_t, int) {
          return now >= sec(1) && now < sec(3);
        });
      },
      [](fleet::FleetCollection::Config& fc) {
        // The default budget (10 retries, exponential from 10ms) takes ~10s
        // of wall-to-wall NACKs to exhaust — more virtual time than this
        // run has. Tighten it so the 2s fault window forces abandonment.
        fc.relay.uplink.max_retries = 2;
      });
  EXPECT_GT(r.totals.relay_abandoned, 0u);
  EXPECT_GT(r.totals.relay_abandoned_bytes, 0u);
  // Attribution at the abandoning hop: per-origin abandonment counters.
  std::uint64_t attributed = 0;
  for (const auto& [node, g] : r.gaps_by_node) {
    (void)node;
    attributed += g.gap_bytes;
  }
  EXPECT_GT(attributed, 0u);
  // And the root's conservation equation still closes: the abandoned bytes
  // are holes on their origin channels, not unaccounted losses.
  expect_books_balance(r);
  for (const auto& [node, b] : r.books) {
    if (b.holes > 0) {
      EXPECT_EQ(r.rack_of.at(node), 0) << node;
    }
  }
}

TEST(ChaosHops, SlowDiskAndSkewPerturbWithoutLosingBytes) {
  FaultSpec disk = make("mud", FaultKind::kSlowDisk, "db2", sec(2), sec(1));
  disk.factor = 5.0;
  FaultSpec skew = make("drift", FaultKind::kSkew, "app1", sec(2), sec(1));
  skew.skew = 2000;
  FaultSpec burst = make("logrot", FaultKind::kRotate, "mid1", sec(3), 0);
  burst.count = 4;
  const ChaosRun r = run_fleet_under(FaultPlan({disk, skew, burst}));
  EXPECT_EQ(r.chaos.injected, 3u);
  // 4 burst passes over however many log files mid1 keeps open.
  EXPECT_GE(r.chaos.rotations, 4u);
  EXPECT_EQ(r.chaos.rotations % 4u, 0u);
  // None of these faults may cost a byte: rotation banks held fragments,
  // skew only delays, a slow disk only queues.
  EXPECT_EQ(r.totals.root_gap_bytes, 0u);
  expect_books_balance(r);
}

// --- 3. The property sweep -------------------------------------------------

/// The property sweeps' randomized plans, over run_fleet_under's fleet.
FaultPlan::RandomOptions sweep_options() {
  FaultPlan::RandomOptions opts;
  opts.faults = 5;
  // All fault ends inside the run with healthy tail time to spare, so every
  // hole has later traffic to betray it to the gap tracker.
  opts.window_begin = msec(1500);
  opts.window_end = msec(3200);
  opts.min_duration = msec(200);
  opts.max_duration = msec(1000);
  opts.leaves = {"web1", "web2", "app1", "app2",
                 "mid1", "mid2", "db1",  "db2"};
  opts.relays = {"relay0", "relay1"};
  return opts;
}

TEST(ChaosProperty, FiftyRandomizedPlansKeepTheInvariants) {
  const FaultPlan::RandomOptions opts = sweep_options();

  for (int i = 0; i < 50; ++i) {
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(i);
    const FaultPlan plan = FaultPlan::randomized(seed, opts);
    const ChaosRun r = run_fleet_under(plan, 150);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + plan.format());

    // Classify each node's exposure from the plan itself.
    std::set<std::string> crashed_leaves, rotated, faulted;
    std::set<int> crashed_racks;
    bool any_relay_crash = false;
    for (const auto& f : plan.faults()) {
      faulted.insert(f.a);
      if (f.kind == FaultKind::kCrashLeaf || f.kind == FaultKind::kBlackhole) {
        crashed_leaves.insert(f.a);
      }
      if (f.kind == FaultKind::kRotate) rotated.insert(f.a);
      if (f.kind == FaultKind::kCrashRelay) {
        any_relay_crash = true;
        for (const auto& [leaf, rack] : r.rack_of) {
          if (fleet::Topology::rack_name(rack) == f.a) {
            crashed_racks.insert(rack);
          }
        }
      }
    }

    for (const auto& [node, b] : r.books) {
      // Invariant: never overcount. Unique ingested bytes plus attributed
      // holes can never exceed what the origin wrote — a duplicate row
      // or a double-ingested range would push this over.
      EXPECT_LE(b.ingested + b.holes, b.written) << node;

      // Invariant: a crash can swallow a generation boundary, making the
      // old generation's tail unattributable — that is the ONLY tolerated
      // imbalance. A node that was never rotated, or rotated while no
      // crash-kind fault was in the plan, must balance exactly.
      const bool boundary_risk =
          rotated.count(node) > 0 &&
          (crashed_leaves.count(node) > 0 || any_relay_crash);
      if (!boundary_risk) {
        EXPECT_EQ(b.written, b.ingested + b.holes) << node;
      }

      // Invariant: healthy channels come through complete and hole-free.
      const bool healthy = faulted.count(node) == 0 &&
                           crashed_racks.count(r.rack_of.at(node)) == 0;
      if (healthy) {
        EXPECT_EQ(b.holes, 0u) << node << " took damage while healthy";
        EXPECT_EQ(b.written, b.ingested) << node;
      }
    }
  }
}

/// Durability on, with group commits and checkpoints inside the run.
std::function<void(fleet::FleetCollection::Config&)> durable_under(
    const fs::path& dir) {
  return [dir](fleet::FleetCollection::Config& fc) {
    fc.durability = fleet::FleetCollection::Config::Durability{
        .dir = dir,
        .commit_interval = 250 * util::kMsec,
        .checkpoint_every = 4};
  };
}

TEST(ChaosProperty, DurableShardsRecoverCellIdenticallyUnderRandomizedPlans) {
  const FaultPlan::RandomOptions opts = sweep_options();
  const test::ScratchDir wal_root("chaos_wal");
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t seed = 2000 + static_cast<std::uint64_t>(i);
    const FaultPlan plan = FaultPlan::randomized(seed, opts);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + plan.format());
    fs::remove_all(wal_root.path());  // every plan journals from scratch
    run_fleet_under(
        plan, 150, {}, durable_under(wal_root.path()),
        [&wal_root](fleet::FleetCollection& fl,
                    fleet::ShardedWarehouse& live) {
          // Each shard's WAL directory alone rebuilds that shard exactly,
          // at the commit its log reports.
          fleet::ShardedWarehouse recovered(live.shard_count());
          for (int s = 0; s < live.shard_count(); ++s) {
            SCOPED_TRACE("shard " + std::to_string(s));
            const RecoveryStats rs = WarehouseIO::recover(
                recovered.shard(s),
                wal_root.path() / ("shard" + std::to_string(s)));
            EXPECT_TRUE(rs.warnings.empty());
            EXPECT_EQ(rs.last_commit_id, fl.wal(s)->last_commit_id());
            expect_identical_catalogs(recovered.shard(s), live.shard(s));
          }
          expect_identical_catalogs(recovered, live);
        });
  }
}

TEST(ChaosProperty, DurableShardsSurviveAMidRunCrash) {
  const test::ScratchDir wal_root("chaos_wal_crash");
  const FaultPlan plan = FaultPlan::randomized(2000, sweep_options());
  // Let group commits and a mid-run checkpoint land on both shards, then
  // kill the 1200th physical durability op (of ~3400 in the whole run),
  // tearing its write.
  test::CrashAtInjector inj(1200, /*torn_write=*/true);
  util::io::File::set_fault_injector(&inj);
  bool crashed = false;
  try {
    run_fleet_under(plan, 150, {}, durable_under(wal_root.path()));
  } catch (const util::io::CrashError&) {
    crashed = true;
  }
  util::io::File::set_fault_injector(nullptr);  // the restart
  fs::remove_all(test::scratch_dir("chaos"));   // the run's logs
  ASSERT_TRUE(crashed) << "the injector should have fired mid-run";

  for (int s = 0; s < 2; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const fs::path dir = wal_root.path() / ("shard" + std::to_string(s));
    db::Database recovered;
    const RecoveryStats rs = WarehouseIO::recover(recovered, dir);
    EXPECT_GT(rs.last_commit_id, 0u);
    // Recovery is deterministic: a second recovery of the same directory
    // lands on the same state.
    db::Database again;
    const RecoveryStats rs2 = WarehouseIO::recover(again, dir);
    EXPECT_EQ(rs2.last_commit_id, rs.last_commit_id);
    expect_identical_catalogs(again, recovered);
  }
}

}  // namespace
}  // namespace mscope::chaos
