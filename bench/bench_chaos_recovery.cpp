// Chaos recovery sweep: time-to-full-fidelity after a heal. A rack relay is
// partitioned away from the root for outages of increasing length while the
// fleet keeps writing; the partitioned hop holds its traffic back (bounded
// only by the relay queue) instead of abandoning it. The bench measures, per
// outage, how long after the heal instant the root takes to ingest every
// byte the partitioned rack's nodes had written *by* that instant — the
// moment the monitoring data is whole again and a diagnosis over it can be
// trusted.
//
// Shape checks: every outage fully recovers inside the run; recovery time
// grows with outage length (there is more backlog to drain); nothing is
// abandoned and the byte books close exactly (holes == 0: hold-back means a
// partition costs latency, never data).
//
//   ./bench_chaos_recovery           # outages 250 ms .. 2 s
//   ./bench_chaos_recovery --smoke   # CI: 250 ms + 1 s only

#include "bench_common.h"

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "chaos/chaos_engine.h"
#include "fleet/fleet_collection.h"

using namespace mscope;
using namespace mscope::bench;

namespace {

struct RecoveryResult {
  util::SimTime outage = 0;
  util::SimTime recovery = -1;  ///< heal -> root caught up; -1 = never
  std::uint64_t backlog_bytes = 0;  ///< rack bytes outstanding at heal
  std::uint64_t hole_bytes = 0;
  std::uint64_t abandoned = 0;
};

/// Bytes the root has ingested for the given nodes.
std::uint64_t ingested_for(const fleet::FleetCollection& fl,
                           const std::vector<std::string>& nodes) {
  std::uint64_t total = 0;
  for (const auto& [channel, bytes] : fl.root_ingested_bytes()) {
    for (const auto& n : nodes) {
      if (channel.first == n) {
        total += bytes;
        break;
      }
    }
  }
  return total;
}

RecoveryResult run_outage(util::SimTime outage) {
  const util::SimTime fault_at = util::sec(2);
  const util::SimTime heal_at = fault_at + outage;

  core::TestbedConfig cfg;
  cfg.workload = 800;
  cfg.duration = heal_at + util::sec(5);
  cfg.nodes_per_tier = {2, 2, 2, 2};
  cfg.capture_messages = false;
  cfg.log_dir = bench_dir("chaos_recovery");
  core::Experiment exp(cfg);

  fleet::FleetCollection::Config fc;
  fc.topology.levels = 2;
  fc.topology.racks = 2;
  fc.topology.shards = 2;
  fleet::ShardedWarehouse db(fc.topology.shards);
  fleet::FleetCollection fl(exp.testbed(), db, nullptr, fc);

  // Partition the rack that does NOT serve db1, so Scenario-independent
  // background traffic keeps flowing on the other rack either way.
  const int victim = fl.topology().rack_of("db1") == 0 ? 1 : 0;
  chaos::FaultSpec f;
  f.name = "cut";
  f.kind = chaos::FaultKind::kPartition;
  f.a = fleet::Topology::rack_name(victim);
  f.b = "root";
  f.start = fault_at;
  f.duration = outage;
  chaos::ChaosEngine engine(exp.testbed(), fl, chaos::FaultPlan({f}));
  engine.arm();

  std::vector<std::string> rack_nodes;
  std::map<std::string, std::pair<int, int>> place;
  for (int t = 0; t < core::Testbed::kTiers; ++t) {
    for (int r = 0; r < exp.testbed().replicas(t); ++r) {
      place[core::Testbed::replica_name(t, r)] = {t, r};
    }
  }
  for (const auto& leaf : fl.topology().leaves()) {
    if (fl.topology().rack_of(leaf) == victim) rack_nodes.push_back(leaf);
  }

  // At the heal instant, freeze the fidelity target: every byte the rack's
  // nodes have written so far. Then probe until the root has them all.
  RecoveryResult res;
  res.outage = outage;
  auto& sim = exp.testbed().simulation();
  // Every event that reads `target` fires inside exp.run() below.
  std::uint64_t target = 0;
  sim.schedule(heal_at, [&] {
    for (const auto& n : rack_nodes) {
      const auto [t, r] = place.at(n);
      exp.testbed().facility(t, r).for_each_file(
          [&](logging::LogFile& lf) { target += lf.bytes_written(); });
    }
    res.backlog_bytes = target - ingested_for(fl, rack_nodes);
  });
  const util::SimTime probe_every = 10 * util::kMsec;
  std::function<void()> probe = [&] {
    if (sim.now() <= heal_at) {
      sim.schedule(probe_every, probe);
      return;
    }
    if (ingested_for(fl, rack_nodes) >= target) {
      if (res.recovery < 0) res.recovery = sim.now() - heal_at;
      return;  // caught up: stop probing
    }
    sim.schedule(probe_every, probe);
  };
  sim.schedule(probe_every, probe);

  exp.run();
  fl.finish();

  const auto t = fl.totals();
  res.abandoned = t.leaf_abandoned + t.relay_abandoned;
  res.hole_bytes = t.root_gap_bytes;
  std::filesystem::remove_all(cfg.log_dir);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::vector<util::SimTime> outages;
  if (smoke) {
    outages = {250 * util::kMsec, util::sec(1)};
  } else {
    outages = {250 * util::kMsec, 500 * util::kMsec, util::sec(1),
               util::sec(2)};
  }

  std::printf("# outage_ms\tbacklog_KB\trecovery_ms\tholes\tabandoned\n");
  std::vector<RecoveryResult> results;
  for (const auto outage : outages) {
    results.push_back(run_outage(outage));
    const auto& r = results.back();
    std::printf("%.0f\t%.1f\t%.1f\t%llu\t%llu\n",
                static_cast<double>(r.outage) / 1000.0,
                static_cast<double>(r.backlog_bytes) / 1024.0,
                static_cast<double>(r.recovery) / 1000.0,
                static_cast<unsigned long long>(r.hole_bytes),
                static_cast<unsigned long long>(r.abandoned));
  }

  bool all_recovered = true, backlog_grows = true, no_loss = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].recovery < 0) all_recovered = false;
    if (results[i].hole_bytes != 0 || results[i].abandoned != 0) {
      no_loss = false;
    }
    if (i > 0 && results[i].backlog_bytes <= results[i - 1].backlog_bytes) {
      backlog_grows = false;
    }
  }
  check(all_recovered, "every outage reaches full fidelity before run end");
  check(backlog_grows, "longer outages accumulate more backlog to drain");
  check(no_loss, "hold-back turns partitions into latency, never loss");
  // Drain speed: even the longest outage must recover in well under the 5s
  // of healthy tail (the tree catches up much faster than real time).
  check(results.back().recovery < util::sec(4),
        "worst-case catch-up stays far below the healthy tail");
  return finish("bench_chaos_recovery");
}
