// mScopeFleet headline demo: 64 monitored servers (16 per tier) stream
// their native logs through a two-level collection tree — per-rack relay
// aggregators that pre-merge and re-frame, then one root collector fanning
// into a 4-shard warehouse — while 50k emulated users hammer the n-tier
// system. Scenario A fires mid-run: ONE of the 16 MySQL backends flushes a
// multi-hundred-MB redo log and its disk saturates for seconds. The ask:
// with the monitoring data collected through the tree and queried through
// the merged view, does diagnosis still pin that single replica?
//
//   ./scenario_fleet          # the full 64-node, 50k-user run
//   ./scenario_fleet --smoke  # CI-sized: 8 nodes, 2k users, same assertions

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "core/milliscope.h"
#include "fleet/fleet_collection.h"
#include "flow/attribution.h"
#include "flow/materializer.h"

using namespace mscope;

namespace {

/// Removes a run's log directory on every return from main().
struct RemoveOnExit {
  std::filesystem::path dir;
  ~RemoveOnExit() {
    std::error_code ec;  // best effort: a leftover dir is not an error
    std::filesystem::remove_all(dir, ec);
  }
};

core::TestbedConfig testbed_config(bool smoke) {
  core::TestbedConfig cfg;
  cfg.workload = smoke ? 2000 : 50000;
  cfg.duration = util::sec(smoke ? 10 : 14);
  cfg.nodes_per_tier = smoke ? std::array<int, 4>{2, 2, 2, 2}
                             : std::array<int, 4>{16, 16, 16, 16};
  cfg.capture_messages = false;  // no SysViz comparison in this demo
  // Per process, so two runs on one host never share (or delete) logs.
  cfg.log_dir = std::filesystem::temp_directory_path() /
                ("mscope_fleet_demo_" + std::to_string(::getpid()));
  // 50k users need datacenter-sized boxes: on 4-core nodes the post-stall
  // drain burst saturates db1's CPU and masks the disk as the root cause.
  if (!smoke) cfg.cores_per_node = 8;
  // One backend among many: the stall must be long enough for its pile-up
  // to clear the front tier's VLRT bar despite the 1/N dilution.
  core::ScenarioA a;
  a.first_flush = util::sec(smoke ? 6 : 8);
  a.flush_bytes = (smoke ? 128ULL : 512ULL) << 20;
  cfg.scenario_a = a;
  return cfg;
}

int run(const core::TestbedConfig& cfg, bool smoke) {
  const int servers = cfg.nodes_per_tier[0] + cfg.nodes_per_tier[1] +
                      cfg.nodes_per_tier[2] + cfg.nodes_per_tier[3];
  std::printf("mScopeFleet: %d monitored servers, %d users\n", servers,
              cfg.workload);

  core::Experiment exp(cfg);
  core::OnlineVsbDetector detector;
  exp.testbed().clients().set_on_complete(
      [&detector](const sim::RequestPtr& r) { detector.on_complete(r); });

  fleet::FleetCollection::Config fc;
  fc.topology.levels = 2;
  fc.topology.racks = smoke ? 2 : 8;
  fc.topology.shards = smoke ? 2 : 4;
  fc.observability.emplace();  // per-hop gauges -> mscope_meta_* tables
  fleet::ShardedWarehouse db(fc.topology.shards);
  fleet::FleetCollection fleet(exp.testbed(), db, &detector, fc);

  std::printf("tree: %zu leaves -> %d rack relays -> root -> %d shards\n\n",
              fleet.topology().leaves().size(), fleet.topology().racks(),
              fleet.topology().shards());

  exp.run();
  fleet.finish();

  const auto t = fleet.totals();
  std::printf("collection tree totals\n");
  std::printf("  %-26s%14llu\n", "records tailed",
              static_cast<unsigned long long>(t.records_tailed));
  std::printf("  %-26s%14llu\n", "leaf batches shipped",
              static_cast<unsigned long long>(t.batches));
  std::printf("  %-26s%14llu\n", "relay frames forwarded",
              static_cast<unsigned long long>(t.relay_frames));
  std::printf("  %-26s%14llu\n", "records dropped",
              static_cast<unsigned long long>(t.dropped));
  std::printf("  %-26s%14llu\n", "holes seen at root",
              static_cast<unsigned long long>(t.root_gaps));
  std::printf("  %-26s%11.1f ms\n", "collection lag (last)",
              static_cast<double>(t.last_lag) / 1000.0);
  std::printf("  %-26s%11.1f ms\n", "collection lag (max)",
              static_cast<double>(t.max_lag) / 1000.0);
  std::printf("  %-26s%11.1f ms\n", "leaf shipping CPU",
              static_cast<double>(t.shipping_cpu) / 1000.0);
  std::printf("  %-26s%11.1f ms\n", "relay CPU",
              static_cast<double>(t.relay_cpu) / 1000.0);
  std::printf("  %-26s%11.1f ms\n", "root ingest CPU",
              static_cast<double>(t.root_cpu) / 1000.0);

  std::printf("\nper-relay fan-in\n");
  for (const auto& relay : fleet.rack_relays()) {
    const auto s = relay->stats();
    std::printf("  %-8s in %9llu B  out %4llu frames  peak queue %8llu B  "
                "max lag %6.1f ms\n",
                relay->name().c_str(),
                static_cast<unsigned long long>(s.bytes_in),
                static_cast<unsigned long long>(s.frames_out),
                static_cast<unsigned long long>(s.peak_queue_bytes),
                static_cast<double>(s.max_lag) / 1000.0);
  }

  // The merged warehouse is one logical catalog: the diagnoser runs over it
  // exactly as it would over a flat single-node warehouse.
  const auto diagnoses = exp.diagnoser(db).diagnose(cfg.duration);
  std::printf("\ndiagnosis over the merged %d-shard view\n",
              fleet.topology().shards());
  bool pinned = false;
  for (const auto& d : diagnoses) {
    std::printf("  window %.2f-%.2fs  peak rt %.0f ms  ->  tier %d, node %s, "
                "cause %s\n",
                util::to_sec(d.window.begin), util::to_sec(d.window.end),
                d.window.peak_rt_ms, d.bottleneck_tier,
                d.bottleneck_node.c_str(), d.root_cause.c_str());
    if (d.bottleneck_node == "db1" && d.root_cause == "disk-io") pinned = true;
  }

  // mScopeFlow: bulk-materialize every request's causal path over the
  // merged shard view, then drill into the diagnosed VSB window — the
  // request-level evidence must finger the same tier the resource-level
  // diagnosis did, and name the stalled replica.
  bool drill_agrees = !diagnoses.empty();
  std::size_t exemplars_printed = 0;
  {
    flow::Materializer mat(
        db, flow::Deployment::from(exp.tables(), core::Testbed::services()));
    const flow::Result flows = mat.run();
    flow::Materializer::materialize(flows, db.shard(0));
    std::printf("\nmScopeFlow: %zu requests / %zu spans materialized into "
                "%d-shard warehouse\n",
                flows.requests.size(), flows.spans.size(),
                fleet.topology().shards());
    for (const auto& d : diagnoses) {
      const flow::DrillDown dd =
          flow::drill_down(flows, d.window.begin, d.window.end, 3);
      std::printf("%s", flow::render(flows, dd).c_str());
      if (dd.culprit_tier != d.bottleneck_tier ||
          dd.culprit_node != d.bottleneck_node) {
        drill_agrees = false;
      }
      exemplars_printed += dd.exemplars.size();
    }
  }

  if (t.dropped != 0 || t.root_gaps != 0) {
    std::printf("\nFAIL: the tree lost data on a healthy network\n");
    return 1;
  }
  if (!pinned) {
    std::printf("\nFAIL: diagnosis did not pin db1/disk-io among %d backends\n",
                cfg.nodes_per_tier[3]);
    return 1;
  }
  if (!drill_agrees || exemplars_printed < 3) {
    std::printf("\nFAIL: flow drill-down disagrees with the VSB diagnosis "
                "(%zu exemplars)\n",
                exemplars_printed);
    return 1;
  }
  std::printf("\nOK: %d servers, one faulty replica, correctly pinned — and "
              "the request-level drill-down agrees\n",
              servers);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const core::TestbedConfig cfg = testbed_config(smoke);
  const RemoveOnExit cleanup{cfg.log_dir};
  try {
    return run(cfg, smoke);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenario_fleet: error: %s\n", e.what());
    return 2;
  }
}
