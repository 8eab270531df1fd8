// mScopeChaos headline demo: the 64-server fleet of scenario_fleet, but the
// collection plane itself is under attack. A scripted six-fault schedule —
// a relay partitioned away from the root, a relay process crash+restart, a
// leaf agent crash, a loss storm that eats payloads AND acks, a triple
// log-rotation burst, and bounded clock skew — fires mid-run while Scenario
// A stalls one MySQL backend's disk. The asks:
//
//   1. Byte conservation: for every monitored node, bytes written at the
//      origin == unique bytes ingested at the root + holes the gap tracker
//      attributed to that node. No silent loss, no duplicate ingest.
//   2. The faulty replica's own channel survives untouched, and diagnosis
//      over the merged warehouse still pins db1 / disk-io.
//   3. Determinism: the whole run — faults, retries, reconnects, dedup,
//      diagnosis — replays bit-identically from the same plan.
//
//   ./scenario_chaos               # 64 servers, run twice (replay check)
//   ./scenario_chaos --smoke       # CI-sized: 8 servers, same assertions
//   ./scenario_chaos --plan FILE   # run a custom fault plan (text format)
//   ./scenario_chaos --print-plan  # dump the default plan text and exit

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "chaos/chaos_engine.h"
#include "core/milliscope.h"
#include "fleet/fleet_collection.h"

using namespace mscope;

namespace {

core::TestbedConfig testbed_config(bool smoke) {
  core::TestbedConfig cfg;
  cfg.workload = smoke ? 2000 : 12000;
  cfg.duration = util::sec(smoke ? 10 : 14);
  cfg.nodes_per_tier = smoke ? std::array<int, 4>{2, 2, 2, 2}
                             : std::array<int, 4>{16, 16, 16, 16};
  cfg.capture_messages = false;
  // Per process, so two runs on one host never share (or delete) logs.
  cfg.log_dir = std::filesystem::temp_directory_path() /
                ("mscope_chaos_demo_" + std::to_string(::getpid()));
  core::ScenarioA a;
  a.first_flush = util::sec(smoke ? 6 : 8);
  a.flush_bytes = (smoke ? 128ULL : 512ULL) << 20;
  cfg.scenario_a = a;
  return cfg;
}

fleet::FleetCollection::Config fleet_config(bool smoke) {
  fleet::FleetCollection::Config fc;
  fc.topology.levels = 2;
  fc.topology.racks = smoke ? 2 : 8;
  fc.topology.shards = smoke ? 2 : 4;
  fc.observability.emplace();
  return fc;
}

/// The scripted schedule. Every fault hits the *collection plane* or a
/// non-DB node: db1's own channel must come through clean so the diagnosis
/// question stays fair. Relay targets are picked per-topology so neither
/// destructive relay fault lands on the rack serving db1.
chaos::FaultPlan default_plan(const fleet::Topology& topo) {
  const int db1_rack = topo.rack_of("db1");
  int p = -1, q = -1;
  for (int r = 0; r < topo.racks(); ++r) {
    if (r == db1_rack) continue;
    if (p < 0) {
      p = r;
    } else if (q < 0) {
      q = r;
      break;
    }
  }
  if (q < 0) q = p;  // 2-rack smoke fleet: same relay, disjoint windows
  const std::string relay_p = fleet::Topology::rack_name(p);
  const std::string relay_q = fleet::Topology::rack_name(q);
  const auto s = [](double v) {
    return static_cast<util::SimTime>(std::llround(v * 1e6));
  };
  std::vector<chaos::FaultSpec> faults(6);
  faults[0].name = "partition";
  faults[0].kind = chaos::FaultKind::kPartition;
  faults[0].a = relay_p;
  faults[0].b = "root";
  faults[0].start = s(3.0);
  faults[0].duration = s(1.2);
  faults[1].name = "relay-crash";
  faults[1].kind = chaos::FaultKind::kCrashRelay;
  faults[1].a = relay_q;
  faults[1].start = s(4.6);
  faults[1].duration = s(0.9);
  faults[2].name = "agent-crash";
  faults[2].kind = chaos::FaultKind::kCrashLeaf;
  faults[2].a = "web2";
  faults[2].start = s(5.6);
  faults[2].duration = s(0.8);
  faults[3].name = "loss-storm";
  faults[3].kind = chaos::FaultKind::kLoss;
  faults[3].a = relay_p;
  faults[3].b = "root";
  faults[3].start = s(7.0);
  faults[3].duration = s(1.1);
  faults[3].data_p = 0.15;
  faults[3].ack_p = 0.08;
  faults[4].name = "logrotate";
  faults[4].kind = chaos::FaultKind::kRotate;
  faults[4].a = "app2";
  faults[4].start = s(8.2);
  faults[4].count = 3;
  faults[5].name = "skew";
  faults[5].kind = chaos::FaultKind::kSkew;
  faults[5].a = "web1";
  faults[5].start = s(8.3);
  faults[5].duration = s(1.5);
  faults[5].skew = 1500;
  chaos::FaultPlan plan(std::move(faults));
  plan.validate();
  return plan;
}

struct NodeBooks {
  std::uint64_t written = 0;   ///< bytes appended at the origin
  std::uint64_t ingested = 0;  ///< unique bytes the root ingested
  std::uint64_t holes = 0;     ///< bytes the root attributed as lost
};

/// Removes a run's log directory on every return from main().
struct RemoveOnExit {
  std::filesystem::path dir;
  ~RemoveOnExit() {
    std::error_code ec;  // best effort: a leftover dir is not an error
    std::filesystem::remove_all(dir, ec);
  }
};

struct Report {
  fleet::FleetCollection::Totals totals;
  chaos::ChaosEngine::Stats chaos;
  std::map<std::string, NodeBooks> books;
  bool pinned = false;
  bool conserved = true;
  std::string digest;  ///< replay fingerprint of the whole run
};

Report run_once(bool smoke, const std::optional<chaos::FaultPlan>& custom,
                bool narrate) {
  obs::Registry::global().reset();
  const core::TestbedConfig cfg = testbed_config(smoke);
  core::Experiment exp(cfg);
  core::OnlineVsbDetector detector;
  exp.testbed().clients().set_on_complete(
      [&detector](const sim::RequestPtr& r) { detector.on_complete(r); });

  const fleet::FleetCollection::Config fc = fleet_config(smoke);
  fleet::ShardedWarehouse db(fc.topology.shards);
  fleet::FleetCollection fleet(exp.testbed(), db, &detector, fc);

  const chaos::FaultPlan plan =
      custom ? *custom : default_plan(fleet.topology());
  chaos::ChaosEngine engine(exp.testbed(), fleet, plan);
  std::ostringstream digest;
  engine.set_on_event([&digest, narrate](const chaos::ChaosEngine::Event& e) {
    if (narrate) {
      std::printf("  t=%7.3fs  %-12s %s %s\n", util::to_sec(e.at),
                  e.fault.c_str(), e.starting ? ">>" : "<<",
                  e.describe.c_str());
    }
    digest << "event " << e.at << ' ' << e.fault << ' ' << e.starting << ' '
           << e.describe << '\n';
  });
  engine.arm();

  exp.run();
  fleet.finish();

  Report rep;
  rep.totals = fleet.totals();
  rep.chaos = engine.stats();

  // Close the byte-conservation books per origin node.
  for (int t = 0; t < core::Testbed::kTiers; ++t) {
    for (int r = 0; r < exp.testbed().replicas(t); ++r) {
      auto& books = rep.books[core::Testbed::replica_name(t, r)];
      exp.testbed().facility(t, r).for_each_file(
          [&books](logging::LogFile& f) { books.written += f.bytes_written(); });
    }
  }
  for (const auto& [channel, bytes] : fleet.root_ingested_bytes()) {
    rep.books[channel.first].ingested += bytes;
  }
  for (const auto& [node, g] : fleet.gaps_by_node()) {
    rep.books[node].holes = g.gap_bytes;
  }
  for (const auto& [node, b] : rep.books) {
    if (b.written != b.ingested + b.holes) rep.conserved = false;
    digest << "books " << node << ' ' << b.written << ' ' << b.ingested << ' '
           << b.holes << '\n';
  }

  const auto diagnoses = exp.diagnoser(db).diagnose(cfg.duration);
  for (const auto& d : diagnoses) {
    if (narrate) {
      std::printf(
          "  window %.2f-%.2fs  peak rt %.0f ms  ->  tier %d, node %s, "
          "cause %s\n",
          util::to_sec(d.window.begin), util::to_sec(d.window.end),
          d.window.peak_rt_ms, d.bottleneck_tier, d.bottleneck_node.c_str(),
          d.root_cause.c_str());
    }
    if (d.bottleneck_node == "db1" && d.root_cause == "disk-io") {
      rep.pinned = true;
    }
    digest << "diag " << d.window.begin << ' ' << d.window.end << ' '
           << d.bottleneck_node << ' ' << d.root_cause << '\n';
  }

  const auto& t = rep.totals;
  digest << "totals " << t.records_tailed << ' ' << t.batches << ' '
         << t.relay_frames << ' ' << t.root_gaps << ' ' << t.root_gap_bytes
         << ' ' << t.root_dups << ' ' << t.root_dup_bytes << ' '
         << t.leaf_holds << ' ' << t.leaf_reconnects << ' ' << t.leaf_spurious
         << ' ' << t.leaf_crashes << ' ' << t.relay_holds << ' '
         << t.relay_reconnects << ' ' << t.relay_crashes << ' '
         << t.relay_deduped_bytes << ' ' << t.relay_shed_bytes << ' '
         << t.resumed_channels << ' ' << t.max_lag << '\n';
  rep.digest = digest.str();
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool print_plan = false;
  std::optional<chaos::FaultPlan> custom;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--print-plan") == 0) {
      print_plan = true;
    } else if (std::strcmp(argv[i], "--plan") == 0 && i + 1 < argc) {
      std::ifstream in(argv[++i]);
      if (!in) {
        std::fprintf(stderr, "cannot open plan file %s\n", argv[i]);
        return 2;
      }
      std::ostringstream text;
      text << in.rdbuf();
      try {
        custom = chaos::FaultPlan::parse(text.str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--plan FILE] [--print-plan]\n",
                   argv[0]);
      return 2;
    }
  }

  if (print_plan) {
    // The default plan's relay targets depend on the topology; build just
    // the placement arithmetic to resolve them.
    const core::TestbedConfig cfg = testbed_config(smoke);
    std::vector<std::string> leaves;
    for (int t = 0; t < core::Testbed::kTiers; ++t) {
      for (int r = 0; r < cfg.nodes_per_tier[static_cast<std::size_t>(t)];
           ++r) {
        leaves.push_back(core::Testbed::replica_name(t, r));
      }
    }
    const fleet::Topology topo(std::move(leaves), fleet_config(smoke).topology);
    std::printf("%s", default_plan(topo).format().c_str());
    return 0;
  }

  const core::TestbedConfig cfg = testbed_config(smoke);
  const RemoveOnExit cleanup{cfg.log_dir};
  const int servers = cfg.nodes_per_tier[0] + cfg.nodes_per_tier[1] +
                      cfg.nodes_per_tier[2] + cfg.nodes_per_tier[3];
  std::printf("mScopeChaos: %d monitored servers, %d users, %s fault plan\n\n",
              servers, cfg.workload, custom ? "custom" : "scripted 6-fault");

  std::printf("run 1: fault timeline\n");
  Report r1;
  try {
    r1 = run_once(smoke, custom, /*narrate=*/true);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenario_chaos: error: %s\n", e.what());
    return 2;
  }

  const auto& t = r1.totals;
  std::printf("\nsurviving the schedule\n");
  const auto row = [](const char* k, std::uint64_t v) {
    std::printf("  %-28s%12llu\n", k, static_cast<unsigned long long>(v));
  };
  row("faults injected", r1.chaos.injected);
  row("faults recovered", r1.chaos.recovered);
  row("log rotations forced", r1.chaos.rotations);
  row("records tailed", t.records_tailed);
  row("sends held back (leaf)", t.leaf_holds);
  row("sends held back (relay)", t.relay_holds);
  row("epoch reconnects (leaf)", t.leaf_reconnects);
  row("channels resumed", t.resumed_channels);
  row("duplicate bytes trimmed", t.root_dup_bytes + t.relay_deduped_bytes);
  row("holes seen at root", t.root_gaps);
  row("hole bytes attributed", t.root_gap_bytes);

  std::printf("\nbyte-conservation books (written == ingested + holes)\n");
  std::uint64_t sum_written = 0, sum_ingested = 0, sum_holes = 0;
  int damaged = 0;
  for (const auto& [node, b] : r1.books) {
    sum_written += b.written;
    sum_ingested += b.ingested;
    sum_holes += b.holes;
    if (b.holes > 0) ++damaged;
  }
  std::printf("  %-10s written %12llu  ingested %12llu  holes %10llu\n",
              "fleet", static_cast<unsigned long long>(sum_written),
              static_cast<unsigned long long>(sum_ingested),
              static_cast<unsigned long long>(sum_holes));
  std::printf("  %d of %zu nodes took attributed damage; db1 holes: %llu\n",
              damaged, r1.books.size(),
              static_cast<unsigned long long>(r1.books.at("db1").holes));

  bool ok = true;
  if (!r1.conserved) {
    std::printf("\nFAIL: byte books do not balance\n");
    for (const auto& [node, b] : r1.books) {
      if (b.written != b.ingested + b.holes) {
        std::printf("  %s: written %llu != ingested %llu + holes %llu\n",
                    node.c_str(), static_cast<unsigned long long>(b.written),
                    static_cast<unsigned long long>(b.ingested),
                    static_cast<unsigned long long>(b.holes));
      }
    }
    ok = false;
  }
  if (!custom) {
    if (r1.chaos.injected != 6) {
      std::printf("\nFAIL: expected 6 injected faults, saw %llu\n",
                  static_cast<unsigned long long>(r1.chaos.injected));
      ok = false;
    }
    if (r1.books.at("db1").holes != 0) {
      std::printf("\nFAIL: the faulty replica's channel took damage\n");
      ok = false;
    }
    if (t.root_gap_bytes == 0) {
      std::printf("\nFAIL: the schedule opened no attributed holes at all\n");
      ok = false;
    }
    if (t.leaf_holds == 0 || t.relay_holds == 0 || t.leaf_reconnects == 0 ||
        t.resumed_channels == 0) {
      std::printf("\nFAIL: hold-back / reconnect / resume machinery idle\n");
      ok = false;
    }
    if (!r1.pinned) {
      std::printf("\nFAIL: diagnosis did not pin db1/disk-io under chaos\n");
      ok = false;
    }
  }

  if (ok) {
    std::printf("\nrun 2: replaying the same plan\n");
    Report r2;
    try {
      r2 = run_once(smoke, custom, /*narrate=*/false);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "scenario_chaos: error: %s\n", e.what());
      return 2;
    }
    if (r2.digest != r1.digest) {
      std::printf("FAIL: replay diverged from run 1\n");
      ok = false;
    } else {
      std::printf("  replay is bit-identical (%zu-byte fingerprint)\n",
                  r1.digest.size());
    }
  }

  if (!ok) return 1;
  std::printf(
      "\nOK: %d servers, %llu faults, books balanced, db1 pinned, replay "
      "exact\n",
      servers, static_cast<unsigned long long>(r1.chaos.injected));
  return 0;
}
