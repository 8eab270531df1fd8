// mScopeCollector throughput and overhead: how fast the streaming path
// ships records into mScopeDB while the experiment runs, and what the
// collection machinery costs the monitored nodes compared to the batch
// (post-hoc) transform. The collection CPU is modeled on the same counters
// the paper uses for its 1-3% monitor-overhead claim (Fig. 10), so the
// comparison is apples-to-apples: overhead must stay in the same band.

#include "bench_common.h"

#include <cstdlib>

#include "db/database.h"

using namespace mscope;
using namespace mscope::bench;

namespace {

core::TestbedConfig base_config(const std::string& tag, int workload,
                                const std::array<int, 4>& nodes) {
  core::TestbedConfig cfg;
  cfg.workload = workload;
  cfg.duration = util::sec(10);
  cfg.nodes_per_tier = nodes;
  cfg.capture_messages = false;
  cfg.log_dir = bench_dir("collector_" + tag);
  return cfg;
}

double busy_pct(const sim::Node::Counters& c, int cores) {
  const double window = static_cast<double>(c.elapsed) * cores;
  if (window <= 0) return 0;
  return static_cast<double>(c.cpu_user + c.cpu_system + c.iowait) / window *
         100.0;
}

std::uint64_t total_rows(const db::Database& db) {
  std::uint64_t n = 0;
  for (const auto& name : db.table_names()) n += db.get(name).row_count();
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  // Scale knobs: `bench_collector_throughput [workload] [replicas_per_tier]`.
  // The default (4000 users, single-replica tiers) is the PR-1 baseline of
  // ~3.6k records/s; workload 40000 over 4 replicas per tier drives the
  // same pipeline at 10-50x that record rate.
  const int workload = argc > 1 ? std::atoi(argv[1]) : 4000;
  const int replicas = argc > 2 ? std::atoi(argv[2]) : 1;
  const std::array<int, 4> nodes{replicas, replicas, replicas, replicas};

  // Baseline: the classic workflow — run, then batch-transform the logs.
  core::Experiment batch(base_config("batch", workload, nodes));
  batch.run();
  db::Database db_batch;
  batch.load_warehouse(db_batch);
  const auto batch_nodes = batch.testbed().node_stats();

  // Streaming: identical testbed, with mScopeCollector attached. Records
  // flow monitored node -> ring buffer -> shipper -> network -> root
  // collector -> streaming transformer -> mScopeDB, all in virtual time.
  core::Experiment online(base_config("online", workload, nodes));
  db::Database db_stream;
  auto collection = online.start_online(db_stream);
  online.run();
  collection->finish();
  const auto online_nodes = online.testbed().node_stats();
  const auto totals = collection->totals();
  const auto& root = collection->pipeline().root_stats();

  const double dur_sec = util::to_sec(online.config().duration);
  const double records_per_sec = static_cast<double>(root.records) / dur_sec;
  const double kb_per_sec = static_cast<double>(root.bytes) / 1024.0 / dur_sec;

  std::printf("mScopeCollector streaming throughput (virtual time)\n");
  std::printf("%-28s%12llu\n", "records shipped",
              static_cast<unsigned long long>(root.records));
  std::printf("%-28s%12llu\n", "batches delivered",
              static_cast<unsigned long long>(root.batches));
  std::printf("%-28s%12.0f\n", "records/sec", records_per_sec);
  std::printf("%-28s%12.1f\n", "KB/sec shipped", kb_per_sec);
  std::printf("%-28s%12.3f\n", "first batch at (s)",
              util::to_sec(root.first_batch_at));
  std::printf("%-28s%12llu\n", "records dropped",
              static_cast<unsigned long long>(totals.dropped));
  std::printf("%-28s%12llu\n", "shipper retries",
              static_cast<unsigned long long>(totals.retries));

  // Collection CPU: per monitored tier, busy% with the collector attached
  // vs the batch baseline. The delta is what shipping costs — it must sit
  // inside the same 1-3% band as the monitors themselves.
  std::printf("\n%-8s%-16s%-16s%-12s\n", "tier", "busy% online",
              "busy% batch", "delta pp");
  double max_overhead = -1e9, min_overhead = 1e9;
  for (std::size_t i = 0; i < online_nodes.size(); ++i) {
    const double on = busy_pct(online_nodes[i].counters, 4);
    const double off = busy_pct(batch_nodes[i].counters, 4);
    std::printf("%-8s%-16.2f%-16.2f%-12.2f\n",
                online_nodes[i].service.c_str(), on, off, on - off);
    max_overhead = std::max(max_overhead, on - off);
    min_overhead = std::min(min_overhead, on - off);
  }
  const double ship_cpu_pct =
      static_cast<double>(totals.shipping_cpu) /
      (static_cast<double>(online.config().duration) * 4 *
       static_cast<double>(online_nodes.size())) *
      100.0;
  const double coll_busy =
      busy_pct(collection->pipeline().root_node().counters(),
               collection->pipeline().root_node().cores());
  std::printf("\nmodeled shipping CPU: %.3f%% of fleet capacity; "
              "collector node busy %.2f%%\n",
              ship_cpu_pct, coll_busy);

  const std::uint64_t rows_stream = total_rows(db_stream);
  const std::uint64_t rows_batch = total_rows(db_batch);
  std::printf("warehouse rows: streamed %llu, batch %llu\n",
              static_cast<unsigned long long>(rows_stream),
              static_cast<unsigned long long>(rows_batch));

  check(rows_stream == rows_batch && rows_stream > 0,
        "streamed warehouse holds exactly the batch transform's rows");
  check(totals.dropped == 0 && totals.abandoned == 0,
        "block policy ships every record (no drops, no abandoned batches)");
  check(records_per_sec > 1000,
        "collector sustains >1000 records/sec of virtual log traffic");
  check(root.first_batch_at >= 0 && root.first_batch_at < util::sec(1),
        "warehouse starts filling within the first second");
  check(min_overhead > -0.5 && max_overhead < 3.0,
        "collection CPU overhead stays inside the paper's monitor band");
  return finish("collector_throughput");
}
