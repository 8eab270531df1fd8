#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "collector/gap_tracker.h"
#include "collector/log_tailer.h"
#include "collector/ring_buffer.h"
#include "collector/shipper.h"
#include "core/online_detector.h"
#include "core/queue_signal.h"
#include "core/testbed.h"
#include "db/database.h"
#include "db/wal/wal.h"
#include "fleet/frame.h"
#include "fleet/relay.h"
#include "fleet/sharded_warehouse.h"
#include "fleet/topology.h"
#include "obs/meta_exporter.h"
#include "obs/trace.h"
#include "sim/node.h"
#include "transform/streaming.h"

namespace mscope::fleet {

/// mScopeCollector wired onto a Testbed: the one collection pipeline.
///
///   per monitored node:  LoggingFacility -> LogTailer -> RingBuffer
///     -> Shipper --sim::Network--> rack RelayAggregator   (levels >= 2)
///     [--> pod RelayAggregator]      (levels == 3)
///     --sim::Network--> root collector -> per-shard StreamingTransformer
///     -> shard Databases (merge-on-read) -> OnlineVsbDetector
///
/// Every hop ships over the same stop-and-wait ReliableLink with retry +
/// backoff + abandonment, and re-runs the same offset-gap accounting, so a
/// hole opened anywhere in the tree is detected, sized, and attributed to
/// its origin node at every level it crosses. With levels == 1 and one
/// shard (the Topology defaults) the tree is the flat deployment: leaves
/// ship straight to the root, which streams into one Database — what
/// core::OnlineCollection runs. With the default block backpressure policy
/// the warehouse is cell-identical to the post-hoc batch transform.
class FleetCollection {
 public:
  struct Config {
    Topology::Config topology;
    std::size_t buffer_capacity = 4096;  ///< records per node buffer
    collector::OverflowPolicy policy = collector::OverflowPolicy::kBlock;
    collector::LogTailer::Config tailer;
    collector::Shipper::Config shipper;
    RelayAggregator::Config relay;
    transform::StreamingTransformer::Config streaming;
    /// Record ms_experiment / ms_node rows (same values as
    /// Experiment::load_warehouse), once, in shard 0, so a streamed
    /// warehouse is complete.
    bool record_metadata = true;

    /// Crash durability. Each shard journals to its own write-ahead log,
    /// attached *before* any metadata or streamed row lands, so every
    /// mutation on the streaming path is journaled. One shard keeps its log
    /// and snapshots in `dir` itself; with N > 1 shards, shard i uses
    /// `dir/shard<i>`. `WarehouseIO::recover` on that directory restores
    /// the shard after a crash. Unset (the default): no journal, no I/O.
    struct Durability {
      std::filesystem::path dir;
      /// Group-commit cadence: how often (virtual time) journaled frames
      /// are made durable with a commit marker + flush.
      SimTime commit_interval = 1 * util::kSec;
      /// Checkpoint (snapshot + WAL truncation) every N group commits of a
      /// shard; 0 = checkpoint only in finish().
      std::uint64_t checkpoint_every = 0;
    };
    std::optional<Durability> durability;

    /// mScopeMeta: the pipeline monitoring itself. When set, a 1 Hz export
    /// tick scrapes per-hop health (ring depth/drops, tailer lag, shipper
    /// and relay retries, holds and lag, root gaps and dedup, transform
    /// progress), tagged by node id, into the process-wide metrics registry
    /// and snapshots the registry into `mscope_meta_*` tables of shard 0.
    /// Unset (the default) adds nothing to the warehouse.
    struct Observability {
      /// Record pipeline spans (leaf ship, root aggregate, parse) on the
      /// simulation clock; finish() exports them to mscope_meta_spans.
      bool trace = false;
    };
    std::optional<Observability> observability;
  };

  /// The collection pipeline of one monitored replica.
  struct Channel {
    std::string node;
    std::unique_ptr<collector::RingBuffer> buffer;
    std::unique_ptr<collector::LogTailer> tailer;
    std::unique_ptr<collector::Shipper> shipper;
  };

  /// `detector` may be null (collection without live diagnosis).
  FleetCollection(core::Testbed& testbed, ShardedWarehouse& warehouse,
                  core::OnlineVsbDetector* detector, Config cfg);
  /// Streams into caller-owned Databases, one per topology shard. They must
  /// outlive finish(); they may outlive the pipeline.
  FleetCollection(core::Testbed& testbed, std::vector<db::Database*> shards,
                  core::OnlineVsbDetector* detector, Config cfg);
  ~FleetCollection();

  FleetCollection(const FleetCollection&) = delete;
  FleetCollection& operator=(const FleetCollection&) = delete;

  /// Call once after Testbed::run(): drains every level of the tree leaf-
  /// to-root (out of band — virtual time has stopped), finalizes the
  /// per-shard transformers in shard order, exports the final metrics and
  /// spans, and checkpoints every durable shard, so a cleanly finished run
  /// always recovers completely.
  void finish();

  /// Kills one monitored node's collection *agent* (tailer + buffer +
  /// shipper): held bytes and the in-flight batch die with the process.
  /// The monitored server itself keeps serving — only monitoring stops.
  /// The loss surfaces as origin-attributed gaps upstream once the
  /// restarted agent resumes at the live file offsets.
  void crash_leaf(const std::string& node);
  /// Restarts a crashed leaf agent; tailing resumes at current offsets.
  void restart_leaf(const std::string& node);

  /// Rack/pod relay lookup by display name ("relay3", "pod1"); null if the
  /// name names no relay in this tree.
  [[nodiscard]] RelayAggregator* relay_by_name(const std::string& name);
  /// Leaf channel lookup by monitored-node name; null if unknown.
  [[nodiscard]] Channel* channel_by_node(const std::string& node);

  [[nodiscard]] const Topology& topology() const { return topology_; }
  [[nodiscard]] const std::vector<Channel>& channels() const {
    return channels_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<RelayAggregator>>&
  rack_relays() const {
    return rack_relays_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<RelayAggregator>>&
  pod_relays() const {
    return pod_relays_;
  }
  [[nodiscard]] sim::Node& root_node() { return *root_node_; }
  [[nodiscard]] std::uint16_t root_wire() const { return root_wire_; }
  [[nodiscard]] transform::StreamingTransformer& shard_transformer(int i) {
    return *shards_.at(static_cast<std::size_t>(i)).transformer;
  }
  /// Shard i's write-ahead log, when durability is configured (else null).
  [[nodiscard]] db::wal::WalWriter* wal(int i) {
    return shards_.at(static_cast<std::size_t>(i)).wal.get();
  }
  /// The pipeline span tracer, when observability with `trace` is
  /// configured (else null). Save a Chrome trace with
  /// tracer()->save_chrome_json().
  [[nodiscard]] obs::Tracer* tracer() { return tracer_.get(); }
  /// The registry -> warehouse exporter, when observability is configured
  /// (else null).
  [[nodiscard]] obs::MetaExporter* exporter() { return exporter_.get(); }

  /// What the root collector received and what ingesting it cost.
  struct RootStats {
    std::uint64_t frames = 0;   ///< relay frames (levels >= 2)
    std::uint64_t batches = 0;  ///< leaf batches (levels == 1)
    std::uint64_t records = 0;  ///< leaf records / relay chunks in them
    std::uint64_t bytes = 0;
    /// Stream gaps: a chunk arrived whose offset jumps past the bytes seen
    /// so far for its (node, file, generation) — the signature of a
    /// transfer some hop abandoned. Surfaced here and to the owning shard's
    /// transformer (note_gap) so the loss is never silently misparsed.
    std::uint64_t gaps = 0;
    std::uint64_t gap_bytes = 0;
    std::uint64_t dups = 0;       ///< redelivered chunks trimmed at the root
    std::uint64_t dup_bytes = 0;  ///< duplicate bytes suppressed at the root
    SimTime first_batch_at = -1;  ///< -1 until the first in-band arrival
    SimTime cpu_charged = 0;
    SimTime last_lag = 0;
    SimTime max_lag = 0;
  };
  [[nodiscard]] const RootStats& root_stats() const { return root_stats_; }

  /// Tree-wide stats.
  struct Totals {
    std::uint64_t records_tailed = 0;
    std::uint64_t bytes_tailed = 0;
    std::uint64_t dropped = 0;         ///< records lost to backpressure
    std::uint64_t blocked = 0;         ///< pushes refused under kBlock
    std::uint64_t batches = 0;         ///< leaf batches delivered
    std::uint64_t leaf_retries = 0;    ///< leaf shipper re-sends
    std::uint64_t leaf_abandoned = 0;  ///< leaf batches given up
    std::uint64_t relay_frames = 0;    ///< frames delivered upward
    std::uint64_t relay_retries = 0;   ///< relay uplink re-sends
    std::uint64_t relay_abandoned = 0; ///< frames given up after max_retries
    std::uint64_t root_gaps = 0;       ///< holes observed arriving at root
    std::uint64_t root_gap_bytes = 0;  ///< log bytes lost in those holes
    std::uint64_t root_dups = 0;       ///< redelivered chunks trimmed at root
    std::uint64_t root_dup_bytes = 0;  ///< duplicate bytes suppressed at root
    std::uint64_t leaf_holds = 0;      ///< leaf link probes peer-unreachable
    std::uint64_t leaf_reconnects = 0; ///< leaf epoch handshakes
    std::uint64_t leaf_spurious = 0;   ///< ack-lost duplicates leaves re-sent
    std::uint64_t leaf_crashes = 0;    ///< agent processes killed
    std::uint64_t relay_holds = 0;     ///< relay uplink hold-back probes
    std::uint64_t relay_reconnects = 0;
    std::uint64_t relay_crashes = 0;
    std::uint64_t relay_deduped_bytes = 0;  ///< dups trimmed at relays
    std::uint64_t relay_abandoned_bytes = 0;
    std::uint64_t relay_shed_bytes = 0;     ///< queue-bound sheds at relays
    std::uint64_t resumed_channels = 0;     ///< channels primed post-restart
    SimTime shipping_cpu = 0;          ///< modeled CPU on monitored nodes
    SimTime relay_cpu = 0;             ///< modeled CPU on relay nodes
    SimTime root_cpu = 0;              ///< modeled ingest CPU at the root
    SimTime last_lag = 0;   ///< end-to-end lag of the last in-band frame
    SimTime max_lag = 0;    ///< worst end-to-end collection lag observed
  };
  [[nodiscard]] Totals totals() const;

  /// Loss observed at the root, attributed to each origin node.
  [[nodiscard]] const std::map<std::string, collector::GapTracker::Stats>&
  gaps_by_node() const {
    return root_gaps_.per_node();
  }

  /// Unique (post-dedup) bytes the root ingested per (node, file) channel.
  [[nodiscard]] const std::map<std::pair<std::string, std::string>,
                               std::uint64_t>&
  root_ingested_bytes() const {
    return root_ingested_;
  }

 private:
  /// One warehouse shard: its Database, the transformer streaming into it
  /// and, with durability, its write-ahead log.
  struct Shard {
    db::Database* db = nullptr;
    std::unique_ptr<transform::StreamingTransformer> transformer;
    std::unique_ptr<db::wal::WalWriter> wal;
    std::filesystem::path wal_dir;
    std::uint64_t commits_since_checkpoint = 0;
  };

  void root_on_frame(RelayFrame&& frame, bool in_band);
  void root_on_batch(collector::Batch&& batch, bool in_band);
  /// Accounts one transfer arriving at the root from `sender`; in band it
  /// also charges the root's ingest CPU and records the aggregate span.
  void root_receive(const std::string& sender, std::uint64_t seq,
                    std::size_t records, std::size_t bytes,
                    SimTime assembled_at, bool in_band);
  void ingest_chunk(const std::string& node, const std::string& file,
                    std::uint64_t generation, std::uint64_t offset,
                    std::string&& data);
  void tick();
  void commit_tick();
  void checkpoint(Shard& shard);
  void export_tick();
  void scrape_gauges();

  core::Testbed& testbed_;
  core::OnlineVsbDetector* detector_;
  Config cfg_;
  Topology topology_;
  std::vector<Shard> shards_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::MetaExporter> exporter_;
  std::unique_ptr<sim::Node> root_node_;
  std::uint16_t root_wire_ = 0;
  std::vector<std::unique_ptr<RelayAggregator>> rack_relays_;
  std::vector<std::unique_ptr<RelayAggregator>> pod_relays_;
  std::vector<Channel> channels_;
  collector::GapTracker root_gaps_;
  std::map<std::pair<std::string, std::string>, std::uint64_t> root_ingested_;
  core::QueueSignal queue_signal_;
  bool finished_ = false;
  std::uint64_t leaf_crashes_ = 0;
  RootStats root_stats_;
};

}  // namespace mscope::fleet
