#include "fleet/fleet_collection.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "transform/warehouse_io.h"

namespace mscope::fleet {

namespace {

/// Cadence of the forced incremental parse + queue estimation tick (bounds
/// how stale the live signal can get).
constexpr SimTime kParseInterval = 250 * util::kMsec;
/// Queue depth is evaluated this far behind the newest departure seen, so
/// rows still in flight through the pipeline rarely invalidate it.
constexpr SimTime kQueueWatermark = 500 * util::kMsec;
/// Cadence of the scrape + registry -> warehouse export tick.
constexpr SimTime kExportInterval = 1 * util::kSec;
constexpr int kRootCores = 8;
/// Root decode/dispatch cost per arriving batch or frame, plus per KB.
constexpr SimTime kRootCpuPerTransfer = 40;
constexpr SimTime kRootCpuPerKb = 8;

std::vector<db::Database*> shards_of(ShardedWarehouse& warehouse) {
  std::vector<db::Database*> out;
  for (int i = 0; i < warehouse.shard_count(); ++i) {
    out.push_back(&warehouse.shard(i));
  }
  return out;
}

}  // namespace

FleetCollection::FleetCollection(core::Testbed& testbed,
                                 ShardedWarehouse& warehouse,
                                 core::OnlineVsbDetector* detector, Config cfg)
    : FleetCollection(testbed, shards_of(warehouse), detector, cfg) {}

FleetCollection::FleetCollection(core::Testbed& testbed,
                                 std::vector<db::Database*> shards,
                                 core::OnlineVsbDetector* detector, Config cfg)
    : testbed_(testbed),
      detector_(detector),
      cfg_(cfg),
      topology_(
          [&testbed] {
            std::vector<std::string> leaves;
            for (int tier = 0; tier < core::Testbed::kTiers; ++tier) {
              for (int r = 0; r < testbed.replicas(tier); ++r) {
                leaves.push_back(core::Testbed::replica_name(tier, r));
              }
            }
            return leaves;
          }(),
          cfg.topology),
      queue_signal_(kQueueWatermark) {
  if (static_cast<std::size_t>(topology_.shards()) != shards.size()) {
    throw std::invalid_argument(
        "FleetCollection: topology shards != warehouse shards");
  }
  for (db::Database* db : shards) shards_.emplace_back().db = db;
  auto& sim = testbed_.simulation();
  auto& net = testbed_.network();

  if (cfg_.observability) {
    if (cfg_.observability->trace) {
      tracer_ = std::make_unique<obs::Tracer>(
          [&sim]() -> util::SimTime { return sim.now(); });
    }
    exporter_ = std::make_unique<obs::MetaExporter>(*shards_[0].db,
                                                    obs::Registry::global());
    sim.schedule(kExportInterval, [this] { export_tick(); });
  }

  if (cfg_.durability) {
    // Each journal must be attached before its shard's first mutation
    // (including the static metadata rows below): recovery replays the WAL
    // into a fresh Database, so anything that lands unjournaled before the
    // first checkpoint would be unrecoverable.
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard& s = shards_[i];
      s.wal_dir = shards_.size() == 1
                      ? cfg_.durability->dir
                      : cfg_.durability->dir / ("shard" + std::to_string(i));
      std::filesystem::create_directories(s.wal_dir);
      s.wal = std::make_unique<db::wal::WalWriter>(
          transform::WarehouseIO::wal_path(s.wal_dir));
      s.db->set_journal(s.wal.get());
    }
    sim.schedule(cfg_.durability->commit_interval, [this] { commit_tick(); });
  }

  if (cfg_.record_metadata) {
    // Static metadata lands once, in shard 0, in the exact order the flat
    // warehouse records it — the merged view then reproduces the flat
    // tables row-for-row.
    const auto& tc = testbed_.config();
    db::Database& meta = *shards_[0].db;
    meta.record_experiment("run", "RUBBoS n-tier experiment", tc.workload,
                           tc.duration);
    for (int tier = 0; tier < core::Testbed::kTiers; ++tier) {
      for (int r = 0; r < testbed_.replicas(tier); ++r) {
        meta.record_node(
            core::Testbed::replica_name(tier, r),
            core::Testbed::services()[static_cast<std::size_t>(tier)],
            tc.cores_per_node);
      }
    }
  }

  // The root collector machine.
  sim::Node::Config nc;
  nc.name = "collector";
  nc.cores = kRootCores;
  root_node_ = std::make_unique<sim::Node>(sim, nc);
  root_wire_ = net.register_node(root_node_.get());

  for (Shard& s : shards_) {
    s.transformer =
        std::make_unique<transform::StreamingTransformer>(*s.db, cfg_.streaming);
    s.transformer->set_tracer(tracer_.get());
    s.transformer->set_row_observer(
        [this](const std::string& table, const db::ColumnBatch& batch,
               std::size_t first, std::size_t end) {
          queue_signal_.on_rows(table, batch, first, end);
        });
  }

  // Interior levels, parents first so children have wires to aim at.
  if (topology_.levels() == 3) {
    for (int p = 0; p < topology_.pods(); ++p) {
      pod_relays_.push_back(std::make_unique<RelayAggregator>(
          sim, net, Topology::pod_name(p), root_wire_,
          [this](RelayFrame&& f, bool in_band) {
            root_on_frame(std::move(f), in_band);
          },
          cfg_.relay));
    }
  }
  if (topology_.levels() >= 2) {
    for (int r = 0; r < topology_.racks(); ++r) {
      if (topology_.levels() == 3) {
        RelayAggregator* pod =
            pod_relays_[static_cast<std::size_t>(topology_.pod_of_rack(r))]
                .get();
        rack_relays_.push_back(std::make_unique<RelayAggregator>(
            sim, net, Topology::rack_name(r), pod->wire_id(),
            [pod](RelayFrame&& f, bool in_band) {
              pod->on_frame(std::move(f), in_band);
            },
            cfg_.relay));
        // A pod relay can crash+restart: its children probe its incarnation
        // so their uplinks hold while it is down and handshake when it
        // returns reborn.
        rack_relays_.back()->uplink().set_peer_incarnation(
            [pod]() -> std::optional<std::uint64_t> {
              if (pod->down()) return std::nullopt;
              return pod->incarnation();
            });
      } else {
        rack_relays_.push_back(std::make_unique<RelayAggregator>(
            sim, net, Topology::rack_name(r), root_wire_,
            [this](RelayFrame&& f, bool in_band) {
              root_on_frame(std::move(f), in_band);
            },
            cfg_.relay));
      }
    }
  }

  for (int tier = 0; tier < core::Testbed::kTiers; ++tier) {
    for (int r = 0; r < testbed_.replicas(tier); ++r) {
      Channel ch;
      ch.node = core::Testbed::replica_name(tier, r);
      ch.buffer = std::make_unique<collector::RingBuffer>(cfg_.buffer_capacity,
                                                          cfg_.policy);
      ch.tailer = std::make_unique<collector::LogTailer>(
          testbed_.facility(tier, r), *ch.buffer, ch.node, cfg_.tailer);
      std::uint16_t dst_wire = root_wire_;
      collector::Shipper::Sink sink;
      if (topology_.levels() >= 2) {
        RelayAggregator* relay =
            rack_relays_[static_cast<std::size_t>(topology_.rack_of(ch.node))]
                .get();
        dst_wire = relay->wire_id();
        sink = [relay](collector::Batch&& b, bool in_band) {
          relay->on_batch(std::move(b), in_band);
        };
      } else {
        sink = [this](collector::Batch&& b, bool in_band) {
          root_on_batch(std::move(b), in_band);
        };
      }
      ch.shipper = std::make_unique<collector::Shipper>(
          sim, net, testbed_.node(tier, r), testbed_.tier_wire_id(tier, r),
          dst_wire, *ch.buffer, std::move(sink), ch.node, cfg_.shipper);
      ch.shipper->set_on_drain([t = ch.tailer.get()] { t->pump(); });
      ch.shipper->set_tracer(tracer_.get());
      if (topology_.levels() >= 2) {
        // Leaves probe their rack relay's incarnation: while the relay
        // process is dead the leaf link holds its batch back (no retries
        // burned), and the first send after a restart handshakes epochs.
        RelayAggregator* relay =
            rack_relays_[static_cast<std::size_t>(topology_.rack_of(ch.node))]
                .get();
        ch.shipper->link().set_peer_incarnation(
            [relay]() -> std::optional<std::uint64_t> {
              if (relay->down()) return std::nullopt;
              return relay->incarnation();
            });
      }
      ch.shipper->start();
      channels_.push_back(std::move(ch));
    }
  }

  for (auto& relay : pod_relays_) relay->start();
  for (auto& relay : rack_relays_) relay->start();

  sim.schedule(kParseInterval, [this] { tick(); });
}

FleetCollection::~FleetCollection() {
  // Detach before the WalWriters die; the Databases may outlive us.
  for (Shard& s : shards_) {
    if (s.wal != nullptr && s.db->journal() == s.wal.get()) {
      s.db->set_journal(nullptr);
    }
  }
}

void FleetCollection::root_receive(const std::string& sender,
                                   std::uint64_t seq, std::size_t records,
                                   std::size_t bytes, SimTime assembled_at,
                                   bool in_band) {
  root_stats_.records += records;
  root_stats_.bytes += bytes;
  if (!in_band) return;
  const SimTime now = testbed_.simulation().now();
  if (root_stats_.first_batch_at < 0) root_stats_.first_batch_at = now;
  const SimTime cpu =
      kRootCpuPerTransfer + kRootCpuPerKb * static_cast<SimTime>(bytes / 1024);
  root_stats_.cpu_charged += cpu;
  root_node_->cpu().submit(cpu, sim::CpuCategory::kSystem,
                           sim::CpuPriority::kNormal, [] {});
  if (tracer_ != nullptr) {
    // The ingest itself happens at one frozen instant; the transfer's real
    // virtual extent is its modeled decode CPU charge.
    tracer_->record("aggregate " + sender + "#" + std::to_string(seq),
                    "aggregate", now, now + cpu);
  }
  if (assembled_at > 0) {
    root_stats_.last_lag = now - assembled_at;
    root_stats_.max_lag = std::max(root_stats_.max_lag, root_stats_.last_lag);
  }
}

void FleetCollection::root_on_frame(RelayFrame&& frame, bool in_band) {
  ++root_stats_.frames;
  root_receive(frame.relay, frame.seq, frame.chunks.size(), frame.bytes(),
               frame.oldest_assembled, in_band);
  for (auto& c : frame.chunks) {
    ingest_chunk(c.node, c.file, c.generation, c.offset, std::move(c.data));
  }
}

void FleetCollection::root_on_batch(collector::Batch&& batch, bool in_band) {
  ++root_stats_.batches;
  root_receive(batch.node, batch.seq, batch.records.size(), batch.bytes(),
               batch.assembled_at, in_band);
  for (auto& r : batch.records) {
    ingest_chunk(batch.node, r.file, r.generation, r.offset,
                 std::move(r.data));
  }
}

void FleetCollection::ingest_chunk(const std::string& node,
                                   const std::string& file,
                                   std::uint64_t generation,
                                   std::uint64_t offset, std::string&& data) {
  // The root re-runs the same offset-gap accounting as every hop below it:
  // a hole that survived re-framing (a chunk-run split) is detected here
  // with origin-node attribution, and surfaced to the owning shard's
  // transformer so the loss is never silently misparsed. The root is also
  // the idempotence backstop — delivery keyed (node, file, generation,
  // offset): a redelivered range that slipped past every relay (or arrived
  // while a relay was mid-restart) is trimmed here, so a row can never be
  // inserted twice no matter how the tree healed.
  const auto admitted =
      root_gaps_.admit(node, file, generation, offset, data.size());
  transform::StreamingTransformer& t =
      *shards_[static_cast<std::size_t>(topology_.shard_of(node))].transformer;
  if (admitted.skipped > 0) {
    ++root_stats_.gaps;
    root_stats_.gap_bytes += admitted.skipped;
    t.note_gap(node, file, admitted.skipped);
  }
  if (admitted.dup_bytes > 0) {
    ++root_stats_.dups;
    root_stats_.dup_bytes += admitted.dup_bytes;
    if (admitted.dup_bytes >= data.size()) return;  // wholly redelivered
    data.erase(0, admitted.dup_bytes);
  }
  root_ingested_[{node, file}] += data.size();
  t.ingest(node, file, std::move(data));
}

FleetCollection::Channel* FleetCollection::channel_by_node(
    const std::string& node) {
  for (auto& ch : channels_) {
    if (ch.node == node) return &ch;
  }
  return nullptr;
}

RelayAggregator* FleetCollection::relay_by_name(const std::string& name) {
  for (auto& relay : rack_relays_) {
    if (relay->name() == name) return relay.get();
  }
  for (auto& relay : pod_relays_) {
    if (relay->name() == name) return relay.get();
  }
  return nullptr;
}

void FleetCollection::crash_leaf(const std::string& node) {
  Channel* ch = channel_by_node(node);
  if (ch == nullptr) {
    throw std::invalid_argument("crash_leaf: unknown node " + node);
  }
  ++leaf_crashes_;
  // Everything the agent held in memory dies with it: the tailer's held
  // lines, the ring buffer, and the batch in flight. Nothing is delivered;
  // the next hop attributes the hole once the restarted agent ships past.
  ch->tailer->detach();
  ch->buffer->clear();
  ch->shipper->crash();
}

void FleetCollection::restart_leaf(const std::string& node) {
  Channel* ch = channel_by_node(node);
  if (ch == nullptr) {
    throw std::invalid_argument("restart_leaf: unknown node " + node);
  }
  ch->tailer->attach();
  ch->shipper->start();
}

void FleetCollection::tick() {
  // Scoped: marks *where* on the run timeline the parse pass happened and
  // what it cost the host (wall_us); the virtual instant is frozen.
  obs::Tracer::Span span = tracer_ != nullptr
                               ? tracer_->span("parse_all", "transform")
                               : obs::Tracer::Span{};
  // Shard order keeps the parse pass deterministic (and so the warehouse
  // bit-reproducible at any worker count).
  for (Shard& s : shards_) s.transformer->parse_all();
  span.close();
  if (detector_ != nullptr) {
    queue_signal_.evaluate(
        [this](SimTime t, const std::string& table, double depth) {
          detector_->on_queue_sample(t, table, depth);
        });
  } else {
    queue_signal_.evaluate(nullptr);
  }
  testbed_.simulation().schedule(kParseInterval, [this] { tick(); });
}

void FleetCollection::commit_tick() {
  for (Shard& s : shards_) {
    if (!s.wal->dirty()) continue;
    s.wal->commit();
    if (cfg_.durability->checkpoint_every > 0 &&
        ++s.commits_since_checkpoint >= cfg_.durability->checkpoint_every) {
      checkpoint(s);
    }
  }
  if (!finished_) {
    testbed_.simulation().schedule(cfg_.durability->commit_interval,
                                   [this] { commit_tick(); });
  }
}

void FleetCollection::checkpoint(Shard& shard) {
  if (shard.wal == nullptr) return;
  transform::WarehouseIO::checkpoint(*shard.db, shard.wal_dir, *shard.wal);
  shard.commits_since_checkpoint = 0;
}

void FleetCollection::scrape_gauges() {
  obs::Registry& reg = obs::Registry::global();
  for (const auto& ch : channels_) {
    const std::string p = "collector." + ch.node + ".";
    const auto& buf = *ch.buffer;
    reg.gauge(p + "ring.depth").set(static_cast<std::int64_t>(buf.size()));
    reg.gauge(p + "ring.dropped")
        .set(static_cast<std::int64_t>(buf.stats().dropped()));
    reg.gauge(p + "ring.blocked")
        .set(static_cast<std::int64_t>(buf.stats().blocked));
    reg.gauge(p + "ring.peak_depth")
        .set(static_cast<std::int64_t>(buf.stats().peak_depth));
    reg.gauge(p + "tailer.lag_bytes")
        .set(static_cast<std::int64_t>(ch.tailer->pending_bytes()));
    const auto ship = ch.shipper->stats();
    reg.gauge(p + "shipper.batches")
        .set(static_cast<std::int64_t>(ship.batches));
    reg.gauge(p + "shipper.retries")
        .set(static_cast<std::int64_t>(ship.retries));
    reg.gauge(p + "shipper.abandoned")
        .set(static_cast<std::int64_t>(ship.abandoned));
    // Chaos degradation decisions at the leaf hop: batches held back for an
    // unreachable relay, epoch handshakes after its restart, and ack-lost
    // duplicates handed downstream for dedup.
    reg.gauge(p + "shipper.holds").set(static_cast<std::int64_t>(ship.holds));
    reg.gauge(p + "shipper.reconnects")
        .set(static_cast<std::int64_t>(ship.reconnects));
    reg.gauge(p + "shipper.spurious")
        .set(static_cast<std::int64_t>(ship.spurious));
  }
  const auto scrape_relay = [&reg](const RelayAggregator& relay) {
    const std::string p = "fleet." + relay.name() + ".";
    const RelayAggregator::Stats s = relay.stats();
    reg.gauge(p + "queue_bytes").set(static_cast<std::int64_t>(s.queue_bytes));
    reg.gauge(p + "frames_out").set(static_cast<std::int64_t>(s.frames_out));
    reg.gauge(p + "retries").set(static_cast<std::int64_t>(s.retries));
    reg.gauge(p + "abandoned").set(static_cast<std::int64_t>(s.abandoned));
    reg.gauge(p + "gaps").set(static_cast<std::int64_t>(s.gaps));
    reg.gauge(p + "gap_bytes").set(static_cast<std::int64_t>(s.gap_bytes));
    reg.gauge(p + "lag_usec").set(s.last_lag);
    reg.gauge(p + "max_lag_usec").set(s.max_lag);
    reg.gauge(p + "cpu_usec").set(s.cpu_charged);
    // Chaos degradation decisions at this hop.
    reg.gauge(p + "holds").set(static_cast<std::int64_t>(s.holds));
    reg.gauge(p + "reconnects").set(static_cast<std::int64_t>(s.reconnects));
    reg.gauge(p + "deduped_bytes")
        .set(static_cast<std::int64_t>(s.deduped_bytes));
    reg.gauge(p + "abandoned_bytes")
        .set(static_cast<std::int64_t>(s.abandoned_bytes));
    reg.gauge(p + "crashes").set(static_cast<std::int64_t>(s.crashes));
    reg.gauge(p + "shed_bytes").set(static_cast<std::int64_t>(s.shed_bytes));
    reg.gauge(p + "resumed_channels")
        .set(static_cast<std::int64_t>(s.resumed_channels));
  };
  for (const auto& relay : rack_relays_) scrape_relay(*relay);
  for (const auto& relay : pod_relays_) scrape_relay(*relay);
  reg.gauge("fleet.root.frames")
      .set(static_cast<std::int64_t>(root_stats_.frames));
  reg.gauge("fleet.root.gaps").set(static_cast<std::int64_t>(root_stats_.gaps));
  reg.gauge("fleet.root.gap_bytes")
      .set(static_cast<std::int64_t>(root_stats_.gap_bytes));
  reg.gauge("fleet.root.deduped")
      .set(static_cast<std::int64_t>(root_stats_.dups));
  reg.gauge("fleet.root.deduped_bytes")
      .set(static_cast<std::int64_t>(root_stats_.dup_bytes));
  reg.gauge("fleet.root.lag_usec").set(root_stats_.last_lag);
  reg.gauge("fleet.root.max_lag_usec").set(root_stats_.max_lag);
  reg.gauge("fleet.root.cpu_usec").set(root_stats_.cpu_charged);
  // Loss by origin node, as the root sees it — the "which replica lost
  // data" attribution, queryable next to that node's own event tables.
  for (const auto& [node, g] : root_gaps_.per_node()) {
    const std::string p = "fleet." + node + ".";
    reg.gauge(p + "gaps").set(static_cast<std::int64_t>(g.gaps));
    reg.gauge(p + "gap_bytes").set(static_cast<std::int64_t>(g.gap_bytes));
  }
  std::uint64_t rows_live = 0;
  std::uint64_t files = 0;
  for (const Shard& s : shards_) {
    rows_live += s.transformer->stats().rows_live;
    files += s.transformer->stats().files;
  }
  reg.gauge("transform.rows_live").set(static_cast<std::int64_t>(rows_live));
  reg.gauge("transform.files").set(static_cast<std::int64_t>(files));
  if (tracer_ != nullptr) {
    reg.gauge("obs.trace.spans")
        .set(static_cast<std::int64_t>(tracer_->spans().size()));
    reg.gauge("obs.trace.dropped")
        .set(static_cast<std::int64_t>(tracer_->dropped()));
  }
}

void FleetCollection::export_tick() {
  scrape_gauges();
  exporter_->export_metrics(testbed_.simulation().now());
  if (!finished_) {
    testbed_.simulation().schedule(kExportInterval, [this] { export_tick(); });
  }
}

void FleetCollection::finish() {
  if (finished_) return;
  finished_ = true;
  // Leaf-to-root drain: each level is fully dry before the next flushes,
  // so no in-flight byte is stranded below a hop that already drained.
  for (auto& ch : channels_) {
    ch.shipper->stop();
    do {
      ch.tailer->flush();
      ch.shipper->flush_now();
    } while (ch.tailer->has_pending());
  }
  for (auto& relay : rack_relays_) {
    relay->stop();
    relay->flush_now();
  }
  for (auto& relay : pod_relays_) {
    relay->stop();
    relay->flush_now();
  }
  // Finalize shard-by-shard in shard order: load-catalog and deployment
  // metadata land per shard in the same sorted (node, file) order the flat
  // finalize uses, so the merged view reproduces it.
  obs::Tracer::Span span = tracer_ != nullptr
                               ? tracer_->span("finalize", "transform")
                               : obs::Tracer::Span{};
  for (Shard& s : shards_) s.transformer->finalize();
  span.close();
  if (exporter_ != nullptr) {
    // Final export: the registry's end-of-run snapshot plus every span the
    // run recorded (all scopes are closed by now) land in the warehouse
    // before the final checkpoint snapshots it.
    scrape_gauges();
    exporter_->export_metrics(testbed_.simulation().now());
    if (tracer_ != nullptr) exporter_->export_spans(*tracer_);
  }
  // Final checkpoint: each finished shard (including the load-catalog rows
  // finalize() just wrote) becomes one durable snapshot and its WAL shrinks
  // back to an empty header.
  for (Shard& s : shards_) checkpoint(s);
}

FleetCollection::Totals FleetCollection::totals() const {
  Totals t;
  for (const auto& ch : channels_) {
    t.records_tailed += ch.tailer->stats().records;
    t.bytes_tailed += ch.tailer->stats().bytes;
    t.dropped += ch.buffer->stats().dropped();
    t.blocked += ch.buffer->stats().blocked;
    const auto ship = ch.shipper->stats();
    t.batches += ship.batches;
    t.leaf_retries += ship.retries;
    t.leaf_abandoned += ship.abandoned;
    t.leaf_holds += ship.holds;
    t.leaf_reconnects += ship.reconnects;
    t.leaf_spurious += ship.spurious;
    t.shipping_cpu += ship.cpu_charged;
  }
  const auto fold_relay = [&t](const RelayAggregator& relay) {
    const RelayAggregator::Stats s = relay.stats();
    t.relay_frames += s.frames_out;
    t.relay_retries += s.retries;
    t.relay_abandoned += s.abandoned;
    t.relay_holds += s.holds;
    t.relay_reconnects += s.reconnects;
    t.relay_crashes += s.crashes;
    t.relay_deduped_bytes += s.deduped_bytes;
    t.relay_abandoned_bytes += s.abandoned_bytes;
    t.relay_shed_bytes += s.shed_bytes;
    t.resumed_channels += s.resumed_channels;
    t.relay_cpu += s.cpu_charged;
  };
  for (const auto& relay : rack_relays_) fold_relay(*relay);
  for (const auto& relay : pod_relays_) fold_relay(*relay);
  t.leaf_crashes = leaf_crashes_;
  t.root_gaps = root_stats_.gaps;
  t.root_gap_bytes = root_stats_.gap_bytes;
  t.root_dups = root_stats_.dups;
  t.root_dup_bytes = root_stats_.dup_bytes;
  t.root_cpu = root_stats_.cpu_charged;
  t.last_lag = root_stats_.last_lag;
  t.max_lag = root_stats_.max_lag;
  return t;
}

}  // namespace mscope::fleet
