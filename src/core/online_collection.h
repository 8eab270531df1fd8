#pragma once

#include <cstdint>
#include <utility>

#include "core/online_detector.h"
#include "core/testbed.h"
#include "db/database.h"
#include "fleet/fleet_collection.h"

namespace mscope::core {

/// The flat mScopeCollector deployment: every monitored node ships straight
/// to one collector machine that streams into the caller's Database — a
/// one-level, one-shard fleet::FleetCollection (the Config defaults).
/// Construct it *before* Testbed::run(); call finish() after it. Everything
/// beyond this façade is on pipeline().
class OnlineCollection {
 public:
  using Config = fleet::FleetCollection::Config;

  /// Run totals under the flat collector's names.
  struct Totals {
    std::uint64_t records_tailed = 0;
    std::uint64_t bytes_tailed = 0;
    std::uint64_t dropped = 0;    ///< records lost to backpressure
    std::uint64_t blocked = 0;    ///< pushes refused under kBlock
    std::uint64_t batches = 0;    ///< batches delivered
    std::uint64_t retries = 0;    ///< shipper re-sends
    std::uint64_t abandoned = 0;  ///< batches given up after max_retries
    std::uint64_t gaps = 0;       ///< stream holes those abandonments left
    std::uint64_t gap_bytes = 0;  ///< log bytes lost in those holes
    SimTime shipping_cpu = 0;     ///< modeled CPU on monitored nodes
  };

  /// `detector` may be null (collection without live diagnosis).
  OnlineCollection(Testbed& testbed, db::Database& db,
                   OnlineVsbDetector* detector, Config cfg)
      : pipeline_(testbed, {&db}, detector, std::move(cfg)) {}

  void finish() { pipeline_.finish(); }
  /// The write-ahead log, when durability is configured (else null).
  [[nodiscard]] db::wal::WalWriter* wal() { return pipeline_.wal(0); }
  [[nodiscard]] transform::StreamingTransformer& transformer() {
    return pipeline_.shard_transformer(0);
  }
  [[nodiscard]] Totals totals() const {
    const auto t = pipeline_.totals();
    return {.records_tailed = t.records_tailed,
            .bytes_tailed = t.bytes_tailed,
            .dropped = t.dropped,
            .blocked = t.blocked,
            .batches = t.batches,
            .retries = t.leaf_retries,
            .abandoned = t.leaf_abandoned,
            .gaps = t.root_gaps,
            .gap_bytes = t.root_gap_bytes,
            .shipping_cpu = t.shipping_cpu};
  }

  [[nodiscard]] fleet::FleetCollection& pipeline() { return pipeline_; }

 private:
  fleet::FleetCollection pipeline_;
};

}  // namespace mscope::core
