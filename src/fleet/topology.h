#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mscope::fleet {

/// Declarative shape of a collection tree: how many monitored leaves feed
/// how many rack relays, whether the racks are grouped under pod relays,
/// and how many warehouse shards the root fans into.
///
/// The topology is pure arithmetic over a *sorted* list of leaf node names —
/// no simulation state — so every placement decision (which rack a node
/// reports to, which shard its tables land in, which RNG stream its network
/// jitter draws from) is a deterministic function of the node's name and the
/// experiment seed. Adding or removing an unrelated node never reshuffles
/// another node's rack, shard, or random stream.
class Topology {
 public:
  struct Config {
    /// Tree depth: 1 = leaves ship straight to the root (the flat
    /// deployment), 2 = leaves -> rack relays -> root,
    /// 3 = leaves -> rack relays -> pod relays -> root.
    int levels = 1;
    int racks = 8;       ///< rack relays (ignored when levels == 1)
    int pods = 0;        ///< pod relays; 0 = auto (~sqrt(racks)), levels == 3
    int shards = 1;      ///< root warehouse shards
    /// Shard routing: origin-node name hashed (stable under any node-list
    /// change) or position in the sorted node list round-robin (perfectly
    /// balanced for this exact fleet).
    enum class Route { kHashNode, kRoundRobin };
    Route route = Route::kHashNode;
  };

  Topology(std::vector<std::string> leaf_nodes, Config cfg);

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] const std::vector<std::string>& leaves() const {
    return leaves_;
  }
  [[nodiscard]] int racks() const { return racks_; }
  [[nodiscard]] int pods() const { return pods_; }
  [[nodiscard]] int shards() const { return cfg_.shards; }
  [[nodiscard]] int levels() const { return cfg_.levels; }

  /// Rack relay index a leaf reports to (leaves assigned round-robin over
  /// the sorted leaf list). Only meaningful when levels >= 2.
  [[nodiscard]] int rack_of(const std::string& node) const;
  /// Pod relay index a rack relay reports to. Only meaningful at levels 3.
  [[nodiscard]] int pod_of_rack(int rack) const;
  /// Warehouse shard an origin node's dynamic tables land in.
  [[nodiscard]] int shard_of(const std::string& node) const;

  /// Relay display names: "relay<r>" for racks, "pod<p>" for pods.
  [[nodiscard]] static std::string rack_name(int rack);
  [[nodiscard]] static std::string pod_name(int pod);

  /// Stable 64-bit tag for a node name (FNV-1a). Used to derive per-node
  /// RNG streams for network jitter: the stream depends only on the node's
  /// name, never on registration order, so multi-node runs replay exactly
  /// even when the fleet composition changes around a node.
  [[nodiscard]] static std::uint64_t node_stream(const std::string& node);

 private:
  [[nodiscard]] int index_of(const std::string& node) const;

  Config cfg_;
  std::vector<std::string> leaves_;  ///< sorted
  int racks_ = 0;
  int pods_ = 0;
};

/// A per-hop gauge series name split into the hop's node id and the gauge
/// suffix. Both the flat collector ("collector.<node>.<gauge>") and the
/// fleet tree ("fleet.<relay-or-node>.<gauge>") export under this shape,
/// so frontends can group a warehouse's health series by the hop that
/// produced them.
struct GaugeKey {
  std::string node;
  std::string gauge;
};

/// Splits "collector.db1.ring.depth" -> {"db1", "ring.depth"} and
/// "fleet.relay3.lag_usec" -> {"relay3", "lag_usec"}. Returns false for
/// series that are not per-hop (e.g. "db.insert.rows").
[[nodiscard]] bool parse_hop_gauge(const std::string& series, GaugeKey* out);

}  // namespace mscope::fleet
