#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.h"
#include "util/rng.h"

namespace mscope::sim {

class Node;

/// One message observed "on the wire" between two nodes.
///
/// The MessageTap below records these — it is the software analogue of the
/// port-mirroring switch Fujitsu SysViz attaches to. `req_id` is ground
/// truth carried for *evaluating* reconstruction accuracy; the SysViz
/// stand-in's reconstruction itself never reads it.
struct Message {
  SimTime time = 0;  ///< capture time at the tap (== send time)
  std::uint16_t src_node = 0;
  std::uint16_t dst_node = 0;
  std::uint64_t conn_id = 0;  ///< TCP connection (persistent, per worker)
  std::uint64_t req_id = 0;
  enum class Kind : std::uint8_t { kRequest, kResponse } kind = Kind::kRequest;
  std::uint32_t bytes = 0;
};

/// Passive capture of all inter-tier messages, in capture order.
class MessageTap {
 public:
  void record(const Message& m) { messages_.push_back(m); }
  [[nodiscard]] const std::vector<Message>& messages() const {
    return messages_;
  }
  void clear() { messages_.clear(); }

 private:
  std::vector<Message> messages_;
};

/// What the wire did with one send. A fault-aware sender (ReliableLink)
/// inspects this; fire-and-forget callers (application request traffic,
/// which chaos plans never target) can keep ignoring it.
enum class SendOutcome : std::uint8_t {
  kSent,     ///< delivered: `deliver` fires after the hop latency
  kLost,     ///< dropped on the wire: `deliver` never fires
  kAckLost,  ///< payload delivered (`deliver` fires) but the sender's
             ///< acknowledgment was lost — a reliable sender must treat the
             ///< transfer as failed and retransmit, creating a duplicate
             ///< downstream
};

/// The datacenter network: fixed per-hop latency, byte counters on both NICs,
/// and optional passive capture. Latency is deliberately small and constant —
/// the paper's bottlenecks live in the servers, not the wire.
///
/// mScopeChaos adds a fault plane: directed links can be cut (partition),
/// whole nodes blackholed (process crash / NIC down), links made lossy with
/// independent data-loss and ack-loss probabilities, and a node's sends
/// skewed by a bounded clock offset. All of it defaults to off and is gated
/// behind one flag, so a healthy run makes zero extra checks-that-matter and
/// zero RNG draws — bit-identical to the pre-chaos network.
class Network {
 public:
  using Deliver = Callback;

  struct Config {
    SimTime latency = 100;  ///< one-way usec per hop
    /// Optional per-hop latency jitter: each send adds uniform [0, jitter]
    /// usec drawn from the *sending node's own* RNG stream. 0 (default)
    /// draws nothing — behavior and event ordering are bit-identical to the
    /// jitter-free network, so single-node figure outputs never move.
    SimTime jitter = 0;
    std::uint64_t seed = 0;  ///< experiment seed the jitter streams split from
  };

  Network(Simulation& sim, Config cfg) : sim_(sim), cfg_(cfg) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Attaches a passive tap (may be null to disable capture).
  void set_tap(MessageTap* tap) { tap_ = tap; }

  /// Registers a node and returns its wire id.
  std::uint16_t register_node(Node* node) {
    nodes_.push_back(node);
    return static_cast<std::uint16_t>(nodes_.size() - 1);
  }

  /// Reserves `count` connection ids and returns the first.
  std::uint64_t alloc_connections(std::uint64_t count) {
    const std::uint64_t base = next_conn_;
    next_conn_ += count;
    return base;
  }

  /// Sends a message; `deliver` fires at the destination after the hop
  /// latency. Also updates both nodes' NIC counters and the tap.
  /// `record_tap = false` keeps the message off the passive tap — used by
  /// out-of-band traffic (log shipping) that SysViz's port mirror would not
  /// see as part of the request flow.
  ///
  /// Under chaos faults the send may be eaten by the wire — see SendOutcome.
  /// The source NIC is always charged (the bytes left the host); the
  /// destination NIC and the tap only see messages that actually arrive.
  SendOutcome send(std::uint16_t src, std::uint16_t dst, std::uint64_t conn,
                   std::uint64_t req_id, Message::Kind kind,
                   std::uint32_t bytes, Deliver deliver,
                   bool record_tap = true);

  /// Enables per-hop latency jitter after construction (the Testbed owns the
  /// Network; fleet wiring configures jitter when it builds the tree).
  void set_jitter(SimTime jitter, std::uint64_t seed) {
    cfg_.jitter = jitter;
    cfg_.seed = seed;
  }

  /// Pins the RNG stream tag of a node's jitter draws. Multi-node runs pass
  /// a tag derived from the node's *topology identity* (its name — see
  /// fleet::Topology::node_stream), never the registration-order wire id:
  /// with name-derived tags a node replays the same jitter sequence even
  /// when other nodes join or leave the fleet. Unpinned nodes fall back to
  /// their wire id as the tag.
  void seed_node_stream(std::uint16_t wire, std::uint64_t stream_tag);

  // --- chaos fault plane ----------------------------------------------------

  /// Per-directed-link loss probabilities for a loss storm.
  struct LinkLoss {
    double data = 0.0;  ///< P(payload dropped on the wire)
    double ack = 0.0;   ///< P(payload arrives but the ack is lost)
  };

  /// Cuts (or heals) the link between two nodes, both directions — a
  /// network partition along that edge. Cutting is idempotent.
  void set_link_down(std::uint16_t a, std::uint16_t b, bool down);

  /// Marks a node unreachable in both directions: its process crashed or
  /// its NIC went dark. Every link touching it reports down.
  void set_node_down(std::uint16_t wire, bool down);

  /// Installs loss probabilities on the directed link src -> dst (both set
  /// to 0 removes the entry). Draws come from the *sending node's* private
  /// chaos RNG stream — keyed by the node's pinned stream tag, a different
  /// split than its jitter stream — so a loss storm replays bit-identically
  /// for a given plan seed and never perturbs jitter replay.
  void set_link_loss(std::uint16_t src, std::uint16_t dst, LinkLoss loss);

  /// Adds a bounded clock-skew penalty to every send *from* `wire`: the
  /// node's clock runs ahead/behind, so its transmissions land `extra` usec
  /// later than an in-sync node's would. 0 removes the skew.
  void set_send_skew(std::uint16_t wire, SimTime extra);

  /// False while the link is cut by a partition or either endpoint is down.
  /// Reliable senders poll this to hold transfers back instead of burning
  /// retries into abandonment while a peer is unreachable.
  [[nodiscard]] bool link_up(std::uint16_t src, std::uint16_t dst) const;

  /// Lifetime counters of the fault plane (for meta gauges / tests).
  struct FaultStats {
    std::uint64_t dropped_sends = 0;  ///< payloads eaten by the wire
    std::uint64_t dropped_bytes = 0;
    std::uint64_t lost_acks = 0;  ///< delivered payloads whose ack was lost
  };
  [[nodiscard]] const FaultStats& fault_stats() const { return fault_stats_; }

  [[nodiscard]] SimTime latency() const { return cfg_.latency; }
  [[nodiscard]] SimTime jitter() const { return cfg_.jitter; }

 private:
  /// The sending node's private jitter stream, created on first draw.
  util::Rng& jitter_rng(std::uint16_t src);
  /// The sending node's private chaos-loss stream, created on first draw.
  util::Rng& loss_rng(std::uint16_t src);
  [[nodiscard]] static std::pair<std::uint16_t, std::uint16_t> edge(
      std::uint16_t a, std::uint16_t b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }
  void ensure_per_node_sizes();

  Simulation& sim_;
  Config cfg_;
  MessageTap* tap_ = nullptr;
  std::vector<Node*> nodes_;
  /// Per-node jitter streams + their tags, indexed by wire id (lazily
  /// sized; entries are null until a node's first jittered send).
  std::vector<std::unique_ptr<util::Rng>> jitter_rngs_;
  std::vector<std::uint64_t> stream_tags_;
  std::uint64_t next_conn_ = 1;

  // Fault plane (empty/false on a healthy network).
  bool faults_possible_ = false;  ///< any fault ever configured this run
  std::map<std::pair<std::uint16_t, std::uint16_t>, bool> cut_links_;
  std::vector<char> node_down_;
  std::map<std::pair<std::uint16_t, std::uint16_t>, LinkLoss> link_loss_;
  std::vector<SimTime> send_skew_;
  std::vector<std::unique_ptr<util::Rng>> loss_rngs_;
  FaultStats fault_stats_;
};

}  // namespace mscope::sim
