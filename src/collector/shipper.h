#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "collector/reliable_link.h"
#include "collector/ring_buffer.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/simulation.h"

namespace mscope::collector {

using util::SimTime;

/// Per-node batch shipper: drains the ring buffer on a fixed cadence, frames
/// records into batches, and sends them across the simulated network to the
/// collector node — with retry + exponential backoff on transport faults.
///
/// Transfer is stop-and-wait (one ReliableLink transfer at a time), and no
/// new batch is assembled while one is retrying. That guarantees the
/// next hop sees each file's bytes in offset order (the property the
/// streaming transformer depends on) — the same in-order delivery a single
/// TCP connection would give a real collector. While a batch retries, the
/// ring buffer keeps absorbing new records, so transport faults turn into
/// backpressure rather than reordering.
///
/// Shipping is *not* free: every batch charges modeled CPU (serialization +
/// syscall) to the source node and real bytes to both NICs, so the cost of
/// online collection shows up in the same counters the paper uses for its
/// 1-3% monitor-overhead claim (Fig. 10) and can be measured the same way.
class Shipper {
 public:
  struct Config {
    SimTime interval = 20 * util::kMsec;   ///< drain cadence
    std::size_t max_batch_records = 64;    ///< records per batch
    std::size_t frame_overhead_bytes = 64; ///< wire framing per batch
    SimTime cpu_per_batch = 30;            ///< source-node CPU per send
    SimTime cpu_per_kb = 4;                ///< serialization cost per KB
    int max_retries = 10;                  ///< attempts before giving up
    SimTime backoff_base = 10 * util::kMsec;
    double backoff_factor = 2.0;
    SimTime start_at = 0;
  };

  struct Stats {
    std::uint64_t batches = 0;       ///< batches delivered
    std::uint64_t records = 0;       ///< records delivered
    std::uint64_t bytes = 0;         ///< payload bytes delivered
    std::uint64_t send_failures = 0; ///< attempts the fault injector killed
    std::uint64_t retries = 0;       ///< re-sends scheduled after a failure
    std::uint64_t abandoned = 0;     ///< batches dropped after max_retries
    std::uint64_t holds = 0;         ///< probe ticks spent peer-unreachable
    std::uint64_t reconnects = 0;    ///< epoch handshakes after peer restart
    std::uint64_t spurious = 0;      ///< ack-lost duplicates handed downstream
    std::uint64_t crash_lost_bytes = 0;  ///< in-flight bytes lost to crash()
    SimTime cpu_charged = 0;         ///< modeled source-node CPU spent
  };

  /// Receives a delivered batch at the collector side, taking ownership —
  /// the record buffers flow by move all the way into the streaming
  /// transformer's per-file accumulation (the zero-copy handoff the fast
  /// parse path reads in place). `in_band` is false only for the post-run
  /// flush, which bypasses the network (and cost model) because virtual
  /// time has stopped.
  using Sink = std::function<void(Batch&&, bool in_band)>;

  /// Transport fault hook: return true to fail this send attempt (models a
  /// lost/NACKed transfer). `attempt` is 0 for the first try of a batch.
  using FaultInjector = ReliableLink::FaultInjector;

  Shipper(sim::Simulation& sim, sim::Network& net, sim::Node& src_node,
          std::uint16_t src_wire, std::uint16_t dst_wire, RingBuffer& buffer,
          Sink sink, std::string node_name, Config cfg);

  /// Begins the periodic drain (call once, before the run; also restarts a
  /// crashed or stopped shipper).
  void start();
  /// Stops at the next tick.
  void stop() { running_ = false; }

  /// Simulates the shipping agent dying mid-transfer: the in-flight batch is
  /// dropped *without* delivery (its bytes lived in process memory) and the
  /// drain loop stops. The loss surfaces as an attributed gap at the next
  /// hop once the restarted agent ships past it. Restart with start().
  void crash();

  /// The underlying transfer link — lets the fleet wiring install the
  /// peer-incarnation probe and reconnect callback on this hop.
  [[nodiscard]] ReliableLink& link() { return link_; }

  void set_fault_injector(FaultInjector f) {
    link_.set_fault_injector(std::move(f));
  }
  /// Optional span tracer: each delivered batch becomes one span covering
  /// assembly -> acknowledgement (includes retry backoff). Not owned.
  void set_tracer(obs::Tracer* t) { tracer_ = t; }
  /// Invoked after each drain frees buffer space (lets a blocked tailer
  /// push its held-back records).
  void set_on_drain(std::function<void()> cb) { on_drain_ = std::move(cb); }

  /// Drains everything straight into the sink (end of run; no network
  /// modeling, virtual time has stopped): first the batch still in flight or
  /// awaiting a retry, if any, then everything left in the buffer.
  void flush_now();

  /// Delivered/failure counters, merged from the transfer link's view.
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const std::string& node_name() const { return node_name_; }

 private:
  void tick();
  /// Assembles up to max_batch_records from the buffer; empty if none.
  Batch assemble();
  void on_delivered();
  void on_abandoned();
  void deliver(Batch&& batch, bool in_band);

  sim::Simulation& sim_;
  RingBuffer& buffer_;
  Sink sink_;
  std::string node_name_;
  Config cfg_;
  ReliableLink link_;
  obs::Tracer* tracer_ = nullptr;
  std::function<void()> on_drain_;
  SimTime pending_since_ = 0;  ///< when the in-flight batch was assembled
  std::uint64_t next_seq_ = 0;
  bool running_ = false;
  /// The one unacknowledged batch (stop-and-wait); survives end-of-run so
  /// flush_now() can recover a transfer the clock cut off.
  std::unique_ptr<Batch> pending_;
  Stats stats_;
};

}  // namespace mscope::collector
