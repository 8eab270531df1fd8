#include "sim/disk.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "sim/node.h"

namespace mscope::sim {

Disk::Disk(Simulation& sim, Node& node, Config cfg)
    : sim_(sim), node_(node), cfg_(cfg) {
  if (cfg.bandwidth_mbps <= 0)
    throw std::invalid_argument("Disk: bandwidth <= 0");
  if (cfg.per_op < 0) throw std::invalid_argument("Disk: per_op < 0");
}

SimTime Disk::service_time(std::uint64_t bytes) const {
  const double usec_per_byte = 1.0 / (cfg_.bandwidth_mbps * 1e6 / 1e6);
  // bandwidth_mbps MB/s == bandwidth_mbps bytes/usec.
  const double transfer = static_cast<double>(bytes) / cfg_.bandwidth_mbps;
  (void)usec_per_byte;
  const SimTime healthy =
      cfg_.per_op + static_cast<SimTime>(std::llround(transfer));
  if (degradation_ == 1.0) return healthy;
  return static_cast<SimTime>(
      std::llround(static_cast<double>(healthy) * degradation_));
}

void Disk::submit(std::uint64_t bytes, bool is_write, Callback done) {
  Op op{bytes, is_write, std::move(done)};
  if (!busy_) {
    start(std::move(op));
  } else {
    queue_.push_back(std::move(op));
  }
}

void Disk::start(Op op) {
  busy_ = true;
  node_.on_disk_busy_changed(true);
  const SimTime st = service_time(op.bytes);
  in_service_ = std::move(op);
  sim_.schedule(st, [this, st] { complete(st); });
}

void Disk::complete(SimTime st) {
  Op op = std::move(in_service_);
  busy_time_ += st;
  ++ops_;
  if (op.is_write) {
    bytes_written_ += op.bytes;
  } else {
    bytes_read_ += op.bytes;
  }
  // With ops queued the spindle passes straight to the next one; otherwise
  // it idles, and a submit from the completion below starts at once.
  const bool hand_off = !queue_.empty();
  if (!hand_off) {
    busy_ = false;
    node_.on_disk_busy_changed(false);
  }
  // Completion runs before the next op starts so a dependent submit lands
  // behind everything already queued — FIFO is preserved.
  if (op.done) op.done();
  if (hand_off) {
    Op next = std::move(queue_.front());
    queue_.pop_front();
    // start() toggles busy/notifications idempotently.
    busy_ = false;
    start(std::move(next));
  }
}

}  // namespace mscope::sim
