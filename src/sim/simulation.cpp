#include "sim/simulation.h"

#include <limits>
#include <stdexcept>
#include <utility>

namespace mscope::sim {

void Simulation::schedule(SimTime delay, Callback cb) {
  if (delay < 0) throw std::invalid_argument("Simulation::schedule: delay < 0");
  schedule_at(now_ + delay, std::move(cb));
}

void Simulation::schedule_at(SimTime t, Callback cb) {
  if (t < now_)
    throw std::invalid_argument("Simulation::schedule_at: time in the past");
  if (!cb)
    throw std::invalid_argument("Simulation::schedule_at: empty callback");
  std::uint32_t slot = 0;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(cb);
  } else {
    if (slab_.size() >= std::numeric_limits<std::uint32_t>::max())
      throw std::length_error("Simulation::schedule_at: too many events");
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(cb));
  }
  queue_.push({t, next_seq_++, slot});
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  const Key top = queue_.top();
  queue_.pop();
  now_ = top.time;
  ++executed_;
  // The callback leaves the slab before it runs: what it schedules may grow
  // (and so move) the slab, or reuse this very slot.
  Callback cb = std::move(slab_[top.slot]);
  free_slots_.push_back(top.slot);
  cb();
  return true;
}

void Simulation::run_until(SimTime until) {
  while (!queue_.empty() && queue_.top().time <= until) {
    step();
  }
  if (now_ < until) now_ = until;
}

}  // namespace mscope::sim
