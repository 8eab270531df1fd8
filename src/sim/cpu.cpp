#include "sim/cpu.h"

#include <stdexcept>
#include <utility>

#include "sim/node.h"

namespace mscope::sim {

Cpu::Cpu(Simulation& sim, Node& node, int cores)
    : sim_(sim), node_(node), cores_(cores) {
  if (cores < 1) throw std::invalid_argument("Cpu: cores < 1");
  running_.resize(static_cast<std::size_t>(cores_));
  for (int c = cores_ - 1; c >= 0; --c) idle_cores_.push_back(c);
}

void Cpu::accrue() {
  const SimTime now = sim_.now();
  const SimTime dt = now - last_accrue_;
  if (dt > 0) {
    busy_user_ += dt * running_user_;
    busy_system_ += dt * running_system_;
  }
  last_accrue_ = now;
}

SimTime Cpu::in_progress(CpuCategory cat) const {
  const SimTime dt = sim_.now() - last_accrue_;
  if (dt <= 0) return 0;
  return dt * (cat == CpuCategory::kUser ? running_user_ : running_system_);
}

void Cpu::submit(SimTime demand, CpuCategory cat, CpuPriority prio,
                 Callback done) {
  if (demand < 0) throw std::invalid_argument("Cpu::submit: demand < 0");
  if (busy_ < cores_) {
    start(demand, cat, std::move(done));
    return;
  }
  auto& q = prio == CpuPriority::kKernel ? kernel_q_ : normal_q_;
  q.push_back(Job{demand, cat, std::move(done)});
}

void Cpu::start(SimTime demand, CpuCategory cat, Callback done) {
  accrue();
  ++busy_;
  if (cat == CpuCategory::kUser) {
    ++running_user_;
  } else {
    ++running_system_;
  }
  node_.on_cpu_busy_changed(busy_);
  // The job waits on its core; the core frees when the completion fires.
  const int core = idle_cores_.back();
  idle_cores_.pop_back();
  Job& job = running_[static_cast<std::size_t>(core)];
  job.cat = cat;
  job.done = std::move(done);
  sim_.schedule(demand, [this, core] { finish(core); });
}

void Cpu::finish(int core) {
  Job& job = running_[static_cast<std::size_t>(core)];
  const CpuCategory cat = job.cat;
  Callback done = std::move(job.done);
  idle_cores_.push_back(core);
  accrue();
  --busy_;
  if (cat == CpuCategory::kUser) {
    --running_user_;
  } else {
    --running_system_;
  }
  node_.on_cpu_busy_changed(busy_);
  // Run the completion before pulling the next job so the completing request
  // can immediately enqueue follow-on work at the queue tail.
  if (done) done();
  pump();
}

void Cpu::pump() {
  while (busy_ < cores_) {
    auto& q = !kernel_q_.empty() ? kernel_q_ : normal_q_;
    if (q.empty()) break;
    Job j = std::move(q.front());
    q.pop_front();
    start(j.demand, j.cat, std::move(j.done));
  }
}

}  // namespace mscope::sim
