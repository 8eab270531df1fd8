#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/simulation.h"

namespace mscope::sim {

class Node;

/// How CPU busy time is accounted — mirrors the user/system split that SAR
/// and Collectl report. Monitoring/logging overhead is charged as kSystem so
/// the overhead evaluation (paper Fig. 10) can separate it out.
enum class CpuCategory { kUser, kSystem };

/// Scheduling priority for CPU jobs. The kernel page-flusher runs at kKernel
/// priority, which is how dirty-page recycling starves request processing in
/// scenario B (paper Fig. 8).
enum class CpuPriority { kKernel = 0, kNormal = 1 };

/// Multi-core CPU with a priority-then-FIFO run queue.
///
/// A job occupies one core for its entire demand (request service demands in
/// an n-tier system are sub-millisecond, so slicing them would add events
/// without changing queueing behaviour). Busy time is accounted per category,
/// and every busy-core-count change is reported to the owning Node for exact
/// iowait/idle bookkeeping.
class Cpu {
 public:
  Cpu(Simulation& sim, Node& node, int cores);

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  /// Submits a job needing `demand` core-microseconds; `done` fires at
  /// completion. Zero-demand jobs complete immediately (still via the queue
  /// discipline if cores are saturated).
  void submit(SimTime demand, CpuCategory cat, CpuPriority prio, Callback done);

  /// Convenience: normal-priority user job.
  void submit(SimTime demand, Callback done) {
    submit(demand, CpuCategory::kUser, CpuPriority::kNormal, std::move(done));
  }

  [[nodiscard]] int cores() const { return cores_; }
  [[nodiscard]] int busy_cores() const { return busy_; }
  [[nodiscard]] int queue_length() const {
    return static_cast<int>(kernel_q_.size() + normal_q_.size());
  }

  /// Cumulative busy core-microseconds per category, accrued continuously
  /// (a job contributes to the window it *runs in*, not the one it finishes
  /// in — so a sampling monitor never reads more than 100% busy).
  [[nodiscard]] SimTime busy_user() const {
    return busy_user_ + in_progress(CpuCategory::kUser);
  }
  [[nodiscard]] SimTime busy_system() const {
    return busy_system_ + in_progress(CpuCategory::kSystem);
  }

 private:
  struct Job {
    SimTime demand = 0;
    CpuCategory cat = CpuCategory::kUser;
    Callback done;
  };

  void start(SimTime demand, CpuCategory cat, Callback done);
  void finish(int core);
  void pump();
  void accrue();
  [[nodiscard]] SimTime in_progress(CpuCategory cat) const;

  Simulation& sim_;
  Node& node_;
  int cores_;
  int busy_ = 0;
  int running_user_ = 0;    ///< cores currently running user jobs
  int running_system_ = 0;  ///< cores currently running system jobs
  SimTime last_accrue_ = 0;
  SimTime busy_user_ = 0;
  SimTime busy_system_ = 0;
  std::deque<Job> kernel_q_;
  std::deque<Job> normal_q_;
  /// running_[core]: the job that core runs. Its completion event carries
  /// only the core index, so the event's closure never nests `done`.
  std::vector<Job> running_;
  std::vector<int> idle_cores_;
};

}  // namespace mscope::sim
