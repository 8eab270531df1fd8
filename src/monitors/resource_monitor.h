#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "logging/facility.h"
#include "sim/node.h"
#include "sim/simulation.h"
#include "util/simtime.h"

namespace mscope::monitors {

using util::SimTime;

/// Base class for resource mScopeMonitors (paper Section III-A).
///
/// A resource monitor is a periodic sampler: every `interval` it reads the
/// node's cumulative counters, computes deltas (exactly like a real tool
/// reading /proc), renders its tool-specific format, and appends to its log
/// file. milliScope runs these at millisecond-scale intervals — the paper's
/// whole point is that 1-second sampling misses very short bottlenecks.
class ResourceMonitor {
 public:
  struct Config {
    SimTime interval = 50 * util::kMsec;
    SimTime cpu_per_sample = 40;  ///< modeled cost of one sampling pass
    SimTime start_at = 0;
  };

  ResourceMonitor(sim::Simulation& sim, sim::Node& node,
                  logging::LoggingFacility& facility, Config cfg);
  virtual ~ResourceMonitor() = default;

  ResourceMonitor(const ResourceMonitor&) = delete;
  ResourceMonitor& operator=(const ResourceMonitor&) = delete;

  /// Starts periodic sampling (writes the tool's banner/header first).
  void start();
  /// Stops at the next tick.
  void stop() { running_ = false; }
  /// Writes any trailing output the tool's format needs (e.g. closing XML
  /// tags) so the file is complete before the transformer reads it.
  /// Idempotent; also invoked from the destructor.
  virtual void finalize() {}

  [[nodiscard]] std::uint64_t samples() const { return samples_; }
  [[nodiscard]] const Config& config() const { return cfg_; }

 protected:
  /// Renders the file banner/header once at start.
  virtual void write_banner() = 0;
  /// Renders one sample given the previous and current counter snapshots.
  virtual void write_sample(const sim::Node::Counters& prev,
                            const sim::Node::Counters& cur) = 0;

  sim::Simulation& sim_;
  sim::Node& node_;
  logging::LoggingFacility& facility_;
  Config cfg_;

 private:
  void tick();

  sim::Node::Counters prev_{};
  bool running_ = false;
  std::uint64_t samples_ = 0;
};

/// SAR mScopeMonitor: CPU utilization. Two output paths, as in the paper —
/// classic text (handled by a custom parser) or XML (the upgraded path,
/// read by its own streaming scanner).
class SarMonitor final : public ResourceMonitor {
 public:
  enum class Output { kText, kXml };

  SarMonitor(sim::Simulation& sim, sim::Node& node,
             logging::LoggingFacility& facility, Config cfg, Output output);
  ~SarMonitor() override;

  void finalize() override;

  [[nodiscard]] static std::string log_name(Output o) {
    return o == Output::kText ? "sar_cpu.log" : "sar_cpu.xml";
  }

 protected:
  void write_banner() override;
  void write_sample(const sim::Node::Counters& prev,
                    const sim::Node::Counters& cur) override;

 private:
  Output output_;
  logging::LogFile* file_;
  int rows_since_header_ = 0;
  bool finalized_ = false;
};

/// IOstat mScopeMonitor: disk activity in `iostat -dk`-style blocks.
class IostatMonitor final : public ResourceMonitor {
 public:
  IostatMonitor(sim::Simulation& sim, sim::Node& node,
                logging::LoggingFacility& facility, Config cfg);

  [[nodiscard]] static std::string log_name() { return "iostat.log"; }

 protected:
  void write_banner() override;
  void write_sample(const sim::Node::Counters& prev,
                    const sim::Node::Counters& cur) override;

 private:
  logging::LogFile* file_;
};

/// Collectl mScopeMonitor: CPU + disk + memory subsystems, CSV ("-P") or
/// plain brief mode.
class CollectlMonitor final : public ResourceMonitor {
 public:
  enum class Output { kCsv, kPlain };

  CollectlMonitor(sim::Simulation& sim, sim::Node& node,
                  logging::LoggingFacility& facility, Config cfg,
                  Output output);

  [[nodiscard]] static std::string log_name(Output o) {
    return o == Output::kCsv ? "collectl.csv" : "collectl.log";
  }

 protected:
  void write_banner() override;
  void write_sample(const sim::Node::Counters& prev,
                    const sim::Node::Counters& cur) override;

 private:
  Output output_;
  logging::LogFile* file_;
};

}  // namespace mscope::monitors
