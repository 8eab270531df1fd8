#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace mscopebench {

/// One benchmark iteration: one workload, one seed, one process.
struct Options {
  std::string workload;  ///< fleet_stream | online_durable | batch_query
  std::uint64_t seed = 1;
  bool smoke = false;  ///< CI-sized inputs (selftest.py)
  std::filesystem::path dir;  ///< private scratch dir (logs, WAL, snapshots)
};

struct Result {
  std::map<std::string, double> metrics;
  std::vector<double> query_ms;  ///< per-query latency, in the order sent
  int checks_run = 0;
  int checks_failed = 0;
  std::vector<std::string> failures;  ///< the first few failed checks
};

/// Runs the workload's set-up and timed sequence with `tracer` recording
/// spans around every call into the program; when the tracer is enabled,
/// also the per-layer reference passes and probes that follow it.
[[nodiscard]] Result run_iteration(const Options& o, Tracer& tracer);

}  // namespace mscopebench
