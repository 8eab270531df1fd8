#pragma once

// Shared scaffolding for the figure-reproduction benches. Each bench binary
// regenerates one figure of the paper's evaluation: it runs the simulated
// RUBBoS testbed, pushes the logs through the real transformation pipeline
// where the figure needs warehouse data, prints the series the paper plots,
// and finishes with SHAPE checks — the qualitative claims the figure makes.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "core/milliscope.h"
#include "util/stats.h"

namespace mscope::bench {

inline int g_checks_failed = 0;

/// Prints and tallies a shape check.
inline void check(bool ok, const std::string& what) {
  std::printf("SHAPE %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++g_checks_failed;
}

/// Prints a (time, value) series as two tab-separated columns.
inline void print_series(const std::string& header, const util::Series& s,
                         int decimals = 2) {
  std::printf("# %s\n", header.c_str());
  for (const auto& p : s) {
    std::printf("%.3f\t%.*f\n", util::to_sec(p.time), decimals, p.value);
  }
}

/// Prints a series restricted to [t0, t1).
inline void print_series_window(const std::string& header,
                                const util::Series& s, util::SimTime t0,
                                util::SimTime t1, int decimals = 2) {
  util::Series cut;
  for (const auto& p : s) {
    if (p.time >= t0 && p.time < t1) cut.push_back(p);
  }
  print_series(header, cut, decimals);
}

inline double series_max(const util::Series& s) {
  double m = 0;
  for (const auto& p : s) m = std::max(m, p.value);
  return m;
}

inline double series_max_in(const util::Series& s, util::SimTime t0,
                            util::SimTime t1) {
  double m = 0;
  for (const auto& p : s) {
    if (p.time >= t0 && p.time < t1) m = std::max(m, p.value);
  }
  return m;
}

/// Scratch directory for a bench's log artifacts:
/// <system temp dir>/mscope_bench_<name>_<pid>, so two runs of one bench
/// never share a log directory. Every directory handed out is removed when
/// the process exits normally. Nothing is created here.
inline std::filesystem::path bench_dir(const std::string& name) {
  struct RemoveAtExit {
    std::vector<std::filesystem::path> dirs;
    ~RemoveAtExit() {
      for (const auto& d : dirs) {
        std::error_code ec;  // best effort: a leftover dir is not an error
        std::filesystem::remove_all(d, ec);
      }
    }
  };
  static RemoveAtExit cleanup;
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("mscope_bench_" + name + "_" + std::to_string(::getpid()));
  cleanup.dirs.push_back(dir);
  return dir;
}

/// Standard exit: non-zero if any shape check failed.
inline int finish(const std::string& bench) {
  std::printf("== %s: %s ==\n", bench.c_str(),
              g_checks_failed == 0 ? "all shape checks passed"
                                   : "SHAPE CHECKS FAILED");
  return g_checks_failed == 0 ? 0 : 1;
}

}  // namespace mscope::bench
