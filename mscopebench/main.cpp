// mscopebench: one iteration of one mScopeBench workload, as one process.
//
//   mscopebench --workload fleet_stream|online_durable|batch_query
//               --seed N --tmp DIR [--trace 0|1] [--spans FILE] [--smoke]
//
// Logs, the WAL and snapshots go to DIR/mscopebench-<pid>-<workload>-<seed>,
// which is removed at exit. Prints one JSON object: the iteration's
// metrics, every query latency, and the output checks. run.py repeats
// iterations and reports medians; see BENCHMARK.json.

#include <unistd.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "trace.h"
#include "workloads.h"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

/// Removes the iteration's scratch directory however main() exits.
struct ScratchDir {
  std::filesystem::path path;
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

int usage() {
  std::fprintf(stderr,
               "usage: mscopebench --workload NAME --seed N --tmp DIR "
               "[--trace 0|1] [--spans FILE] [--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  mscopebench::Options o;
  bool trace = false;
  std::string spans_file;
  std::filesystem::path tmp;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::stoull(argv[++i]);
    } else if (a == "--trace" && has_value) {
      trace = std::string(argv[++i]) == "1";
    } else if (a == "--spans" && has_value) {
      spans_file = argv[++i];
    } else if (a == "--tmp" && has_value) {
      tmp = argv[++i];
    } else {
      return usage();
    }
  }
  if (o.workload.empty() || tmp.empty()) return usage();

  const ScratchDir scratch{tmp / ("mscopebench-" + std::to_string(getpid()) +
                                  "-" + o.workload + "-" +
                                  std::to_string(o.seed))};
  o.dir = scratch.path;
  std::filesystem::create_directories(o.dir);

  mscopebench::Tracer tracer(trace);
  mscopebench::Result r;
  try {
    r = mscopebench::run_iteration(o, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mscopebench: %s\n", e.what());
    return 1;
  }
  if (trace && !spans_file.empty()) {
    std::ofstream out(spans_file);
    tracer.write_json(out);
  }

  std::printf("{\"metrics\":{");
  bool first = true;
  for (const auto& [name, value] : r.metrics) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(), value);
    first = false;
  }
  std::printf("},\"query_ms\":[");
  for (std::size_t i = 0; i < r.query_ms.size(); ++i) {
    std::printf("%s%.17g", i ? "," : "", r.query_ms[i]);
  }
  std::printf("],\"checks_run\":%d,\"checks_failed\":%d,\"failures\":[",
              r.checks_run, r.checks_failed);
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    std::printf("%s%s", i ? "," : "", json_string(r.failures[i]).c_str());
  }
  std::printf("]}\n");
  return 0;
}
