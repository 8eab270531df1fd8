#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace mscopebench {

/// Current value of every obs::Registry counter and gauge, by name.
[[nodiscard]] std::map<std::string, double> registry_values();

/// The benchmark's own span recorder: one span per public call the benchmark
/// makes into a milliScope layer (name, host start/end, parent), plus the
/// deltas of the process-wide obs::Registry counters across the call. Spans
/// live in memory and are written out once, at exit. A disabled tracer
/// records nothing, so untraced runs pay one branch per call.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    int parent = -1;  ///< index into spans(); -1 for a root span
    Clock::time_point start;
    Clock::time_point end;
    std::map<std::string, double> counters;  ///< registry deltas, non-zero

    [[nodiscard]] double seconds() const {
      return std::chrono::duration<double>(end - start).count();
    }
  };

  /// Closes its span on destruction (or earlier, via close()).
  class Scope {
   public:
    Scope(Tracer& t, std::string name);
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void close();

   private:
    Tracer* tracer_;
    int index_ = -1;
    std::map<std::string, double> before_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the time its direct children cover (children of one
  /// span never overlap: the benchmark is single-threaded).
  [[nodiscard]] double self_seconds(std::size_t i) const;
  /// Total duration of every span with this name.
  [[nodiscard]] double total_seconds(const std::string& name) const;

  /// JSON array of spans, times in seconds from the first span's start.
  void write_json(std::ostream& os) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indexes
};

}  // namespace mscopebench
