#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/simtime.h"

namespace mscope::obs {

/// Pipeline span tracer: RAII scoped spans over the collect -> ship ->
/// transform -> import -> query stages, exported as Chrome trace-event JSON
/// (loadable in about://tracing / Perfetto).
///
/// The clock is injected, never hardwired: this framework runs on virtual
/// time, so the collection pipeline hands the tracer its Simulation's clock and
/// every span lands on the same timeline as the run itself — a span's `ts`
/// is *where in the experiment* the work happened. Because a discrete-event
/// callback executes at one frozen virtual instant, a scoped span also
/// measures the host's wall-clock cost of the enclosed code (`wall_usec`):
/// the virtual timeline says *when*, the wall duration says *what it cost*
/// — which is exactly the pair a profiling pass needs. Asynchronous stages
/// whose virtual duration is real (a batch's network flight, a modeled CPU
/// charge) are recorded with explicit begin/end times via record().
///
/// Not thread-safe by design: the tracer lives inside the single-threaded
/// simulation loop (the concurrent-writer substrate is obs::Registry).
/// Bounded: past `max_spans`, new spans are dropped and counted, never
/// reallocating without bound on a runaway pipeline.
class Tracer {
 public:
  using Clock = std::function<util::SimTime()>;

  struct Config {
    std::size_t max_spans = 1 << 20;
  };

  struct SpanRecord {
    std::string name;
    std::string track;  ///< Chrome "thread": one lane per pipeline stage/node
    util::SimTime begin = 0;
    util::SimTime end = -1;       ///< -1 while still open
    std::int64_t wall_usec = -1;  ///< host cost of scoped spans; -1 = n/a
    int depth = 0;                ///< nesting depth at creation
  };

  /// RAII handle: closes its span (stamping end time and wall cost) on
  /// destruction. Movable so spans can be returned/stored; an inert handle
  /// (from a full tracer, or moved-from) closes nothing.
  class Span {
   public:
    Span() = default;
    Span(Span&& o) noexcept
        : tracer_(std::exchange(o.tracer_, nullptr)),
          idx_(o.idx_),
          wall_begin_(o.wall_begin_) {}
    Span& operator=(Span&&) = delete;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { close(); }

    /// Closes early (before scope exit). Idempotent.
    void close();

   private:
    friend class Tracer;
    Span(Tracer* t, std::size_t idx)
        : tracer_(t),
          idx_(idx),
          wall_begin_(std::chrono::steady_clock::now()) {}

    Tracer* tracer_ = nullptr;
    std::size_t idx_ = 0;
    std::chrono::steady_clock::time_point wall_begin_;
  };

  explicit Tracer(Clock clock) : clock_(std::move(clock)) {}
  Tracer(Clock clock, Config cfg) : clock_(std::move(clock)), cfg_(cfg) {}

  /// Opens a scoped span at clock() on `track`.
  [[nodiscard]] Span span(std::string name, std::string track = "pipeline");

  /// Records a completed span with explicit virtual times (asynchronous
  /// stages: batch flight, modeled CPU intervals).
  void record(std::string name, std::string track, util::SimTime begin,
              util::SimTime end);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Currently open scoped spans (nesting depth of the next span).
  [[nodiscard]] std::size_t open_depth() const { return open_.size(); }

  /// Chrome trace-event JSON ({"traceEvents": [...]}): one "X" (complete)
  /// event per closed span, `ts`/`dur` in microseconds on the virtual
  /// timeline, one Chrome "thread" per track (named via "M" metadata
  /// events), host cost in args.wall_us. Open spans are not exported.
  [[nodiscard]] std::string to_chrome_json() const;

  /// Writes to_chrome_json() to `path` (temp file + rename not needed: the
  /// trace is an export artifact, not a durability surface).
  void save_chrome_json(const std::filesystem::path& path) const;

 private:
  void close_span(std::size_t idx,
                  std::chrono::steady_clock::time_point wall_begin);

  Clock clock_;
  Config cfg_;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;  ///< indices of open scoped spans
  std::uint64_t dropped_ = 0;
};

}  // namespace mscope::obs
