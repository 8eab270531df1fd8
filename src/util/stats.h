#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/simtime.h"

namespace mscope::util {

/// Welford online accumulator for mean/variance/min/max.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Merge another accumulator into this one (parallel Welford).
  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// A time-stamped scalar sample; the common currency of all analyses.
struct Sample {
  SimTime time = 0;
  double value = 0.0;
};

/// A time series of samples ordered by time.
using Series = std::vector<Sample>;

/// Exact percentile (q in [0,100]) by sorting a copy; linear interpolation
/// between order statistics.
[[nodiscard]] double percentile(std::span<const double> values, double q);

/// Pearson correlation coefficient of two equal-length vectors.
/// Returns 0 when either side has zero variance.
[[nodiscard]] double pearson(std::span<const double> x,
                             std::span<const double> y);

/// Aligns two series onto common time buckets of width `bucket` (taking the
/// mean within each bucket) and returns the Pearson correlation of the
/// aligned values. Buckets present in only one series are dropped.
[[nodiscard]] double correlate_series(const Series& a, const Series& b,
                                      SimTime bucket);

/// Re-buckets a series: one output sample per bucket containing the
/// mean/max/min/last/sum/count of input samples in that bucket (floor
/// division of time by `bucket`), in one pass over `in`, which must be
/// ordered by time. Throws std::invalid_argument when bucket <= 0 or a
/// sample falls in an earlier bucket than the sample before it.
enum class BucketOp { kMean, kMax, kMin, kLast, kSum, kCount };
[[nodiscard]] Series rebucket(const Series& in, SimTime bucket, BucketOp op);

/// Linear regression slope of value against time (per second) — used by the
/// pushback detector to test whether a queue is *growing* inside a window.
/// Accepts a span so callers can pass a window slice of a larger series
/// without copying.
[[nodiscard]] double slope_per_sec(std::span<const Sample> s);

/// Result of a lagged cross-correlation sweep.
struct LaggedCorrelation {
  double correlation = 0.0;
  SimTime lag = 0;  ///< positive: b lags a (a leads)
};

/// Sweeps lags in [-max_lag, +max_lag] (in steps of `bucket`) and returns
/// the lag at which shifting series `b` backwards by `lag` best correlates
/// with `a`. Queue symptoms lag their resource causes by the stall's drain
/// time, so the diagnosis evidence uses this rather than zero-lag Pearson.
[[nodiscard]] LaggedCorrelation max_lagged_correlation(const Series& a,
                                                       const Series& b,
                                                       SimTime bucket,
                                                       SimTime max_lag);

/// Integrates +1/-1 (or arbitrary) delta events into a level series sampled
/// once per bucket over [t_begin, t_end): each output sample holds the
/// *maximum* level reached during its bucket (levels persist across empty
/// buckets). This turns arrival/departure events into the per-tier
/// "instantaneous queue length" curves of the paper's Figs. 6, 8b and 9.
/// Deltas are stable-sorted by time first, so equal-time deltas apply in
/// the order given — which decides the peak a bucket reports.
[[nodiscard]] Series integrate_deltas(Series deltas, SimTime bucket,
                                      SimTime t_begin, SimTime t_end);

}  // namespace mscope::util
