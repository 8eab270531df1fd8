#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace mscope::util {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double percentile(std::span<const double> values, double q) {
  if (values.empty()) return 0.0;
  if (q < 0.0 || q > 100.0)
    throw std::invalid_argument("percentile: q out of [0,100]");
  std::vector<double> v(values.begin(), values.end());
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return v[0];
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double pearson(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size())
    throw std::invalid_argument("pearson: size mismatch");
  const std::size_t n = x.size();
  if (n < 2) return 0.0;
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

namespace {

std::map<SimTime, RunningStats> bucketize(const Series& s, SimTime bucket) {
  std::map<SimTime, RunningStats> out;
  for (const auto& p : s) {
    // Floor division so negative times (never expected, but cheap to handle)
    // still bucket consistently.
    SimTime b = p.time / bucket;
    if (p.time < 0 && p.time % bucket != 0) --b;
    out[b].add(p.value);
  }
  return out;
}

}  // namespace

double correlate_series(const Series& a, const Series& b, SimTime bucket) {
  if (bucket <= 0) throw std::invalid_argument("correlate_series: bucket <= 0");
  const auto ba = bucketize(a, bucket);
  const auto bb = bucketize(b, bucket);
  std::vector<double> xs, ys;
  for (const auto& [k, sa] : ba) {
    const auto it = bb.find(k);
    if (it == bb.end()) continue;
    xs.push_back(sa.mean());
    ys.push_back(it->second.mean());
  }
  if (xs.size() < 2) return 0.0;
  return pearson(xs, ys);
}

Series rebucket(const Series& in, SimTime bucket, BucketOp op) {
  if (bucket <= 0) throw std::invalid_argument("rebucket: bucket <= 0");
  Series out;
  std::map<SimTime, std::vector<double>> buckets;
  for (const auto& p : in) {
    SimTime b = p.time / bucket;
    if (p.time < 0 && p.time % bucket != 0) --b;
    buckets[b].push_back(p.value);
  }
  out.reserve(buckets.size());
  for (const auto& [b, vals] : buckets) {
    double v = 0.0;
    switch (op) {
      case BucketOp::kMean: {
        for (double x : vals) v += x;
        v /= static_cast<double>(vals.size());
        break;
      }
      case BucketOp::kMax:
        v = *std::max_element(vals.begin(), vals.end());
        break;
      case BucketOp::kMin:
        v = *std::min_element(vals.begin(), vals.end());
        break;
      case BucketOp::kLast:
        v = vals.back();
        break;
      case BucketOp::kSum: {
        for (double x : vals) v += x;
        break;
      }
      case BucketOp::kCount:
        v = static_cast<double>(vals.size());
        break;
    }
    out.push_back({b * bucket, v});
  }
  return out;
}

LaggedCorrelation max_lagged_correlation(const Series& a, const Series& b,
                                         SimTime bucket, SimTime max_lag) {
  if (bucket <= 0)
    throw std::invalid_argument("max_lagged_correlation: bucket <= 0");
  LaggedCorrelation best;
  bool first = true;
  for (SimTime lag = -max_lag; lag <= max_lag; lag += bucket) {
    Series shifted;
    shifted.reserve(b.size());
    for (const auto& p : b) shifted.push_back({p.time - lag, p.value});
    const double c = correlate_series(a, shifted, bucket);
    if (first || c > best.correlation) {
      best = {c, lag};
      first = false;
    }
  }
  return best;
}

Series integrate_deltas(Series deltas, SimTime bucket, SimTime t_begin,
                        SimTime t_end) {
  if (bucket <= 0) throw std::invalid_argument("integrate_deltas: bucket <= 0");
  if (t_end <= t_begin) return {};
  std::stable_sort(
      deltas.begin(), deltas.end(),
      [](const Sample& a, const Sample& b) { return a.time < b.time; });
  Series out;
  out.reserve(static_cast<std::size_t>((t_end - t_begin) / bucket) + 1);
  double level = 0.0;
  std::size_t i = 0;
  // Events before the window establish the starting level.
  while (i < deltas.size() && deltas[i].time < t_begin) {
    level += deltas[i].value;
    ++i;
  }
  for (SimTime t = t_begin; t < t_end; t += bucket) {
    const SimTime bucket_end = t + bucket;
    double peak = level;
    while (i < deltas.size() && deltas[i].time < bucket_end) {
      level += deltas[i].value;
      peak = std::max(peak, level);
      ++i;
    }
    out.push_back({t, peak});
  }
  return out;
}

double slope_per_sec(std::span<const Sample> s) {
  if (s.size() < 2) return 0.0;
  double mt = 0, mv = 0;
  for (const auto& p : s) {
    mt += to_sec(p.time);
    mv += p.value;
  }
  mt /= static_cast<double>(s.size());
  mv /= static_cast<double>(s.size());
  double num = 0, den = 0;
  for (const auto& p : s) {
    const double dt = to_sec(p.time) - mt;
    num += dt * (p.value - mv);
    den += dt * dt;
  }
  if (den <= 0.0) return 0.0;
  return num / den;
}

}  // namespace mscope::util
