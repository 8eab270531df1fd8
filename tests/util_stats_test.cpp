#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace mscope::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10 + i;
    if (i % 2 == 0) a.add(x); else b.add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Percentile, MedianAndExtremes) {
  const std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> v{10, 20};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 15.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 12.5);
}

TEST(Percentile, EmptyAndBadQ) {
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  const std::vector<double> v{1.0};
  EXPECT_THROW((void)percentile(v, -1), std::invalid_argument);
  EXPECT_THROW((void)percentile(v, 101), std::invalid_argument);
}

TEST(Pearson, PerfectPositiveAndNegative) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> yp{2, 4, 6, 8};
  const std::vector<double> yn{8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, yp), 1.0, 1e-12);
  EXPECT_NEAR(pearson(x, yn), -1.0, 1e-12);
}

TEST(Pearson, ZeroVarianceGivesZero) {
  const std::vector<double> x{1, 1, 1};
  const std::vector<double> y{1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(Pearson, SizeMismatchThrows) {
  const std::vector<double> x{1, 2};
  const std::vector<double> y{1, 2, 3};
  EXPECT_THROW((void)pearson(x, y), std::invalid_argument);
}

TEST(CorrelateSeries, AlignsOnBuckets) {
  Series a, b;
  for (int i = 0; i < 100; ++i) {
    a.push_back({msec(i * 10), static_cast<double>(i)});
    b.push_back({msec(i * 10) + 3, static_cast<double>(2 * i)});
  }
  EXPECT_NEAR(correlate_series(a, b, msec(10)), 1.0, 1e-9);
}

TEST(CorrelateSeries, DisjointBucketsGiveZero) {
  Series a{{0, 1.0}, {msec(10), 2.0}};
  Series b{{msec(100), 1.0}, {msec(110), 2.0}};
  EXPECT_DOUBLE_EQ(correlate_series(a, b, msec(10)), 0.0);
}

TEST(Rebucket, MeanMaxCount) {
  Series s{{0, 1.0}, {1, 3.0}, {msec(1), 10.0}};
  const auto mean = rebucket(s, msec(1), BucketOp::kMean);
  ASSERT_EQ(mean.size(), 2u);
  EXPECT_DOUBLE_EQ(mean[0].value, 2.0);
  EXPECT_DOUBLE_EQ(mean[1].value, 10.0);
  const auto mx = rebucket(s, msec(1), BucketOp::kMax);
  EXPECT_DOUBLE_EQ(mx[0].value, 3.0);
  const auto cnt = rebucket(s, msec(1), BucketOp::kCount);
  EXPECT_DOUBLE_EQ(cnt[0].value, 2.0);
  EXPECT_DOUBLE_EQ(cnt[1].value, 1.0);
}

TEST(Rebucket, BadBucketThrows) {
  EXPECT_THROW((void)rebucket({}, 0, BucketOp::kMean), std::invalid_argument);
}

TEST(Rebucket, UnorderedSeriesThrows) {
  // Out of order inside one bucket is fine; an earlier bucket is not.
  const Series same_bucket{{5, 1.0}, {2, 2.0}, {msec(1), 3.0}};
  EXPECT_EQ(rebucket(same_bucket, msec(1), BucketOp::kSum).size(), 2u);
  const Series earlier{{0, 1.0}, {msec(2), 2.0}, {msec(1), 3.0}};
  EXPECT_THROW((void)rebucket(earlier, msec(1), BucketOp::kMean),
               std::invalid_argument);
  const Series negative{{-1, 1.0}, {-msec(1) - 1, 2.0}};
  EXPECT_THROW((void)rebucket(negative, msec(1), BucketOp::kMax),
               std::invalid_argument);
}

/// The map-of-vectors rebucket the one-pass version replaced: the reference
/// for the property test below.
Series rebucket_by_map(const Series& in, SimTime bucket, BucketOp op) {
  std::map<SimTime, std::vector<double>> buckets;
  for (const auto& p : in) {
    SimTime b = p.time / bucket;
    if (p.time < 0 && p.time % bucket != 0) --b;
    buckets[b].push_back(p.value);
  }
  Series out;
  for (const auto& [b, vals] : buckets) {
    double v = 0.0;
    switch (op) {
      case BucketOp::kMean:
        for (double x : vals) v += x;
        v /= static_cast<double>(vals.size());
        break;
      case BucketOp::kMax:
        v = *std::max_element(vals.begin(), vals.end());
        break;
      case BucketOp::kMin:
        v = *std::min_element(vals.begin(), vals.end());
        break;
      case BucketOp::kLast: v = vals.back(); break;
      case BucketOp::kSum:
        for (double x : vals) v += x;
        break;
      case BucketOp::kCount: v = static_cast<double>(vals.size()); break;
    }
    out.push_back({b * bucket, v});
  }
  return out;
}

TEST(Rebucket, MatchesMapReferenceOnRandomSeries) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const std::uint64_t bucket = 1 + rng.next_below(50);
    // Non-decreasing times from a negative start: gaps of 0 (equal times),
    // inside one bucket, and past several (one-sample and empty buckets).
    Series s;
    SimTime t = -static_cast<SimTime>(rng.next_below(500));
    const std::size_t n = rng.next_below(400);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t gap = rng.next_below(4);
      if (gap > 0) {
        t += static_cast<SimTime>(
            rng.next_below(gap == 3 ? 4 * bucket : bucket));
      }
      s.push_back({t, 1000.0 * rng.next_double() - 500.0});
    }
    for (const BucketOp op : {BucketOp::kMean, BucketOp::kMax, BucketOp::kMin,
                              BucketOp::kLast, BucketOp::kSum,
                              BucketOp::kCount}) {
      const auto width = static_cast<SimTime>(bucket);
      const Series got = rebucket(s, width, op);
      const Series want = rebucket_by_map(s, width, op);
      ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].time, want[i].time) << "seed " << seed;
        EXPECT_EQ(got[i].value, want[i].value) << "seed " << seed;
      }
    }
  }
}

TEST(SlopePerSec, LinearSeries) {
  Series s;
  for (int i = 0; i <= 10; ++i)
    s.push_back({sec(i), 5.0 * i + 2.0});
  EXPECT_NEAR(slope_per_sec(s), 5.0, 1e-9);
}

TEST(SlopePerSec, FlatAndDegenerate) {
  Series flat{{0, 7.0}, {sec(1), 7.0}};
  EXPECT_DOUBLE_EQ(slope_per_sec(flat), 0.0);
  Series one{{0, 7.0}};
  EXPECT_DOUBLE_EQ(slope_per_sec(one), 0.0);
}

}  // namespace
}  // namespace mscope::util
