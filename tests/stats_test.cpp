#include <gtest/gtest.h>

#include "stats/histogram.hpp"

namespace m2::stats {
namespace {

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.median(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(Histogram, SmallValuesExact) {
  Histogram h;
  for (int v : {1, 2, 3, 4, 5}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 5);
  EXPECT_EQ(h.median(), 3);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
}

TEST(Histogram, QuantilesWithinRelativeError) {
  Histogram h;
  for (int i = 1; i <= 100000; ++i) h.record(i);
  EXPECT_NEAR(static_cast<double>(h.quantile(0.5)), 50000.0, 50000 * 0.04);
  EXPECT_NEAR(static_cast<double>(h.quantile(0.99)), 99000.0, 99000 * 0.04);
  EXPECT_NEAR(h.mean(), 50000.5, 1.0);
}

TEST(Histogram, LargeValuesBucketed) {
  Histogram h;
  const std::int64_t big = 123'456'789'000;  // ~123 s in ns
  h.record(big);
  EXPECT_EQ(h.max(), big);
  EXPECT_NEAR(static_cast<double>(h.median()), static_cast<double>(big),
              static_cast<double>(big) * 0.04);
}

TEST(Histogram, NegativeClampsToZero) {
  Histogram h;
  h.record(-5);
  EXPECT_EQ(h.median(), 0);
}

TEST(Histogram, MergeCombines) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.record(10);
  for (int i = 0; i < 100; ++i) b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000);
  EXPECT_NEAR(a.mean(), 505.0, 1.0);
}

TEST(Histogram, BucketBoundsPartitionTheAxis) {
  // Buckets tile [0, INT64_MAX] with no gaps or overlaps, and bucket_of is
  // the inverse of bucket_bounds on every boundary value.
  std::int64_t expected_lo = 0;
  for (std::size_t b = 0; b < Histogram::bucket_count(); ++b) {
    const auto [lo, hi] = Histogram::bucket_bounds(b);
    ASSERT_EQ(lo, expected_lo) << "gap before bucket " << b;
    ASSERT_LT(lo, hi);
    ASSERT_EQ(Histogram::bucket_of(lo), b);
    ASSERT_EQ(Histogram::bucket_of(hi - 1), b);
    if (hi == INT64_MAX) return;  // top of the axis reached
    ASSERT_EQ(Histogram::bucket_of(hi), b + 1);
    expected_lo = hi;
  }
  FAIL() << "buckets never reached INT64_MAX";
}

TEST(Histogram, QuantileInterpolatesWithinBucket) {
  // A single value reports itself at every quantile (interpolation clamps
  // to the recorded [min, max]).
  Histogram one;
  one.record(777);
  EXPECT_EQ(one.quantile(0.0), 777);
  EXPECT_EQ(one.quantile(0.5), 777);
  EXPECT_EQ(one.quantile(1.0), 777);

  // Uniform samples across one wide bucket: quantiles interpolate linearly
  // between the bucket edges instead of snapping to one of them.
  Histogram h;
  const auto [lo, hi] = Histogram::bucket_bounds(Histogram::bucket_of(1 << 20));
  const std::int64_t width = hi - lo;
  ASSERT_GE(width, 64);
  for (int rep = 0; rep < 16; ++rep)
    for (std::int64_t i = 0; i < 64; ++i) h.record(lo + i * (width / 64));
  const double tol = static_cast<double>(width) * 0.05;
  EXPECT_NEAR(static_cast<double>(h.quantile(0.25)),
              static_cast<double>(lo) + 0.25 * static_cast<double>(width), tol);
  EXPECT_NEAR(static_cast<double>(h.quantile(0.75)),
              static_cast<double>(lo) + 0.75 * static_cast<double>(width), tol);
  EXPECT_LT(h.quantile(0.25), h.quantile(0.75));
}

TEST(Histogram, MergeIsAssociative) {
  // (a ⊕ b) ⊕ c and a ⊕ (b ⊕ c) agree bucket-for-bucket — the property the
  // cluster-wide fold in Cluster::merged_metrics relies on.
  Histogram a, b, c;
  std::uint64_t x = 12345;
  for (int i = 0; i < 3000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const auto v = static_cast<std::int64_t>(x >> 24);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(v);
  }
  Histogram left = a;
  left.merge(b);
  left.merge(c);
  Histogram bc = b;
  bc.merge(c);
  Histogram right = a;
  right.merge(bc);

  EXPECT_EQ(left.count(), right.count());
  EXPECT_EQ(left.min(), right.min());
  EXPECT_EQ(left.max(), right.max());
  EXPECT_DOUBLE_EQ(left.mean(), right.mean());
  for (std::size_t i = 0; i < Histogram::bucket_count(); ++i)
    ASSERT_EQ(left.bucket_value(i), right.bucket_value(i)) << "bucket " << i;
  for (double q : {0.5, 0.9, 0.99, 0.999})
    EXPECT_EQ(left.quantile(q), right.quantile(q));
}

TEST(Histogram, OverflowValuesLandInTopBucket) {
  Histogram h;
  h.record(INT64_MAX);
  h.record(INT64_MAX - 1);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), INT64_MAX);
  // Quantiles clamp to the recorded [min, max] even in the huge top
  // bucket, and the top reachable bucket's clamped upper edge is
  // INT64_MAX itself.
  EXPECT_GE(h.quantile(1.0), INT64_MAX - 1);
  EXPECT_GE(h.quantile(0.5), INT64_MAX - 1);
  const std::size_t top = Histogram::bucket_of(INT64_MAX);
  EXPECT_EQ(Histogram::bucket_of(INT64_MAX - 1), top);
  EXPECT_EQ(Histogram::bucket_bounds(top).second, INT64_MAX);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record(42);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0);
}

}  // namespace
}  // namespace m2::stats
