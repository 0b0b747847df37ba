#include "sim/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace poolnet::sim {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(RunningStat, KnownValues) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
}

TEST(RunningStat, SingleValueHasZeroVariance) {
  RunningStat s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStat, MergeEqualsCombinedStream) {
  poolnet::Rng rng(77);
  RunningStat whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5, 5);
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStat, MergeWithEmptyIsIdentity) {
  RunningStat a, empty;
  a.add(1.0);
  a.add(2.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 1.5);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

}  // namespace
}  // namespace poolnet::sim
