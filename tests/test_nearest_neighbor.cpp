// Nearest-neighbor queries in attribute space (the paper's future-work
// feature): k = 1 requests through DcsSystem::execute(), answered by
// Pool's expanding box search.
#include <gtest/gtest.h>

#include <cmath>

#include "bench_support/testbed.h"
#include "common/error.h"
#include "query/workload.h"

namespace poolnet::core {
namespace {

using storage::Event;
using storage::Values;

double dist(const Values& a, const Values& b) {
  double d2 = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    d2 += diff * diff;
  }
  return std::sqrt(d2);
}

struct NnFixture {
  explicit NnFixture(std::uint64_t seed, std::size_t nodes = 250) {
    benchsup::TestbedConfig config;
    config.nodes = nodes;
    config.seed = seed;
    tb = std::make_unique<benchsup::Testbed>(config);
    tb->insert_workload();
  }

  // Brute-force reference NN over everything the oracle holds.
  std::pair<const Event*, double> brute_nn(const Values& target) const {
    const Event* best = nullptr;
    double best_d = std::numeric_limits<double>::infinity();
    for (const Event& e : tb->oracle().all()) {
      const double d = dist(e.values, target);
      if (d < best_d) {
        best_d = d;
        best = &e;
      }
    }
    return {best, best_d};
  }

  std::unique_ptr<benchsup::Testbed> tb;
};

/// The k = 1 request through the unified surface.
storage::QueryReceipt nearest(benchsup::Testbed& tb, net::NodeId sink,
                              const Values& target,
                              double initial_radius = 0.05) {
  return tb.pool().execute(sink,
                           storage::KNearestQuery{target, 1, initial_radius});
}

class NnSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NnSeeds, MatchesBruteForceDistance) {
  NnFixture fx(GetParam());
  Rng rng(GetParam() * 91 + 2);
  for (int trial = 0; trial < 40; ++trial) {
    Values target{rng.uniform(), rng.uniform(), rng.uniform()};
    const auto [want, want_d] = fx.brute_nn(target);
    ASSERT_NE(want, nullptr);
    const auto r = nearest(*fx.tb, fx.tb->random_node(rng), target);
    ASSERT_EQ(r.events.size(), 1u);
    // Ties by distance are acceptable; the distance itself must match.
    EXPECT_NEAR(dist(r.events.front().values, target), want_d, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NnSeeds, ::testing::Values(1, 2, 3, 4));

TEST(NearestNeighbor, ExactHitHasZeroDistance) {
  NnFixture fx(5);
  const Event& stored = fx.tb->oracle().all()[100];
  const auto r = nearest(*fx.tb, 0, stored.values);
  ASSERT_EQ(r.events.size(), 1u);
  EXPECT_DOUBLE_EQ(dist(r.events.front().values, stored.values), 0.0);
  EXPECT_EQ(r.events.front().values, stored.values);
}

TEST(NearestNeighbor, EmptyStoreReturnsNothing) {
  benchsup::TestbedConfig config;
  config.nodes = 150;
  config.seed = 6;
  benchsup::Testbed tb(config);  // no insert_workload()
  const auto r = nearest(tb, 0, Values{0.5, 0.5, 0.5});
  EXPECT_TRUE(r.events.empty());
  EXPECT_GT(r.rounds, 1u);  // had to expand to the whole space
}

TEST(NearestNeighbor, VisitsFewCellsForDenseTargets) {
  NnFixture fx(7, 400);
  // With 1200 stored events, a centered target finds a neighbor within
  // the first rounds and touches a small fraction of the 300 cells.
  const auto r = nearest(*fx.tb, 0, Values{0.5, 0.4, 0.3});
  ASSERT_EQ(r.events.size(), 1u);
  EXPECT_LT(r.index_nodes_visited, 100u);
  EXPECT_GT(r.messages, 0u);
}

TEST(NearestNeighbor, CornerTargetsStillComplete) {
  NnFixture fx(8);
  for (const auto& target :
       {Values{0.0, 0.0, 0.0}, Values{1.0, 1.0, 1.0}, Values{1.0, 0.0, 1.0}}) {
    const auto [want, want_d] = fx.brute_nn(target);
    ASSERT_NE(want, nullptr);
    const auto r = nearest(*fx.tb, 3, target);
    ASSERT_EQ(r.events.size(), 1u);
    EXPECT_NEAR(dist(r.events.front().values, target), want_d, 1e-12);
  }
}

TEST(NearestNeighbor, LargerInitialRadiusFewerRounds) {
  NnFixture fx(9);
  Values target{0.2, 0.9, 0.4};
  const auto small = nearest(*fx.tb, 0, target, 0.01);
  const auto large = nearest(*fx.tb, 0, target, 0.5);
  EXPECT_GE(small.rounds, large.rounds);
  // The radius only schedules the search; the answer never depends on it.
  ASSERT_EQ(small.events.size(), 1u);
  ASSERT_EQ(large.events.size(), 1u);
  EXPECT_EQ(small.events.front().id, large.events.front().id);
}

TEST(NearestNeighbor, RejectsBadArguments) {
  NnFixture fx(10, 150);
  EXPECT_THROW(nearest(*fx.tb, 0, Values{0.5, 0.5}), poolnet::ConfigError);
  EXPECT_THROW(nearest(*fx.tb, 0, Values{0.5, 0.5, 0.5}, -1.0),
               poolnet::ConfigError);
}

}  // namespace
}  // namespace poolnet::core
