// Resilience mirrors (in the spirit of the paper's reference [7]):
// rotated-pool replicas, duplicate-free queries, survivability analysis.
#include <gtest/gtest.h>

#include <algorithm>

#include "bench_support/testbed.h"
#include "common/error.h"
#include "query/query_gen.h"

namespace poolnet::core {
namespace {

using net::NodeId;

benchsup::Testbed make_testbed(std::uint32_t replicas, std::uint64_t seed = 3,
                               std::size_t nodes = 250) {
  benchsup::TestbedConfig config;
  config.nodes = nodes;
  config.seed = seed;
  config.pool.replicas = replicas;
  return benchsup::Testbed(config);
}

TEST(Replication, DisabledByDefault) {
  auto tb = make_testbed(0);
  tb.insert_workload();
  EXPECT_EQ(tb.pool().replica_count(), 0u);
}

TEST(Replication, StoresRequestedMirrorCount) {
  auto tb = make_testbed(2);
  const auto events = tb.insert_workload();
  EXPECT_EQ(tb.pool().stored_count(), events);
  EXPECT_EQ(tb.pool().replica_count(), 2 * events);
}

TEST(Replication, QueriesReturnNoDuplicates) {
  auto tb = make_testbed(2, 5);
  tb.insert_workload();
  query::QueryGenerator qgen({.dims = 3}, 7);
  Rng sink_rng(8);
  for (int i = 0; i < 20; ++i) {
    const auto q = i % 2 ? qgen.partial_range(1) : qgen.exact_range();
    const auto r = tb.pool().execute(tb.random_node(sink_rng), q);
    // Exactly the oracle's answers: mirrors must be invisible.
    EXPECT_EQ(r.events.size(), tb.oracle().matching(q).size()) << q;
    std::vector<std::uint64_t> ids;
    for (const auto& e : r.events) ids.push_back(e.id);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
        << "duplicate event returned";
  }
}

TEST(Replication, AggregatesUnaffectedByMirrors) {
  auto tb = make_testbed(1, 6);
  tb.insert_workload();
  const storage::RangeQuery q({{0.0, 0.8}, {0.0, 0.8}, {0.0, 0.8}});
  const auto want =
      tb.oracle().aggregate_oracle(q, storage::AggregateKind::Count, 0);
  const auto got =
      tb.pool().execute(
          0, storage::AggregateQuery{q, storage::AggregateKind::Count, 0});
  EXPECT_DOUBLE_EQ(got.aggregate.value, want.value);
}

TEST(Replication, InsertCostScalesWithCopies) {
  auto tb0 = make_testbed(0, 9);
  auto tb2 = make_testbed(2, 9);
  tb0.insert_workload();
  tb2.insert_workload();
  const auto base = tb0.pool_insert_traffic().total;
  const auto with = tb2.pool_insert_traffic().total;
  EXPECT_GT(with, 2 * base);  // three unicasts instead of one
  EXPECT_LT(with, 5 * base);
}

TEST(Replication, SurvivabilityOfLoadedNodes) {
  auto tb1 = make_testbed(1, 11);
  tb1.insert_workload();

  // Kill the 15 most-loaded nodes.
  std::vector<std::pair<std::uint64_t, NodeId>> by_load;
  for (const auto& node : tb1.pool_network().nodes())
    by_load.emplace_back(node.stored_events, node.id);
  std::sort(by_load.rbegin(), by_load.rend());
  std::vector<NodeId> dead;
  for (int i = 0; i < 15; ++i)
    dead.push_back(by_load[static_cast<std::size_t>(i)].second);

  const auto report = tb1.pool().survivability(dead);
  EXPECT_EQ(report.total_events, tb1.pool().stored_count());
  EXPECT_GT(report.primaries_lost, 0u);
  EXPECT_EQ(report.primaries_lost, report.recovered + report.lost);
  // Load-targeted failure is the adversarial case — mirrors carry load
  // too, so the heaviest nodes hold copies of many events. Mirrors must
  // still rescue a meaningful share (random failures, the common case,
  // recover nearly everything; see bench/paper_figures).
  EXPECT_GT(report.recovered, 0u);
  EXPECT_LT(report.lost, report.primaries_lost);
}

TEST(Replication, RandomFailuresMostlyRecovered) {
  auto tb = make_testbed(1, 16, 400);
  tb.insert_workload();
  Rng rng(17);
  std::vector<NodeId> dead;
  while (dead.size() < 40) {  // 10% random failures
    const auto n = static_cast<NodeId>(rng.uniform_int(0, 399));
    if (std::find(dead.begin(), dead.end(), n) == dead.end())
      dead.push_back(n);
  }
  const auto report = tb.pool().survivability(dead);
  ASSERT_GT(report.primaries_lost, 0u);
  EXPECT_GT(report.recovered * 1, report.lost * 3)
      << "random failures should be mostly recoverable with one mirror";
}

TEST(Replication, ZeroReplicasMeansNoRecovery) {
  auto tb = make_testbed(0, 12);
  tb.insert_workload();
  std::vector<NodeId> dead;
  for (NodeId n = 0; n < 20; ++n) dead.push_back(n);
  const auto report = tb.pool().survivability(dead);
  EXPECT_EQ(report.recovered, 0u);
  EXPECT_EQ(report.lost, report.primaries_lost);
}

TEST(Replication, MoreReplicasNeverHurtSurvivability) {
  std::size_t lost_prev = SIZE_MAX;
  for (const std::uint32_t r : {0u, 1u, 2u}) {
    auto tb = make_testbed(r, 13);
    tb.insert_workload();
    std::vector<NodeId> dead;
    Rng rng(14);  // same dead set for every r
    while (dead.size() < 25) {
      const auto n = static_cast<NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(
                                 tb.pool_network().size()) - 1));
      if (std::find(dead.begin(), dead.end(), n) == dead.end())
        dead.push_back(n);
    }
    const auto report = tb.pool().survivability(dead);
    EXPECT_LE(report.lost, lost_prev) << "replicas=" << r;
    lost_prev = report.lost;
  }
}

TEST(Replication, NoDeadNodesNothingLost) {
  auto tb = make_testbed(1, 15);
  tb.insert_workload();
  const auto report = tb.pool().survivability({});
  EXPECT_EQ(report.primaries_lost, 0u);
  EXPECT_EQ(report.lost, 0u);
  EXPECT_EQ(report.recovered, 0u);
}

TEST(Replication, TooManyReplicasRejected) {
  benchsup::TestbedConfig config;
  config.nodes = 150;
  config.dims = 3;
  config.pool.replicas = 3;  // needs < dims
  EXPECT_THROW(benchsup::Testbed tb(config), poolnet::ConfigError);
}

}  // namespace
}  // namespace poolnet::core
