// Failure injection: sensor networks lose nodes. These tests kill random
// subsets and whole regions, then verify the substrate recovers — GPSR
// still delivers among survivors over the re-planarized graph, and a DCS
// deployment rebuilt on the survivor network answers queries exactly.
// (Events resident on dead nodes are lost, as in any DCS without
// replication; the tests quantify that, too.)
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "core/pool_system.h"
#include "dim/dim_system.h"
#include "net/deployment.h"
#include "query/query_gen.h"
#include "query/workload.h"
#include "routing/gpsr.h"
#include "storage/brute_force_store.h"

namespace poolnet {
namespace {

using net::Network;
using net::NodeId;

std::vector<Point> positions_for(std::size_t n, double side, Rng& rng) {
  return net::deploy_uniform(n, Rect{0, 0, side, side}, rng);
}

/// Survivor positions after killing the given original indices.
std::vector<Point> survivors(const std::vector<Point>& all,
                             const std::set<std::size_t>& dead) {
  std::vector<Point> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (!dead.count(i)) out.push_back(all[i]);
  }
  return out;
}

class RandomFailures : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomFailures, GpsrDeliversAmongSurvivorsAfterTenPercentLoss) {
  const double side = net::field_side_for_density(400, 40.0, 20.0);
  Rng rng(GetParam());
  const auto all = positions_for(400, side, rng);

  std::set<std::size_t> dead;
  while (dead.size() < 40)
    dead.insert(static_cast<std::size_t>(rng.uniform_int(0, 399)));

  Network survivor_net(survivors(all, dead), Rect{0, 0, side, side}, 40.0);
  if (!survivor_net.is_connected())
    GTEST_SKIP() << "failures partitioned the network";

  EXPECT_TRUE(survivor_net.topology().planar().is_connected());

  const routing::Gpsr gpsr(survivor_net);
  for (int trial = 0; trial < 100; ++trial) {
    const auto src = static_cast<NodeId>(rng.uniform_int(
        0, static_cast<std::int64_t>(survivor_net.size()) - 1));
    const auto dst = static_cast<NodeId>(rng.uniform_int(
        0, static_cast<std::int64_t>(survivor_net.size()) - 1));
    const auto r = gpsr.route_to_node(src, dst);
    EXPECT_TRUE(r.exact) << src << "->" << dst;
  }
}

TEST_P(RandomFailures, RegionOutageForcesPerimeterButDelivers) {
  // Kill everything inside a tall wall across the field middle. Greedy
  // routing toward a destination behind the wall dead-ends against it (a
  // circular void would merely be skirted); only face routing gets the
  // packet around the wall ends.
  const double side = net::field_side_for_density(500, 40.0, 20.0);
  Rng rng(GetParam() ^ 0xabc);
  const auto all = positions_for(500, side, rng);
  std::set<std::size_t> dead;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Point p = all[i];
    if (p.x > 0.42 * side && p.x < 0.58 * side && p.y > 0.08 * side &&
        p.y < 0.92 * side)
      dead.insert(i);
  }
  ASSERT_GT(dead.size(), 10u);

  Network survivor_net(survivors(all, dead), Rect{0, 0, side, side}, 40.0);
  if (!survivor_net.is_connected())
    GTEST_SKIP() << "outage partitioned the network";
  const routing::Gpsr gpsr(survivor_net);

  // Route across the void: west edge to east edge.
  const NodeId west = survivor_net.nearest_node({0, side / 2});
  const NodeId east = survivor_net.nearest_node({side, side / 2});
  const auto r = gpsr.route_to_node(west, east);
  EXPECT_TRUE(r.exact);
  EXPECT_GT(r.perimeter_hops, 0u) << "crossing the void needs face routing";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFailures,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Failures, RebuiltPoolDeploymentAnswersExactly) {
  // After a failure epoch, the operator redeploys Pool on the survivor
  // network; surviving sensors re-report their current readings. Queries
  // must be exact with respect to the re-reported data.
  const double side = net::field_side_for_density(300, 40.0, 20.0);
  Rng rng(11);
  auto all = positions_for(300, side, rng);
  std::set<std::size_t> dead;
  while (dead.size() < 30)
    dead.insert(static_cast<std::size_t>(rng.uniform_int(0, 299)));

  Network survivor_net(survivors(all, dead), Rect{0, 0, side, side}, 40.0);
  ASSERT_TRUE(survivor_net.is_connected());
  const routing::Gpsr gpsr(survivor_net);
  core::PoolSystem pool(survivor_net, gpsr, 3, core::PoolConfig{});
  dim::DimSystem dim_sys(survivor_net, gpsr, 3);
  storage::BruteForceStore oracle(3);

  query::EventGenerator gen({.dims = 3}, 12);
  for (NodeId n = 0; n < survivor_net.size(); ++n) {
    const auto e = gen.next(n);
    pool.insert(n, e);
    dim_sys.insert(n, e);
    oracle.insert(n, e);
  }
  query::QueryGenerator qgen({.dims = 3}, 13);
  for (int i = 0; i < 20; ++i) {
    const auto q = i % 2 ? qgen.partial_range(1) : qgen.exact_range();
    const auto want = oracle.matching(q).size();
    EXPECT_EQ(pool.execute(0, q).events.size(), want);
    EXPECT_EQ(dim_sys.execute(0, q).events.size(), want);
  }
}

TEST(Failures, DataLossIsProportionalToDeadIndexNodes) {
  // Without replication, events resident on dead nodes are gone. The
  // fraction lost tracks the fraction of STORAGE (not all nodes die with
  // data — at paper density only some nodes serve as index nodes).
  const double side = net::field_side_for_density(300, 40.0, 20.0);
  Rng rng(21);
  auto all = positions_for(300, side, rng);
  Network network(all, Rect{0, 0, side, side}, 40.0);
  ASSERT_TRUE(network.is_connected());
  const routing::Gpsr gpsr(network);
  core::PoolSystem pool(network, gpsr, 3, core::PoolConfig{});
  query::EventGenerator gen({.dims = 3}, 22);
  for (NodeId n = 0; n < network.size(); ++n) {
    for (int i = 0; i < 3; ++i) pool.insert(n, gen.next(n));
  }

  // Kill the 10 most-loaded nodes: worst-case data loss.
  std::vector<std::pair<std::uint64_t, NodeId>> by_load;
  for (const auto& node : network.nodes())
    by_load.emplace_back(node.stored_events, node.id);
  std::sort(by_load.rbegin(), by_load.rend());
  std::uint64_t lost = 0;
  for (int i = 0; i < 10; ++i) lost += by_load[static_cast<std::size_t>(i)].first;

  EXPECT_GT(lost, 0u);
  // Storage concentrates: the top-10 nodes hold far more than 10/300 of
  // the data — the hotspot observation motivating Section 4.2.
  EXPECT_GT(static_cast<double>(lost) / (300.0 * 3.0), 10.0 / 300.0);
}

}  // namespace
}  // namespace poolnet
