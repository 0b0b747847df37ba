#include "routing/gpsr.h"

#include <gtest/gtest.h>

#include "connected_network.h"

namespace poolnet::routing {
namespace {

using net::Network;
using net::NodeId;

Network random_connected_net(std::uint64_t seed, std::size_t n,
                             double avg_neighbors = 20.0) {
  return std::move(*connected_network(seed, n, 1000003, avg_neighbors));
}

void expect_valid_path(const Network& net, const RouteResult& r, NodeId src) {
  ASSERT_FALSE(r.path.empty());
  EXPECT_EQ(r.path.front(), src);
  EXPECT_EQ(r.path.back(), r.delivered);
  for (std::size_t i = 1; i < r.path.size(); ++i) {
    EXPECT_TRUE(net.are_neighbors(r.path[i - 1], r.path[i]))
        << "hop " << i << ": " << r.path[i - 1] << "->" << r.path[i];
  }
}

TEST(Gpsr, TrivialSelfRoute) {
  const auto net = random_connected_net(1, 50);
  const Gpsr gpsr(net);
  const auto r = gpsr.route_to_node(7, 7);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.delivered, 7u);
  EXPECT_EQ(r.hops(), 0u);
}

TEST(Gpsr, GreedyOnLineTopology) {
  std::vector<Point> pts{{0, 0}, {30, 0}, {60, 0}, {90, 0}, {120, 0}};
  const Network net(pts, Rect{0, 0, 130, 10}, 40.0);
  const Gpsr gpsr(net);
  const auto r = gpsr.route_to_node(0, 4);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.path, (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(r.perimeter_hops, 0u);
}

TEST(Gpsr, PerimeterRecoversFromVoid) {
  // A "U" topology: greedy from 0 toward 6 gets stuck at the void between
  // the two arms; perimeter mode must route around the bottom.
  //
  //   0            6
  //   1            5
  //   2 -- 3 -- 4
  std::vector<Point> pts{{0, 80}, {0, 40}, {0, 0},  {40, 0},
                         {80, 0}, {80, 40}, {80, 80}};
  const Network net(pts, Rect{0, 0, 100, 100}, 45.0);
  ASSERT_TRUE(net.is_connected());
  const Gpsr gpsr(net);
  const auto r = gpsr.route_to_node(0, 6);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.delivered, 6u);
  EXPECT_GT(r.perimeter_hops, 0u);
  expect_valid_path(net, r, 0);
}

class GpsrDelivery
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(GpsrDelivery, AlwaysDeliversOnConnectedNetworks) {
  const auto [seed, n] = GetParam();
  const auto net = random_connected_net(seed, n);
  const Gpsr gpsr(net);
  Rng rng(seed ^ 0xfeed);
  for (int trial = 0; trial < 200; ++trial) {
    const auto src = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const auto dst = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const auto r = gpsr.route_to_node(src, dst);
    EXPECT_TRUE(r.exact) << "src=" << src << " dst=" << dst;
    EXPECT_EQ(r.delivered, dst);
    expect_valid_path(net, r, src);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSizes, GpsrDelivery,
    ::testing::Values(std::tuple{1ull, std::size_t{60}},
                      std::tuple{2ull, std::size_t{150}},
                      std::tuple{3ull, std::size_t{300}},
                      std::tuple{4ull, std::size_t{300}},
                      std::tuple{5ull, std::size_t{600}}));

TEST(Gpsr, DeliversOnSparseNetworksWithVoids) {
  // Lower density => frequent greedy failures => perimeter stress.
  const auto net = random_connected_net(9, 200, 8.0);
  const Gpsr gpsr(net);
  Rng rng(99);
  std::size_t perimeter_routes = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const auto src = static_cast<NodeId>(rng.uniform_int(0, 199));
    const auto dst = static_cast<NodeId>(rng.uniform_int(0, 199));
    const auto r = gpsr.route_to_node(src, dst);
    EXPECT_TRUE(r.exact) << "src=" << src << " dst=" << dst;
    if (r.perimeter_hops > 0) ++perimeter_routes;
  }
  EXPECT_GT(perimeter_routes, 0u) << "test should exercise perimeter mode";
}

TEST(Gpsr, RouteToLocationDeliversAtHomeNode) {
  const auto net = random_connected_net(5, 300);
  const Gpsr gpsr(net);
  Rng rng(55);
  std::size_t exact_home = 0;
  constexpr int kTrials = 100;
  for (int trial = 0; trial < kTrials; ++trial) {
    const Point loc{rng.uniform(0, net.field().max_x),
                    rng.uniform(0, net.field().max_y)};
    const auto src = static_cast<NodeId>(rng.uniform_int(0, 299));
    const auto r = gpsr.route_to_location(src, loc);
    ASSERT_NE(r.delivered, net::kNoNode);
    // The home node is the node whose face tour encloses the location;
    // in a dense unit-disk graph this is almost always the globally
    // nearest node, and never much farther than one radio range.
    const NodeId nearest = net.nearest_node(loc);
    if (r.delivered == nearest) ++exact_home;
    EXPECT_LE(distance(net.position(r.delivered), loc),
              distance(net.position(nearest), loc) + net.radio_range());
  }
  EXPECT_GT(exact_home, kTrials * 8 / 10);
}

TEST(Gpsr, RouteToLocationOutsideFieldReachesBoundary) {
  const auto net = random_connected_net(6, 150);
  const Gpsr gpsr(net);
  const auto r = gpsr.route_to_location(0, {net.field().max_x + 500.0,
                                            net.field().max_y + 500.0});
  ASSERT_NE(r.delivered, net::kNoNode);
  // Must terminate and deliver at some node near the top-right boundary.
  const Point p = net.position(r.delivered);
  EXPECT_GT(p.x + p.y, (net.field().max_x + net.field().max_y) / 2.0);
}

TEST(Gpsr, PathsAreReasonablyShort) {
  const auto net = random_connected_net(7, 400);
  const Gpsr gpsr(net);
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    const auto src = static_cast<NodeId>(rng.uniform_int(0, 399));
    const auto dst = static_cast<NodeId>(rng.uniform_int(0, 399));
    const auto r = gpsr.route_to_node(src, dst);
    const double line = distance(net.position(src), net.position(dst));
    // Greedy progress guarantees hops are bounded by a small multiple of
    // the straight-line distance in radio ranges at this density.
    const double min_hops = line / net.radio_range();
    EXPECT_LE(static_cast<double>(r.hops()), 4.0 * min_hops + 12.0);
  }
}

TEST(Gpsr, DeterministicPaths) {
  const auto net = random_connected_net(8, 200);
  const Gpsr gpsr(net);
  const auto a = gpsr.route_to_node(3, 150);
  const auto b = gpsr.route_to_node(3, 150);
  EXPECT_EQ(a.path, b.path);
}

}  // namespace
}  // namespace poolnet::routing
