#include "routing/gpsr.h"

#include <cmath>

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

// The greedy next hop as a spec, read from the Node records: the living
// neighbor strictly closer to `dest` than `cur` and closest to it, the
// lowest id among exact ties; kNoNode at a local minimum. `ties` counts
// the steps where two or more living neighbors share that minimum.
NodeId reference_greedy_hop(const Network& net, NodeId cur, Point dest,
                            std::size_t& ties) {
  const auto& nodes = net.nodes();
  double next_d2 = distance_sq(nodes[cur].pos, dest);
  NodeId next = net::kNoNode;
  std::size_t at_min = 0;
  for (const NodeId nb : net.neighbors(cur)) {
    if (!nodes[nb].alive) continue;
    const double d2 = distance_sq(nodes[nb].pos, dest);
    if (d2 < next_d2 ||
        (d2 == next_d2 && next != net::kNoNode && nb < next)) {
      at_min = d2 < next_d2 ? 1 : at_min + 1;
      next_d2 = d2;
      next = nb;
    } else if (d2 == next_d2 && next != net::kNoNode) {
      ++at_min;
    }
  }
  if (at_min > 1) ++ties;
  return next;
}

// Every greedy hop a route takes is the reference's choice: the whole
// path of an all-greedy route, and the greedy prefix (up to the first
// local minimum) of one that enters perimeter mode.
void expect_greedy_hops_match(const Network& net, const RouteResult& r,
                              Point dest, std::size_t& ties) {
  for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
    const NodeId want = reference_greedy_hop(net, r.path[i], dest, ties);
    if (want == net::kNoNode) {
      EXPECT_GT(r.perimeter_hops, 0u) << "greedy left a local minimum";
      return;
    }
    ASSERT_EQ(r.path[i + 1], want) << "hop " << i << " out of " << r.path[i];
  }
}

// Routes between random living pairs and to random locations, before and
// after killing 20% of the nodes; returns the exact ties met.
std::size_t route_against_reference(Network& net, std::uint64_t seed,
                                    bool half_integer_locations) {
  Rng rng(seed);
  const auto n = static_cast<std::int64_t>(net.size());
  const auto living = [&] {
    for (;;) {
      const auto id = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      if (net.alive(id)) return id;
    }
  };
  std::size_t ties = 0;
  std::size_t all_greedy = 0;
  for (const bool killed : {false, true}) {
    if (killed) {
      for (std::int64_t k = 0; k < n / 5; ++k) net.kill(living());
    }
    const Gpsr gpsr(net);
    for (int trial = 0; trial < 300; ++trial) {
      const NodeId src = living();
      const NodeId dst = living();
      const auto to_node = gpsr.route_to_node(src, dst);
      if (to_node.perimeter_hops == 0) ++all_greedy;
      expect_greedy_hops_match(net, to_node, net.position(dst), ties);

      Point loc{rng.uniform(0, net.field().max_x),
                rng.uniform(0, net.field().max_y)};
      if (half_integer_locations) {
        loc = {std::floor(loc.x / 10.0) * 10.0 + 5.0,
               std::floor(loc.y / 10.0) * 10.0 + 5.0};
      }
      expect_greedy_hops_match(net, gpsr.route_to_location(src, loc), loc,
                               ties);
    }
  }
  EXPECT_GT(all_greedy, 0u);
  return ties;
}

// Pins GPSR's greedy step against the reference where exact distance ties
// occur: a 10 m integer lattice whose 15 m radio range reaches the
// diagonals, routed to nodes and to the centres of lattice squares (four
// corners equidistant). Two random deployments check the general case.
TEST(Gpsr, GreedyHopsMatchLowestIdTieReference) {
  std::vector<Point> lattice;
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 12; ++x) lattice.push_back({10.0 * x, 10.0 * y});
  }
  Network grid(lattice, Rect{0, 0, 110, 110}, 15.0);
  ASSERT_TRUE(grid.is_connected());
  EXPECT_GT(route_against_reference(grid, 31, true), 0u)
      << "the lattice must produce exact distance ties";

  for (const std::uint64_t seed : {11ull, 12ull}) {
    auto net = random_connected_net(seed, 300);
    route_against_reference(net, seed, false);
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
