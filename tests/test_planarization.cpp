#include "net/planarization.h"

#include <gtest/gtest.h>

#include "net/deployment.h"
#include "net/topology.h"

namespace poolnet::net {
namespace {

Topology random_net(std::uint64_t seed, std::size_t n = 250) {
  Rng rng(seed);
  const double side = field_side_for_density(n, 40.0, 20.0);
  const Rect field{0, 0, side, side};
  auto pts = deploy_uniform(n, field, rng);
  return Topology(std::move(pts), field, 40.0);
}

TEST(Planarization, GabrielSubsetOfUnitDisk) {
  const auto net = random_net(1);
  const PlanarGraph g(net, PlanarizationRule::Gabriel);
  for (NodeId u = 0; u < net.size(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      EXPECT_TRUE(net.are_neighbors(u, v));
    }
  }
}

TEST(Planarization, GabrielConditionHolds) {
  // No third node strictly inside the diameter circle of any kept edge.
  const auto net = random_net(2);
  const PlanarGraph g(net, PlanarizationRule::Gabriel);
  for (NodeId u = 0; u < net.size(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (v < u) continue;
      const Point pu = net.position(u), pv = net.position(v);
      const Point mid{(pu.x + pv.x) / 2, (pu.y + pv.y) / 2};
      const double r2 = distance_sq(pu, pv) / 4.0;
      for (NodeId w = 0; w < net.size(); ++w) {
        if (w == u || w == v) continue;
        EXPECT_GE(distance_sq(net.position(w), mid), r2)
            << "witness " << w << " violates Gabriel edge (" << u << "," << v
            << ")";
      }
    }
  }
}

TEST(Planarization, RngConditionHolds) {
  const auto net = random_net(3);
  const PlanarGraph g(net, PlanarizationRule::RelativeNeighborhood);
  for (NodeId u = 0; u < net.size(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (v < u) continue;
      const double duv2 = distance_sq(net.position(u), net.position(v));
      for (NodeId w = 0; w < net.size(); ++w) {
        if (w == u || w == v) continue;
        const bool closer_to_both =
            distance_sq(net.position(u), net.position(w)) < duv2 &&
            distance_sq(net.position(v), net.position(w)) < duv2;
        EXPECT_FALSE(closer_to_both);
      }
    }
  }
}

TEST(Planarization, RngIsSubgraphOfGabriel) {
  const auto net = random_net(4);
  const PlanarGraph gg(net, PlanarizationRule::Gabriel);
  const PlanarGraph rng_g(net, PlanarizationRule::RelativeNeighborhood);
  EXPECT_LE(rng_g.edge_count(), gg.edge_count());
  for (NodeId u = 0; u < net.size(); ++u) {
    for (const NodeId v : rng_g.neighbors(u)) {
      EXPECT_TRUE(gg.has_edge(u, v));
    }
  }
}

class PlanarConnectivity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlanarConnectivity, GabrielPreservesConnectivity) {
  const auto net = random_net(GetParam());
  if (!net.is_connected()) GTEST_SKIP() << "disconnected draw";
  const PlanarGraph g(net, PlanarizationRule::Gabriel);
  EXPECT_TRUE(g.is_connected());
}

TEST_P(PlanarConnectivity, RngPreservesConnectivity) {
  const auto net = random_net(GetParam() ^ 0x55);
  if (!net.is_connected()) GTEST_SKIP() << "disconnected draw";
  const PlanarGraph g(net, PlanarizationRule::RelativeNeighborhood);
  EXPECT_TRUE(g.is_connected());
}

TEST_P(PlanarConnectivity, PlanarGraphHasNoCrossings) {
  // The defining property perimeter routing relies on: no two Gabriel
  // edges cross at an interior point.
  const auto net = random_net(GetParam() ^ 0x99, 120);
  const PlanarGraph g(net, PlanarizationRule::Gabriel);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < net.size(); ++u)
    for (const NodeId v : g.neighbors(u))
      if (u < v) edges.emplace_back(u, v);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    for (std::size_t j = i + 1; j < edges.size(); ++j) {
      const auto [a, b] = edges[i];
      const auto [c, d] = edges[j];
      if (a == c || a == d || b == c || b == d) continue;  // shared endpoint
      EXPECT_FALSE(segments_intersect(net.position(a), net.position(b),
                                      net.position(c), net.position(d)))
          << "edges (" << a << "," << b << ") x (" << c << "," << d << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanarConnectivity,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(Planarization, SymmetricAdjacency) {
  const auto net = random_net(6);
  const PlanarGraph g(net, PlanarizationRule::Gabriel);
  for (NodeId u = 0; u < net.size(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      EXPECT_TRUE(g.has_edge(v, u));
    }
  }
}

TEST(Planarization, TwoNodeNetworkKeepsItsEdge) {
  std::vector<Point> pts{{0, 0}, {10, 0}};
  const Topology net(pts, Rect{0, 0, 20, 10}, 40.0);
  const PlanarGraph g(net, PlanarizationRule::Gabriel);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
}

}  // namespace
}  // namespace poolnet::net
