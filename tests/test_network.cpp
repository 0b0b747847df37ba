#include "net/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>
#include <tuple>

#include "common/assert.h"
#include "common/error.h"
#include "net/deployment.h"

namespace poolnet::net {
namespace {

std::vector<NodeId> row(const Network& net, NodeId id) {
  const auto nb = net.neighbors(id);
  return {nb.begin(), nb.end()};
}

Network make_line_network() {
  // Four nodes in a line, 30 m apart, radio range 40 m: each node hears
  // only its immediate neighbors.
  std::vector<Point> pts{{0, 0}, {30, 0}, {60, 0}, {90, 0}};
  return Network(pts, Rect{0, 0, 100, 10}, 40.0);
}

TEST(Network, NeighborTablesAreSymmetricAndRanged) {
  const auto net = make_line_network();
  EXPECT_EQ(row(net, 0), (std::vector<NodeId>{1}));
  EXPECT_EQ(row(net, 1), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(row(net, 2), (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(row(net, 3), (std::vector<NodeId>{2}));
  EXPECT_TRUE(net.are_neighbors(1, 2));
  EXPECT_FALSE(net.are_neighbors(0, 2));
}

TEST(Network, SymmetryHoldsOnRandomDeployments) {
  Rng rng(17);
  const Rect field{0, 0, 300, 300};
  const auto pts = deploy_uniform(200, field, rng);
  const Network net(pts, field, 40.0);
  for (NodeId u = 0; u < net.size(); ++u) {
    for (const NodeId v : net.neighbors(u)) {
      EXPECT_TRUE(net.are_neighbors(v, u)) << u << " " << v;
      EXPECT_LE(distance(net.position(u), net.position(v)), 40.0);
    }
  }
}

// The O(1) link check and the neighbor tables must be one relation:
// are_neighbors(a, b) holds exactly when b is in a's row, on deployments
// of several seeds, densities and radio ranges, including a jitter-free
// grid whose lattice neighbors sit exactly at radio range.
TEST(Network, PredicateMatchesTableOnEveryPair) {
  struct Case {
    std::vector<Point> pts;
    Rect field;
    double range;
  };
  std::vector<Case> cases;
  for (const auto& [seed, n, range, degree] :
       {std::tuple{1, 300, 40.0, 20.0}, std::tuple{2, 250, 25.0, 8.0},
        std::tuple{3, 200, 63.5, 35.0}, std::tuple{4, 150, 40.0, 4.0}}) {
    Rng rng(static_cast<std::uint64_t>(seed));
    const double side = field_side_for_density(n, range, degree);
    const Rect field{0, 0, side, side};
    cases.push_back({deploy_uniform(n, field, rng), field, range});
  }
  Rng grid_rng(5);
  const Rect grid_field{0, 0, 100, 100};
  cases.push_back(
      {deploy_grid_jitter(25, grid_field, 0.0, grid_rng), grid_field, 20.0});

  const auto ascending = [](std::span<const NodeId> nb) {
    return std::adjacent_find(nb.begin(), nb.end(),
                              std::greater_equal<NodeId>()) == nb.end();
  };
  for (const Case& c : cases) {
    const Network net(c.pts, c.field, c.range);
    // GPSR's greedy and perimeter scans keep the first strict minimum,
    // which is the lowest id among ties only over ascending rows.
    const PlanarGraph rng_graph(net.topology(),
                                PlanarizationRule::RelativeNeighborhood);
    std::size_t links = 0;
    for (NodeId a = 0; a < net.size(); ++a) {
      const auto nb = net.neighbors(a);
      EXPECT_TRUE(ascending(nb)) << "row " << a << " not strictly ascending";
      EXPECT_TRUE(ascending(net.topology().planar().neighbors(a)))
          << "Gabriel row " << a << " not strictly ascending";
      EXPECT_TRUE(ascending(rng_graph.neighbors(a)))
          << "RNG row " << a << " not strictly ascending";
      for (NodeId b = 0; b < net.size(); ++b) {
        const bool in_row = std::binary_search(nb.begin(), nb.end(), b);
        ASSERT_EQ(net.are_neighbors(a, b), in_row) << a << " " << b;
        if (in_row) {
          const auto back = net.neighbors(b);
          EXPECT_TRUE(std::binary_search(back.begin(), back.end(), a))
              << "asymmetric " << a << " " << b;
          ++links;
        }
      }
    }
    EXPECT_GT(links, 0u);
  }
}

// A pair exactly radio_range apart is linked (the predicate is <=); one
// ulp further is not, and a transmit across that gap still asserts.
TEST(Network, PairAtExactlyRadioRangeIsLinked) {
  const Network exact({{0, 0}, {24, 32}}, Rect{0, 0, 50, 50}, 40.0);
  EXPECT_TRUE(exact.are_neighbors(0, 1));
  EXPECT_EQ(row(exact, 0), (std::vector<NodeId>{1}));

  auto beyond = Network({{0, 0}, {std::nextafter(40.0, 41.0), 0}},
                        Rect{0, 0, 50, 50}, 40.0);
  EXPECT_FALSE(beyond.are_neighbors(0, 1));
  EXPECT_TRUE(beyond.neighbors(0).empty());
  EXPECT_THROW(beyond.transmit(0, 1, MessageKind::Query, 64),
               AssertionError);

  auto linked = Network({{0, 0}, {24, 32}}, Rect{0, 0, 50, 50}, 40.0);
  EXPECT_TRUE(linked.transmit(0, 1, MessageKind::Query, 64));
  EXPECT_EQ(linked.traffic().total, 1u);
}

TEST(Network, NearestNode) {
  const auto net = make_line_network();
  EXPECT_EQ(net.nearest_node({5, 0}), 0u);
  EXPECT_EQ(net.nearest_node({46, 0}), 2u);
  EXPECT_EQ(net.nearest_node({500, 0}), 3u);
}

TEST(Network, NodesWithin) {
  const auto net = make_line_network();
  EXPECT_EQ(net.nodes_within({45, 0}, 16).size(), 2u);
  EXPECT_EQ(net.nodes_within({45, 0}, 50).size(), 4u);
}

TEST(Network, ConnectivityDetection) {
  const auto net = make_line_network();
  EXPECT_TRUE(net.is_connected());
  std::vector<Point> split{{0, 0}, {10, 0}, {500, 0}, {510, 0}};
  const Network broken(split, Rect{0, 0, 600, 10}, 40.0);
  EXPECT_FALSE(broken.is_connected());
}

TEST(Network, AverageDegreeNearDensityTarget) {
  Rng rng(23);
  const double side = field_side_for_density(900, 40.0, 20.0);
  const Rect field{0, 0, side, side};
  const auto pts = deploy_uniform(900, field, rng);
  const Network net(pts, field, 40.0);
  // Border effects pull the average a bit below 20.
  EXPECT_GT(net.average_degree(), 14.0);
  EXPECT_LT(net.average_degree(), 22.0);
}

TEST(Network, TransmitChargesLedgerAndNodes) {
  auto net = make_line_network();
  net.transmit(0, 1, MessageKind::Insert, 256);
  net.transmit(1, 2, MessageKind::Reply, 256);
  EXPECT_EQ(net.traffic().total, 2u);
  EXPECT_EQ(net.traffic().of(MessageKind::Insert), 1u);
  EXPECT_EQ(net.traffic().of(MessageKind::Reply), 1u);
  EXPECT_EQ(net.node(0).tx_count, 1u);
  EXPECT_EQ(net.node(1).rx_count, 1u);
  EXPECT_EQ(net.node(1).tx_count, 1u);
  EXPECT_GT(net.node(0).energy_spent_j, 0.0);
  EXPECT_GT(net.traffic().energy_j, 0.0);
}

TEST(Network, SelfTransmitIsFree) {
  auto net = make_line_network();
  net.transmit(2, 2, MessageKind::Query, 128);
  EXPECT_EQ(net.traffic().total, 0u);
}

TEST(Network, TransmitBetweenNonNeighborsAsserts) {
  auto net = make_line_network();
  EXPECT_THROW(net.transmit(0, 3, MessageKind::Query, 64), AssertionError);
}

TEST(Network, TransmitPathChargesEveryHop) {
  auto net = make_line_network();
  net.transmit_path({0, 1, 2, 3}, MessageKind::Query, 64);
  EXPECT_EQ(net.traffic().total, 3u);
  net.transmit_path({2}, MessageKind::Query, 64);  // single node: no hop
  EXPECT_EQ(net.traffic().total, 3u);
}

TEST(Network, TallySubtractionGivesDeltas) {
  auto net = make_line_network();
  net.transmit(0, 1, MessageKind::Query, 64);
  const auto before = net.traffic();
  net.transmit(1, 2, MessageKind::Reply, 64);
  net.transmit(2, 3, MessageKind::Reply, 64);
  const auto delta = net.traffic() - before;
  EXPECT_EQ(delta.total, 2u);
  EXPECT_EQ(delta.of(MessageKind::Reply), 2u);
  EXPECT_EQ(delta.of(MessageKind::Query), 0u);
}

TEST(Network, RejectsDegenerateConfigs) {
  std::vector<Point> pts{{0, 0}};
  EXPECT_THROW(Network({}, Rect{0, 0, 10, 10}, 40.0), ConfigError);
  EXPECT_THROW(Network(pts, Rect{0, 0, 10, 10}, 0.0), ConfigError);
}

TEST(MessageSizes, BitFormulas) {
  const MessageSizes s;
  EXPECT_EQ(s.event_bits(3), s.header_bits + 3 * s.attr_bits);
  EXPECT_EQ(s.query_bits(3), s.header_bits + 6 * s.query_bound_bits);
  EXPECT_EQ(s.reply_bits(3, 4), s.header_bits + 12 * s.attr_bits);
}

}  // namespace
}  // namespace poolnet::net
