// The greedy next-hop memo inside Gpsr must be invisible in every result:
// a long-lived router, whose tables are warm, evicted and rebound, returns
// exactly what a freshly built router (empty memo) computes for the same
// packet on the same network.
#include "routing/gpsr.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "net/deployment.h"

namespace poolnet::routing {
namespace {

using net::Network;
using net::NodeId;

Network connected_net(std::uint64_t seed, std::size_t n, Point hole = {},
                      double hole_radius = 0.0) {
  const double side = net::field_side_for_density(n, 40.0, 20.0);
  const Rect field{0, 0, side, side};
  for (std::uint64_t attempt = 0;; ++attempt) {
    Rng rng(seed + attempt * 1000003);
    std::vector<Point> pts;
    for (const Point p : net::deploy_uniform(n, field, rng))
      if (distance(p, hole) >= hole_radius) pts.push_back(p);
    Network net(std::move(pts), field, 40.0);
    if (net.is_connected()) return net;
  }
}

void expect_same_result(const RouteResult& got, const RouteResult& want) {
  EXPECT_EQ(got.path, want.path);
  EXPECT_EQ(got.delivered, want.delivered);
  EXPECT_EQ(got.exact, want.exact);
  EXPECT_EQ(got.perimeter_hops, want.perimeter_hops);
}

/// Routes from many sources to `dsts` (node targets) and `points`
/// (location targets), interleaving the destinations so converging legs
/// share tables and more destinations than slots force evictions; every
/// result is checked against a fresh router. Returns the summed
/// perimeter hops.
std::size_t check_interleaved(const Network& net, const Gpsr& warm,
                              const std::vector<NodeId>& dsts,
                              const std::vector<Point>& points, Rng& rng) {
  const auto n = static_cast<std::int64_t>(net.size());
  std::size_t perimeter = 0;
  for (int round = 0; round < 12; ++round) {
    for (const NodeId dst : dsts) {
      const auto src = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      if (!net.alive(src) || !net.alive(dst)) continue;
      const RouteResult got = warm.route_to_node(src, dst);
      expect_same_result(got, Gpsr(net).route_to_node(src, dst));
      perimeter += got.perimeter_hops;
    }
    for (const Point p : points) {
      const auto src = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      if (!net.alive(src)) continue;
      const RouteResult got = warm.route_to_location(src, p);
      expect_same_result(got, Gpsr(net).route_to_location(src, p));
      perimeter += got.perimeter_hops;
    }
  }
  return perimeter;
}

TEST(GpsrMemo, InterleavedDestinationsMatchFreshRouter) {
  const Network net = connected_net(31, 250);
  const Gpsr warm(net);
  Rng rng(310);
  // Seven node targets and three location targets: ten destinations
  // cycling through four slots.
  const std::vector<NodeId> dsts{0, 17, 249, 120, 17, 88, 201, 0, 5};
  std::vector<Point> points;
  for (int i = 0; i < 3; ++i)
    points.push_back({rng.uniform(0, net.field().max_x),
                      rng.uniform(0, net.field().max_y)});
  check_interleaved(net, warm, dsts, points, rng);
}

// A sink that every leg converges on keeps its table while other
// destinations come and go (DIM's sink->owner / owner->sink alternation).
TEST(GpsrMemo, AlternatingSinkAndOwnersMatchFreshRouter) {
  const Network net = connected_net(32, 300);
  const Gpsr warm(net);
  const NodeId sink = 0;
  Rng rng(320);
  for (int i = 0; i < 60; ++i) {
    const auto owner = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(net.size()) - 1));
    expect_same_result(warm.route_to_node(sink, owner),
                       Gpsr(net).route_to_node(sink, owner));
    expect_same_result(warm.route_to_node(owner, sink),
                       Gpsr(net).route_to_node(owner, sink));
  }
}

// A kill changes the greedy choices; tables filled before it must not be
// replayed after it.
TEST(GpsrMemo, RoutesAfterKillMatchFreshRouter) {
  Network net = connected_net(33, 300);
  const Gpsr warm(net);
  const NodeId sink = 7;
  const std::vector<NodeId> dsts{sink, 150, 299, 42, 263};
  const std::vector<Point> points{{net.field().max_x / 2, net.field().max_y / 2},
                                  {1.0, net.field().max_y - 1.0}};
  Rng rng(330);
  check_interleaved(net, warm, dsts, points, rng);

  // Kill interior nodes of legs the warm tables already hold.
  std::size_t killed = 0;
  for (const NodeId src : {NodeId{280}, NodeId{3}, NodeId{199}}) {
    const RouteResult r = warm.route_to_node(src, sink);
    if (r.path.size() < 3) continue;
    net.kill(r.path[r.path.size() / 2]);
    ++killed;
    // Right after each kill: same destination, new dead set.
    const RouteResult again = warm.route_to_node(src, sink);
    expect_same_result(again, Gpsr(net).route_to_node(src, sink));
    for (const NodeId n : again.path) EXPECT_TRUE(net.alive(n));
  }
  ASSERT_GT(killed, 0u);
  check_interleaved(net, warm, dsts, points, rng);
}

// A hole in the middle of the field leaves local minima around its rim,
// so legs across it enter perimeter mode; the memo must hand control to
// the face walk exactly where a fresh router does.
TEST(GpsrMemo, VoidForcesPerimeterAndMatchesFreshRouter) {
  const double side = net::field_side_for_density(400, 40.0, 20.0);
  const Point center{side / 2, side / 2};
  const Network net = connected_net(34, 400, center, side / 4);
  const Gpsr warm(net);
  // Destinations hugging the rim and one inside the hole itself.
  std::vector<NodeId> dsts;
  for (NodeId n = 0; n < net.size() && dsts.size() < 6; ++n)
    if (distance(net.position(n), center) < side / 4 + 30.0) dsts.push_back(n);
  ASSERT_GE(dsts.size(), 5u);
  const std::vector<Point> points{center,
                                  {center.x + side / 8, center.y - side / 8}};
  Rng rng(340);
  EXPECT_GT(check_interleaved(net, warm, dsts, points, rng), 0u)
      << "the void must force perimeter hops";
}

}  // namespace
}  // namespace poolnet::routing
