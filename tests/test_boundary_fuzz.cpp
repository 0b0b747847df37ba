// Boundary fuzzing: events and queries biased hard toward the values
// where floating-point and half-open-interval bugs live (0, 1, 0.5,
// cell edges, zone splits), checked end-to-end across all three DCS
// systems against the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/error.h"
#include "core/pool_system.h"
#include "dim/dim_system.h"
#include "ght/ght_system.h"
#include "connected_network.h"
#include "routing/gpsr.h"
#include "storage/brute_force_store.h"

namespace poolnet {
namespace {

using net::Network;
using net::NodeId;
using storage::Event;
using storage::RangeQuery;

/// Values drawn from a boundary-heavy distribution: exact cell edges for
/// l = 10 (multiples of 0.1), zone-split points (dyadic fractions), the
/// extremes, and a few uniform fillers.
double boundary_value(Rng& rng) {
  switch (rng.uniform_int(0, 5)) {
    case 0: return 0.0;
    case 1: return 1.0;
    case 2: return static_cast<double>(rng.uniform_int(0, 10)) / 10.0;
    case 3: return static_cast<double>(rng.uniform_int(0, 16)) / 16.0;
    case 4: return 0.5;
    default: return rng.uniform();
  }
}

struct Fixture {
  explicit Fixture(std::uint64_t seed) : oracle(3) {
    network = connected_network(seed, 200, 37);
    gpsr = std::make_unique<routing::Gpsr>(*network);
    pool = std::make_unique<core::PoolSystem>(*network, *gpsr, 3,
                                              core::PoolConfig{});
    dim = std::make_unique<dim::DimSystem>(*network, *gpsr, 3);
    ght = std::make_unique<ght::GhtSystem>(*network, *gpsr, 3);
  }

  std::unique_ptr<Network> network;
  std::unique_ptr<routing::Gpsr> gpsr;
  std::unique_ptr<core::PoolSystem> pool;
  std::unique_ptr<dim::DimSystem> dim;
  std::unique_ptr<ght::GhtSystem> ght;
  storage::BruteForceStore oracle;
};

std::vector<std::uint64_t> ids(const std::vector<Event>& evs) {
  std::vector<std::uint64_t> out;
  for (const auto& e : evs) out.push_back(e.id);
  std::sort(out.begin(), out.end());
  return out;
}

class BoundaryFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundaryFuzz, RangeQueriesExactOnBoundaryHeavyData) {
  Fixture fx(GetParam());
  Rng rng(GetParam() * 7919 + 1);
  for (int i = 0; i < 300; ++i) {
    Event e;
    e.id = static_cast<std::uint64_t>(i + 1);
    e.source = static_cast<NodeId>(i % fx.network->size());
    for (int d = 0; d < 3; ++d) e.values.push_back(boundary_value(rng));
    fx.pool->insert(e.source, e);
    fx.dim->insert(e.source, e);
    fx.oracle.insert(e.source, e);
  }

  for (int i = 0; i < 60; ++i) {
    RangeQuery::Bounds b;
    for (int d = 0; d < 3; ++d) {
      double lo = boundary_value(rng);
      double hi = boundary_value(rng);
      if (lo > hi) std::swap(lo, hi);
      b.push_back({lo, hi});
    }
    const RangeQuery q(b);
    const auto want = ids(fx.oracle.matching(q));
    EXPECT_EQ(ids(fx.pool->execute(0, q).events), want) << "Pool " << q;
    EXPECT_EQ(ids(fx.dim->execute(0, q).events), want) << "DIM " << q;
  }
}

TEST_P(BoundaryFuzz, PointQueriesAtStoredBoundaryValues) {
  Fixture fx(GetParam() ^ 0x5a5a);
  Rng rng(GetParam() * 31 + 3);
  std::vector<Event> inserted;
  for (int i = 0; i < 200; ++i) {
    Event e;
    e.id = static_cast<std::uint64_t>(i + 1);
    e.source = static_cast<NodeId>(i % fx.network->size());
    for (int d = 0; d < 3; ++d) e.values.push_back(boundary_value(rng));
    fx.pool->insert(e.source, e);
    fx.dim->insert(e.source, e);
    fx.ght->insert(e.source, e);
    fx.oracle.insert(e.source, e);
    inserted.push_back(e);
  }
  for (int i = 0; i < 40; ++i) {
    const auto& target = inserted[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(inserted.size()) - 1))];
    RangeQuery::Bounds b;
    for (std::size_t d = 0; d < 3; ++d)
      b.push_back({target.values[d], target.values[d]});
    const RangeQuery q(b);
    const auto want = ids(fx.oracle.matching(q));
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(ids(fx.pool->execute(0, q).events), want) << "Pool " << q;
    EXPECT_EQ(ids(fx.dim->execute(0, q).events), want) << "DIM " << q;
    EXPECT_EQ(ids(fx.ght->execute(0, q).events), want) << "GHT " << q;
  }
}

TEST_P(BoundaryFuzz, AggregatesExactOnBoundaryHeavyData) {
  Fixture fx(GetParam() ^ 0xa5a5);
  Rng rng(GetParam() * 13 + 5);
  for (int i = 0; i < 200; ++i) {
    Event e;
    e.id = static_cast<std::uint64_t>(i + 1);
    e.source = static_cast<NodeId>(i % fx.network->size());
    for (int d = 0; d < 3; ++d) e.values.push_back(boundary_value(rng));
    fx.pool->insert(e.source, e);
    fx.dim->insert(e.source, e);
    fx.oracle.insert(e.source, e);
  }
  for (int i = 0; i < 10; ++i) {
    RangeQuery::Bounds b;
    for (int d = 0; d < 3; ++d) {
      double lo = boundary_value(rng);
      double hi = boundary_value(rng);
      if (lo > hi) std::swap(lo, hi);
      b.push_back({lo, hi});
    }
    const RangeQuery q(b);
    const auto want =
        fx.oracle.aggregate_oracle(q, storage::AggregateKind::Sum, 2);
    const storage::AggregateQuery sum{q, storage::AggregateKind::Sum, 2};
    const auto pr = fx.pool->execute(0, sum);
    const auto dr = fx.dim->execute(0, sum);
    EXPECT_EQ(pr.aggregate.count, want.count) << q;
    EXPECT_EQ(dr.aggregate.count, want.count) << q;
    EXPECT_NEAR(pr.aggregate.value, want.value, 1e-9);
    EXPECT_NEAR(dr.aggregate.value, want.value, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundaryFuzz,
                         ::testing::Values(1, 2, 3, 4));

TEST(GpsrPathological, PerfectGridTopology) {
  // Exactly collinear rows/columns: degenerate geometry for the Gabriel
  // test and the right-hand rule. Routing must still always deliver.
  std::vector<Point> pts;
  for (int y = 0; y < 10; ++y)
    for (int x = 0; x < 10; ++x)
      pts.push_back({x * 30.0, y * 30.0});
  net::Network network(pts, Rect{0, 0, 280, 280}, 40.0);
  ASSERT_TRUE(network.is_connected());
  const routing::Gpsr gpsr(network);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const auto src = static_cast<NodeId>(rng.uniform_int(0, 99));
    const auto dst = static_cast<NodeId>(rng.uniform_int(0, 99));
    const auto r = gpsr.route_to_node(src, dst);
    EXPECT_TRUE(r.exact) << src << "->" << dst;
  }
}

TEST(GpsrPathological, SingleLineOfNodes) {
  std::vector<Point> pts;
  for (int x = 0; x < 30; ++x) pts.push_back({x * 25.0, 50.0});
  net::Network network(pts, Rect{0, 0, 750, 100}, 40.0);
  const routing::Gpsr gpsr(network);
  const auto r = gpsr.route_to_node(0, 29);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.hops(), 29u);
}

TEST(GpsrPathological, StarTopology) {
  // Hub and spokes: spokes only reach each other through the hub.
  std::vector<Point> pts{{50, 50}};
  constexpr double kPi = 3.14159265358979323846;
  for (int i = 0; i < 8; ++i) {
    pts.push_back({50 + 35 * std::cos(i * kPi / 4),
                   50 + 35 * std::sin(i * kPi / 4)});
  }
  net::Network network(pts, Rect{0, 0, 100, 100}, 38.0);
  ASSERT_TRUE(network.is_connected());
  const routing::Gpsr gpsr(network);
  for (NodeId a = 1; a <= 8; ++a) {
    for (NodeId b = 1; b <= 8; ++b) {
      const auto r = gpsr.route_to_node(a, b);
      EXPECT_TRUE(r.exact) << a << "->" << b;
    }
  }
}

}  // namespace
}  // namespace poolnet
