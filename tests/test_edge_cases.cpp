// Degenerate and boundary configurations across the whole stack: the
// cases a downstream user will eventually hit.
#include <gtest/gtest.h>

#include <memory>

#include "common/error.h"
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
using storage::Event;
using storage::RangeQuery;

std::unique_ptr<Network> connected_net(std::uint64_t seed, std::size_t n,
                                       double field_side) {
  const Rect field{0, 0, field_side, field_side};
  for (std::uint64_t attempt = 0;; ++attempt) {
    Rng rng(seed + attempt * 101);
    auto pts = net::deploy_uniform(n, field, rng);
    auto candidate = std::make_unique<Network>(std::move(pts), field, 40.0);
    if (candidate->is_connected()) return candidate;
  }
}

Event make_event(std::uint64_t id, std::initializer_list<double> vals) {
  Event e;
  e.id = id;
  e.source = 0;
  for (const double v : vals) e.values.push_back(v);
  return e;
}

TEST(EdgeCases, OneDimensionalDeploymentWorksEndToEnd) {
  // k = 1: a single pool, v_d2 always 0, vertical pruning trivial.
  auto net = connected_net(1, 150, 200);
  const routing::Gpsr gpsr(*net);
  core::PoolSystem pool(*net, gpsr, 1, core::PoolConfig{});
  storage::BruteForceStore oracle(1);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    const auto e = make_event(static_cast<std::uint64_t>(i + 1),
                              {rng.uniform()});
    pool.insert(static_cast<NodeId>(i % net->size()), e);
    oracle.insert(0, e);
  }
  for (int i = 0; i < 10; ++i) {
    const double lo = rng.uniform(0, 0.8);
    const RangeQuery q({{lo, lo + 0.2}});
    EXPECT_EQ(pool.execute(0, q).events.size(), oracle.matching(q).size());
  }
}

TEST(EdgeCases, PoolSideOneIsASingleCellPerPool) {
  auto net = connected_net(3, 150, 200);
  const routing::Gpsr gpsr(*net);
  core::PoolConfig config;
  config.side = 1;
  core::PoolSystem pool(*net, gpsr, 3, config);
  storage::BruteForceStore oracle(3);
  query::EventGenerator gen({.dims = 3}, 4);
  for (int i = 0; i < 60; ++i) {
    const auto e = gen.next(static_cast<NodeId>(i % net->size()));
    pool.insert(e.source, e);
    oracle.insert(e.source, e);
  }
  query::QueryGenerator qgen({.dims = 3}, 5);
  for (int i = 0; i < 10; ++i) {
    const auto q = qgen.exact_range();
    EXPECT_EQ(pool.execute(0, q).events.size(), oracle.matching(q).size());
    // Never more than one relevant cell per pool when l = 1.
    EXPECT_LE(pool.relevant_cell_count(q), 3u);
  }
}

TEST(EdgeCases, MaximumDimensionalityDeployment) {
  auto net = connected_net(6, 200, 250);
  const routing::Gpsr gpsr(*net);
  core::PoolConfig config;
  config.side = 4;  // 8 pools of 4x4 must fit the grid
  core::PoolSystem pool(*net, gpsr, storage::kMaxDims, config);
  dim::DimSystem dim_sys(*net, gpsr, storage::kMaxDims);
  storage::BruteForceStore oracle(storage::kMaxDims);
  query::EventGenerator gen({.dims = storage::kMaxDims}, 7);
  for (int i = 0; i < 100; ++i) {
    const auto e = gen.next(static_cast<NodeId>(i % net->size()));
    pool.insert(e.source, e);
    dim_sys.insert(e.source, e);
    oracle.insert(e.source, e);
  }
  query::QueryGenerator qgen({.dims = storage::kMaxDims}, 8);
  for (int i = 0; i < 5; ++i) {
    const auto q = qgen.partial_range(4);
    const auto want = oracle.matching(q).size();
    EXPECT_EQ(pool.execute(0, q).events.size(), want);
    EXPECT_EQ(dim_sys.execute(0, q).events.size(), want);
  }
}

TEST(EdgeCases, TwoNodeNetwork) {
  std::vector<Point> pts{{10, 10}, {30, 10}};
  Network net(pts, Rect{0, 0, 60, 60}, 40.0);
  const routing::Gpsr gpsr(net);
  core::PoolConfig config;
  config.side = 2;
  core::PoolSystem pool(net, gpsr, 2, config);
  pool.insert(0, make_event(1, {0.9, 0.2}));
  const RangeQuery q({{0.8, 1.0}, {0.0, 0.5}});
  const auto r = pool.execute(1, q);
  ASSERT_EQ(r.events.size(), 1u);
}

TEST(EdgeCases, AllEventsIdenticalValues) {
  // Hammers one cell; storage and retrieval must stay exact.
  auto net = connected_net(9, 150, 200);
  const routing::Gpsr gpsr(*net);
  core::PoolSystem pool(*net, gpsr, 3, core::PoolConfig{});
  for (int i = 0; i < 200; ++i) {
    pool.insert(static_cast<NodeId>(i % net->size()),
                make_event(static_cast<std::uint64_t>(i + 1),
                           {0.37, 0.21, 0.11}));
  }
  const RangeQuery hit({{0.37, 0.37}, {0.21, 0.21}, {0.11, 0.11}});
  EXPECT_EQ(pool.execute(0, hit).events.size(), 200u);
  const RangeQuery miss({{0.38, 0.39}, {0.21, 0.21}, {0.11, 0.11}});
  EXPECT_TRUE(pool.execute(0, miss).events.empty());
}

TEST(EdgeCases, DegenerateQueryAtExactBoundaries) {
  auto net = connected_net(10, 150, 200);
  const routing::Gpsr gpsr(*net);
  core::PoolSystem pool(*net, gpsr, 3, core::PoolConfig{});
  dim::DimSystem dim_sys(*net, gpsr, 3);
  // Events exactly on cell/zone boundaries.
  const std::vector<Event> events{
      make_event(1, {0.5, 0.25, 0.0}), make_event(2, {1.0, 0.5, 0.5}),
      make_event(3, {0.1, 0.1, 0.1}),  make_event(4, {0.0, 0.0, 1.0})};
  for (const auto& e : events) {
    pool.insert(0, e);
    dim_sys.insert(0, e);
  }
  // Point queries at those exact values find them in both systems.
  for (const auto& e : events) {
    RangeQuery::Bounds b;
    for (std::size_t d = 0; d < 3; ++d)
      b.push_back({e.values[d], e.values[d]});
    const RangeQuery q(b);
    EXPECT_EQ(pool.execute(0, q).events.size(), 1u) << e;
    EXPECT_EQ(dim_sys.execute(0, q).events.size(), 1u) << e;
  }
}

TEST(EdgeCases, ZeroVolumeRangeQueryStillWellFormed) {
  const RangeQuery q({{0.5, 0.5}, {0.2, 0.8}, {0.3, 0.3}});
  EXPECT_DOUBLE_EQ(q.volume(), 0.0);
  EXPECT_EQ(q.type(), storage::QueryType::ExactMatchRange);
}

TEST(EdgeCases, SinkIsAlsoStoringNode) {
  // Self-delivery legs must charge nothing and still return results.
  auto net = connected_net(11, 150, 200);
  const routing::Gpsr gpsr(*net);
  core::PoolSystem pool(*net, gpsr, 3, core::PoolConfig{});
  const auto e = make_event(1, {0.6, 0.3, 0.1});
  const auto receipt = pool.insert(0, e);
  const NodeId holder = receipt.stored_at;
  const RangeQuery q({{0.55, 0.65}, {0.25, 0.35}, {0.05, 0.15}});
  const auto r = pool.execute(holder, q);  // sink == storage node
  EXPECT_EQ(r.events.size(), 1u);
}

TEST(EdgeCases, VeryDenseNetworkStillRoutes) {
  // 300 nodes in a tiny field: everyone hears everyone; GPSR should be
  // single-hop and planarization must not blow up.
  Rng rng(12);
  const Rect field{0, 0, 30, 30};
  auto pts = net::deploy_uniform(300, field, rng);
  Network net(std::move(pts), field, 40.0);
  EXPECT_TRUE(net.is_connected());
  const routing::Gpsr gpsr(net);
  for (int i = 0; i < 20; ++i) {
    const auto r = gpsr.route_to_node(
        static_cast<NodeId>(i), static_cast<NodeId>(299 - i));
    EXPECT_TRUE(r.exact);
    EXPECT_EQ(r.hops(), 1u);
  }
}

TEST(EdgeCases, PoolTooLargeForFieldThrows) {
  auto net = connected_net(13, 100, 100);  // 20x20 cells at alpha=5
  const routing::Gpsr gpsr(*net);
  core::PoolConfig config;
  config.side = 30;
  EXPECT_THROW(core::PoolSystem(*net, gpsr, 3, config), ConfigError);
}

TEST(EdgeCases, EmptySystemQueriesAreCheapAndEmpty) {
  auto net = connected_net(14, 200, 250);
  const routing::Gpsr gpsr(*net);
  core::PoolSystem pool(*net, gpsr, 3, core::PoolConfig{});
  query::QueryGenerator qgen({.dims = 3}, 15);
  const auto r = pool.execute(0, qgen.exact_range());
  EXPECT_TRUE(r.events.empty());
  EXPECT_EQ(r.reply_messages, 0u);
}

}  // namespace
}  // namespace poolnet
