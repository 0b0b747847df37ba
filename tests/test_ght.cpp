#include "ght/ght_system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/error.h"
#include "connected_network.h"
#include "query/query_gen.h"
#include "query/workload.h"
#include "routing/gpsr.h"
#include "storage/brute_force_store.h"

namespace poolnet::ght {
namespace {

using net::Network;
using net::NodeId;
using storage::Event;
using storage::RangeQuery;

struct Fixture {
  explicit Fixture(std::uint64_t seed, std::size_t n = 250) : oracle(3) {
    network = connected_network(seed, n);
    gpsr = std::make_unique<routing::Gpsr>(*network);
    ght = std::make_unique<GhtSystem>(*network, *gpsr, 3);
  }

  std::unique_ptr<Network> network;
  std::unique_ptr<routing::Gpsr> gpsr;
  std::unique_ptr<GhtSystem> ght;
  storage::BruteForceStore oracle;
};

std::vector<std::uint64_t> ids(const std::vector<Event>& evs) {
  std::vector<std::uint64_t> out;
  for (const auto& e : evs) out.push_back(e.id);
  std::sort(out.begin(), out.end());
  return out;
}

RangeQuery point_query(const Event& e) {
  RangeQuery::Bounds b;
  for (std::size_t d = 0; d < e.dims(); ++d)
    b.push_back({e.values[d], e.values[d]});
  return RangeQuery(b);
}

TEST(Ght, InsertStoresAtHomeNode) {
  Fixture fx(1);
  query::EventGenerator gen({.dims = 3}, 11);
  for (int i = 0; i < 50; ++i) {
    const auto e = gen.next(static_cast<NodeId>(i % fx.network->size()));
    const auto r = fx.ght->insert(e.source, e);
    EXPECT_EQ(r.stored_at, fx.ght->home_node(e.values));
  }
  EXPECT_EQ(fx.ght->stored_count(), 50u);
}

TEST(Ght, SameValuesHashToSameHome) {
  Fixture fx(2);
  storage::Values v{0.25, 0.5, 0.75};
  EXPECT_EQ(fx.ght->home_node(v), fx.ght->home_node(v));
  // Values differing beyond the quantum hash (almost surely) elsewhere.
  storage::Values w{0.25, 0.5, 0.25};
  EXPECT_NE(fx.ght->home_node(v), fx.ght->home_node(w));
}

TEST(Ght, PointQueryFindsStoredEvent) {
  Fixture fx(3);
  query::EventGenerator gen({.dims = 3}, 13);
  std::vector<Event> inserted;
  for (NodeId n = 0; n < fx.network->size(); ++n) {
    const auto e = gen.next(n);
    fx.ght->insert(n, e);
    fx.oracle.insert(n, e);
    inserted.push_back(e);
  }
  Rng rng(14);
  for (int i = 0; i < 30; ++i) {
    const auto& target =
        inserted[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(inserted.size()) - 1))];
    const auto q = point_query(target);
    const auto r = fx.ght->execute(0, q);
    EXPECT_EQ(ids(r.events), ids(fx.oracle.matching(q)));
    EXPECT_FALSE(r.events.empty());
    EXPECT_EQ(r.index_nodes_visited, 1u);
  }
}

TEST(Ght, PointQueryMissReturnsEmpty) {
  Fixture fx(4);
  query::EventGenerator gen({.dims = 3}, 15);
  for (NodeId n = 0; n < fx.network->size(); ++n)
    fx.ght->insert(n, gen.next(n));
  const RangeQuery q({{0.123456, 0.123456},
                      {0.654321, 0.654321},
                      {0.999999, 0.999999}});
  const auto r = fx.ght->execute(7, q);
  EXPECT_TRUE(r.events.empty());
  EXPECT_EQ(r.reply_messages, 0u);
  EXPECT_GT(r.query_messages, 0u);
}

TEST(Ght, RangeQueryFloodsButStaysCorrect) {
  Fixture fx(5);
  query::EventGenerator gen({.dims = 3}, 16);
  for (NodeId n = 0; n < fx.network->size(); ++n) {
    const auto e = gen.next(n);
    fx.ght->insert(n, e);
    fx.oracle.insert(n, e);
  }
  query::QueryGenerator qgen({.dims = 3}, 17);
  for (int i = 0; i < 10; ++i) {
    const auto q = qgen.exact_range();
    const auto r = fx.ght->execute(3, q);
    EXPECT_EQ(ids(r.events), ids(fx.oracle.matching(q)));
    // A flood reaches everyone: at least n-1 query transmissions.
    EXPECT_GE(r.query_messages, fx.network->size() - 1);
  }
}

TEST(Ght, PartialQueryAlsoFloodsCorrectly) {
  Fixture fx(6);
  query::EventGenerator gen({.dims = 3}, 18);
  for (NodeId n = 0; n < fx.network->size(); ++n) {
    const auto e = gen.next(n);
    fx.ght->insert(n, e);
    fx.oracle.insert(n, e);
  }
  query::QueryGenerator qgen({.dims = 3}, 19);
  for (int i = 0; i < 5; ++i) {
    const auto q = qgen.partial_range(1);
    EXPECT_EQ(ids(fx.ght->execute(0, q).events), ids(fx.oracle.matching(q)));
  }
}

TEST(Ght, PointQueriesAreFarCheaperThanRangeFloods) {
  Fixture fx(7);
  query::EventGenerator gen({.dims = 3}, 20);
  std::vector<Event> inserted;
  for (NodeId n = 0; n < fx.network->size(); ++n) {
    const auto e = gen.next(n);
    fx.ght->insert(n, e);
    inserted.push_back(e);
  }
  const auto point_cost =
      fx.ght->execute(0, point_query(inserted[42])).messages;
  query::QueryGenerator qgen({.dims = 3}, 21);
  const auto range_cost = fx.ght->execute(0, qgen.exact_range()).messages;
  EXPECT_LT(point_cost * 5, range_cost);
}

TEST(Ght, AggregateMatchesOracle) {
  Fixture fx(8);
  query::EventGenerator gen({.dims = 3}, 22);
  for (NodeId n = 0; n < fx.network->size(); ++n) {
    const auto e = gen.next(n);
    fx.ght->insert(n, e);
    fx.oracle.insert(n, e);
  }
  query::QueryGenerator qgen({.dims = 3}, 23);
  for (int i = 0; i < 5; ++i) {
    const auto q = qgen.exact_range();
    for (const auto kind :
         {storage::AggregateKind::Count, storage::AggregateKind::Average}) {
      const auto want = fx.oracle.aggregate_oracle(q, kind, 1);
      const auto got = fx.ght->execute(0, storage::AggregateQuery{q, kind, 1});
      EXPECT_EQ(got.aggregate.count, want.count);
      EXPECT_NEAR(got.aggregate.value, want.value, 1e-9);
    }
  }
}

TEST(Ght, RejectsBadConfigs) {
  Fixture fx(9, 100);
  EXPECT_THROW(GhtSystem(*fx.network, *fx.gpsr, 0), poolnet::ConfigError);
  EXPECT_THROW(GhtSystem(*fx.network, *fx.gpsr, 3, GhtConfig{.quantum = 0.0}),
               poolnet::ConfigError);
  Event e;
  e.id = 1;
  e.source = 0;
  e.values.push_back(0.5);
  EXPECT_THROW(fx.ght->insert(0, e), poolnet::ConfigError);
}

}  // namespace
}  // namespace poolnet::ght
