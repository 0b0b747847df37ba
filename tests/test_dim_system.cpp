#include "dim/dim_system.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "connected_network.h"
#include "query/query_gen.h"
#include "query/workload.h"
#include "routing/gpsr.h"
#include "storage/brute_force_store.h"

namespace poolnet::dim {
namespace {

using net::Network;
using net::NodeId;
using storage::Event;
using storage::RangeQuery;

struct Fixture {
  explicit Fixture(std::uint64_t seed, std::size_t n = 250,
                   std::size_t dims = 3)
      : oracle(dims) {
    network = connected_network(seed, n);
    gpsr = std::make_unique<routing::Gpsr>(*network);
    dim = std::make_unique<DimSystem>(*network, *gpsr, dims);
  }

  std::unique_ptr<Network> network;
  std::unique_ptr<routing::Gpsr> gpsr;
  std::unique_ptr<DimSystem> dim;
  storage::BruteForceStore oracle;
};

std::vector<std::uint64_t> ids(const std::vector<Event>& evs) {
  std::vector<std::uint64_t> out;
  for (const auto& e : evs) out.push_back(e.id);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(DimSystem, InsertStoresAtZoneOwner) {
  Fixture fx(1);
  query::EventGenerator gen({.dims = 3}, 10);
  for (int i = 0; i < 50; ++i) {
    const auto e = gen.next(static_cast<NodeId>(i % fx.network->size()));
    const auto receipt = fx.dim->insert(e.source, e);
    const ZoneIndex leaf = fx.dim->tree().leaf_for_event(e);
    EXPECT_EQ(receipt.stored_at, fx.dim->tree().zone(leaf).owner);
  }
  EXPECT_EQ(fx.dim->stored_count(), 50u);
}

TEST(DimSystem, InsertChargesRoutingMessages) {
  Fixture fx(2);
  query::EventGenerator gen({.dims = 3}, 20);
  std::uint64_t total = 0;
  for (int i = 0; i < 100; ++i) {
    const auto e = gen.next(static_cast<NodeId>(i % fx.network->size()));
    total += fx.dim->insert(e.source, e).messages;
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(fx.network->traffic().of(net::MessageKind::Insert), total);
}

class DimQueryCorrectness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DimQueryCorrectness, ResultsMatchOracleOnExactRange) {
  Fixture fx(GetParam());
  query::EventGenerator gen({.dims = 3}, GetParam() ^ 0xaa);
  for (NodeId n = 0; n < fx.network->size(); ++n) {
    for (int i = 0; i < 3; ++i) {
      const auto e = gen.next(n);
      fx.dim->insert(n, e);
      fx.oracle.insert(n, e);
    }
  }
  query::QueryGenerator qgen({.dims = 3}, GetParam() ^ 0xbb);
  Rng sink_rng(GetParam() ^ 0xcc);
  for (int i = 0; i < 40; ++i) {
    const auto q = qgen.exact_range();
    const auto sink = static_cast<NodeId>(
        sink_rng.uniform_int(0, static_cast<std::int64_t>(fx.network->size()) - 1));
    const auto receipt = fx.dim->execute(sink, q);
    EXPECT_EQ(ids(receipt.events), ids(fx.oracle.matching(q)))
        << "query " << q;
  }
}

TEST_P(DimQueryCorrectness, ResultsMatchOracleOnPartialRange) {
  Fixture fx(GetParam() ^ 0x1234);
  query::EventGenerator gen({.dims = 3}, GetParam());
  for (NodeId n = 0; n < fx.network->size(); ++n) {
    const auto e = gen.next(n);
    fx.dim->insert(n, e);
    fx.oracle.insert(n, e);
  }
  query::QueryGenerator qgen({.dims = 3}, GetParam() ^ 0xdd);
  Rng sink_rng(GetParam() ^ 0xee);
  for (int i = 0; i < 20; ++i) {
    for (const std::size_t m : {std::size_t{1}, std::size_t{2}}) {
      const auto q = qgen.partial_range(m);
      const auto sink = static_cast<NodeId>(sink_rng.uniform_int(
          0, static_cast<std::int64_t>(fx.network->size()) - 1));
      const auto receipt = fx.dim->execute(sink, q);
      EXPECT_EQ(ids(receipt.events), ids(fx.oracle.matching(q)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DimQueryCorrectness,
                         ::testing::Values(101, 202, 303));

TEST(DimSystem, QueryCostBreakdownConsistent) {
  Fixture fx(5);
  query::EventGenerator gen({.dims = 3}, 55);
  for (NodeId n = 0; n < fx.network->size(); ++n)
    fx.dim->insert(n, gen.next(n));
  query::QueryGenerator qgen({.dims = 3}, 56);
  const auto receipt = fx.dim->execute(0, qgen.exact_range());
  EXPECT_EQ(receipt.messages,
            receipt.query_messages + receipt.reply_messages);
}

TEST(DimSystem, WiderQueriesVisitMoreZones) {
  Fixture fx(6);
  const RangeQuery narrow({{0.4, 0.45}, {0.4, 0.45}, {0.4, 0.45}});
  const RangeQuery wide({{0.1, 0.9}, {0.1, 0.9}, {0.1, 0.9}});
  EXPECT_LT(fx.dim->relevant_zone_count(narrow),
            fx.dim->relevant_zone_count(wide));
}

TEST(DimSystem, UnspecifiedFirstDimensionCostsMoreMessages) {
  // The k-d ordering effect behind Figure 7(b): a don't-care on dim 0
  // splits the query at the ROOT of the zone tree, so subqueries must
  // travel across the whole network; a don't-care on the last dimension
  // splits deep, among adjacent zones. The zone COUNT is similar either
  // way — the forwarding distance is what differs.
  Fixture fx(7, 500);
  query::EventGenerator gen({.dims = 3}, 70);
  for (NodeId n = 0; n < fx.network->size(); ++n)
    fx.dim->insert(n, gen.next(n));

  const auto cost_with_unspecified = [&](std::size_t unspec) {
    std::uint64_t total = 0;
    Rng rng(71);
    for (int i = 0; i < 40; ++i) {
      RangeQuery::Bounds b;
      FixedVec<bool, storage::kMaxDims> spec;
      const double lo = rng.uniform(0.0, 0.8);
      for (std::size_t d = 0; d < 3; ++d) {
        b.push_back({lo, lo + 0.05});
        spec.push_back(d != unspec);
      }
      const auto sink = static_cast<NodeId>(rng.uniform_int(
          0, static_cast<std::int64_t>(fx.network->size()) - 1));
      total += fx.dim->execute(sink, RangeQuery(b, spec)).query_messages;
    }
    return total;
  };
  EXPECT_GT(cost_with_unspecified(0), cost_with_unspecified(2));
}

TEST(DimSystem, EmptySystemReturnsNothing) {
  Fixture fx(8, 100);
  const auto receipt =
      fx.dim->execute(0, RangeQuery({{0, 1}, {0, 1}, {0, 1}}));
  EXPECT_TRUE(receipt.events.empty());
  EXPECT_EQ(receipt.reply_messages, 0u);
  EXPECT_GT(receipt.query_messages, 0u);  // the query still tours zones
}

TEST(DimSystem, RejectsDimensionMismatch) {
  Fixture fx(9, 50);
  Event e;
  e.id = 1;
  e.source = 0;
  e.values.push_back(0.5);
  EXPECT_THROW(fx.dim->insert(0, e), poolnet::ConfigError);
  EXPECT_THROW(fx.dim->execute(0, RangeQuery({{0, 1}})), poolnet::ConfigError);
}

TEST(DimSystem, StoredEventsCountedOnOwners) {
  Fixture fx(10, 100);
  query::EventGenerator gen({.dims = 3}, 5);
  for (int i = 0; i < 300; ++i) fx.dim->insert(0, gen.next(0));
  std::uint64_t total = 0;
  for (const auto& node : fx.network->nodes()) total += node.stored_events;
  EXPECT_EQ(total, 300u);
}

}  // namespace
}  // namespace poolnet::dim
