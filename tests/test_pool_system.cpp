#include "core/pool_system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/error.h"
#include "fingerprint.h"
#include "connected_network.h"
#include "query/query_gen.h"
#include "query/workload.h"
#include "routing/gpsr.h"
#include "storage/brute_force_store.h"

namespace poolnet::core {
namespace {

using net::Network;
using net::NodeId;
using storage::Event;
using storage::RangeQuery;

struct Fixture {
  explicit Fixture(std::uint64_t seed, std::size_t n = 250,
                   std::size_t dims = 3, PoolConfig config = {})
      : oracle(dims) {
    network = connected_network(seed, n);
    gpsr = std::make_unique<routing::Gpsr>(*network);
    pool = std::make_unique<PoolSystem>(*network, *gpsr, dims, config);
  }

  std::unique_ptr<Network> network;
  std::unique_ptr<routing::Gpsr> gpsr;
  std::unique_ptr<PoolSystem> pool;
  storage::BruteForceStore oracle;
};

Event make_event(std::uint64_t id, std::initializer_list<double> vals) {
  Event e;
  e.id = id;
  e.source = 0;
  for (const double v : vals) e.values.push_back(v);
  return e;
}

std::vector<std::uint64_t> ids(const std::vector<Event>& evs) {
  std::vector<std::uint64_t> out;
  for (const auto& e : evs) out.push_back(e.id);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(PoolSystem, ChoosesPoolOfGreatestDimension) {
  Fixture fx(1);
  const auto c = fx.pool->choose_cell(0, make_event(1, {0.2, 0.9, 0.5}));
  EXPECT_EQ(c.pool_dim, 1u);
  // l = 10: HO = floor(0.9*10) = 9; VO = floor(0.5*100/10) = 5.
  EXPECT_EQ(c.offset, (CellOffset{9, 5}));
}

TEST(PoolSystem, InsertStoresAtCellIndexNode) {
  Fixture fx(2);
  const auto e = make_event(1, {0.3, 0.7, 0.1});
  const auto choice = fx.pool->choose_cell(5, e);
  const auto receipt = fx.pool->insert(5, e);
  EXPECT_EQ(receipt.stored_at, choice.index_node);
  EXPECT_EQ(fx.pool->stored_count(), 1u);
  EXPECT_EQ(fx.pool->cell_load(choice.pool_dim, choice.offset), 1u);
}

TEST(PoolSystem, TieStoresSingleCopyAtClosestCandidate) {
  Fixture fx(3);
  const auto e = make_event(1, {0.4, 0.4, 0.2});
  // Both P1 and P2 cells are candidates; exactly one copy is stored.
  fx.pool->insert(0, e);
  EXPECT_EQ(fx.pool->stored_count(), 1u);
  const Placement p0 = placement_for(e, 0);
  const Placement p1 = placement_for(e, 1);
  const auto off0 = cell_for_values(p0.v_d1, p0.v_d2, 10);
  const auto off1 = cell_for_values(p1.v_d1, p1.v_d2, 10);
  const std::size_t total =
      fx.pool->cell_load(0, off0) + fx.pool->cell_load(1, off1);
  EXPECT_EQ(total, 1u);
  // And the chosen cell is the geographically closer of the two.
  const auto choice = fx.pool->choose_cell(0, e);
  const Point src = fx.network->position(0);
  const double chosen_d = distance(
      fx.pool->grid().cell_center(choice.coord), src);
  const double d0 =
      distance(fx.pool->grid().cell_center(fx.pool->layout().cell(0, off0)), src);
  const double d1 =
      distance(fx.pool->grid().cell_center(fx.pool->layout().cell(1, off1)), src);
  EXPECT_DOUBLE_EQ(chosen_d, std::min(d0, d1));
}

TEST(PoolSystem, TiedEventIsStillRetrievable) {
  Fixture fx(4);
  const auto e = make_event(7, {0.4, 0.4, 0.2});
  fx.pool->insert(0, e);
  const RangeQuery q({{0.35, 0.45}, {0.35, 0.45}, {0.1, 0.3}});
  const auto receipt = fx.pool->execute(3, q);
  ASSERT_EQ(receipt.events.size(), 1u);
  EXPECT_EQ(receipt.events[0].id, 7u);
}

class PoolQueryCorrectness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PoolQueryCorrectness, ExactRangeMatchesOracle) {
  Fixture fx(GetParam());
  query::EventGenerator gen({.dims = 3}, GetParam() ^ 0x10);
  for (NodeId n = 0; n < fx.network->size(); ++n) {
    for (int i = 0; i < 3; ++i) {
      const auto e = gen.next(n);
      fx.pool->insert(n, e);
      fx.oracle.insert(n, e);
    }
  }
  query::QueryGenerator qgen({.dims = 3}, GetParam() ^ 0x20);
  Rng sink_rng(GetParam() ^ 0x30);
  for (int i = 0; i < 40; ++i) {
    const auto q = qgen.exact_range();
    const auto sink = static_cast<NodeId>(sink_rng.uniform_int(
        0, static_cast<std::int64_t>(fx.network->size()) - 1));
    EXPECT_EQ(ids(fx.pool->execute(sink, q).events), ids(fx.oracle.matching(q)))
        << "query " << q;
  }
}

TEST_P(PoolQueryCorrectness, PartialRangeMatchesOracle) {
  Fixture fx(GetParam() ^ 0x4444);
  query::EventGenerator gen({.dims = 3}, GetParam() ^ 0x40);
  for (NodeId n = 0; n < fx.network->size(); ++n) {
    const auto e = gen.next(n);
    fx.pool->insert(n, e);
    fx.oracle.insert(n, e);
  }
  query::QueryGenerator qgen({.dims = 3}, GetParam() ^ 0x50);
  Rng sink_rng(GetParam() ^ 0x60);
  for (int i = 0; i < 15; ++i) {
    for (const std::size_t m : {std::size_t{1}, std::size_t{2}}) {
      const auto q = qgen.partial_range(m);
      const auto sink = static_cast<NodeId>(sink_rng.uniform_int(
          0, static_cast<std::int64_t>(fx.network->size()) - 1));
      EXPECT_EQ(ids(fx.pool->execute(sink, q).events),
                ids(fx.oracle.matching(q)));
    }
  }
}

TEST_P(PoolQueryCorrectness, PointQueriesMatchOracle) {
  Fixture fx(GetParam() ^ 0x8888);
  query::EventGenerator gen({.dims = 3}, GetParam() ^ 0x70);
  std::vector<Event> inserted;
  for (NodeId n = 0; n < fx.network->size(); ++n) {
    const auto e = gen.next(n);
    fx.pool->insert(n, e);
    fx.oracle.insert(n, e);
    inserted.push_back(e);
  }
  // Exact-match point queries targeted at stored events must return them.
  for (int i = 0; i < 20; ++i) {
    const auto& e = inserted[static_cast<std::size_t>(i) * 7 % inserted.size()];
    RangeQuery::Bounds b;
    for (std::size_t d = 0; d < 3; ++d)
      b.push_back({e.values[d], e.values[d]});
    const RangeQuery q(b);
    const auto receipt = fx.pool->execute(0, q);
    EXPECT_EQ(ids(receipt.events), ids(fx.oracle.matching(q)));
    EXPECT_FALSE(receipt.events.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolQueryCorrectness,
                         ::testing::Values(11, 22, 33));

TEST(PoolSystem, QueryCostBreakdownConsistent) {
  Fixture fx(5);
  query::EventGenerator gen({.dims = 3}, 50);
  for (NodeId n = 0; n < fx.network->size(); ++n)
    fx.pool->insert(n, gen.next(n));
  query::QueryGenerator qgen({.dims = 3}, 51);
  const auto receipt = fx.pool->execute(9, qgen.exact_range());
  EXPECT_EQ(receipt.messages,
            receipt.query_messages + receipt.reply_messages);
}

TEST(PoolSystem, EmptyDerivedRangeSkipsPoolEntirely) {
  Fixture fx(6);
  // Q with max(L) > U_3: pool 2 contributes no relevant cells.
  const RangeQuery q({{0.2, 0.3}, {0.25, 0.35}, {0.21, 0.24}});
  EXPECT_EQ(relevant_cells(q, 2, 10).size(), 0u);
  // A query relevant nowhere costs nothing.
  const RangeQuery impossible({{0.9, 0.95}, {0.9, 0.95}, {0.0, 0.05}});
  // All three derived R_H are non-empty here, so instead check the
  // documented behaviour: cost is proportional to relevant cells.
  const auto cheap = fx.pool->relevant_cell_count(q);
  const auto receipt = fx.pool->execute(0, q);
  EXPECT_GT(receipt.messages, 0u);
  EXPECT_EQ(receipt.index_nodes_visited, cheap);
  (void)impossible;
}

TEST(PoolSystem, SplitterIsPoolIndexNodeClosestToSink) {
  Fixture fx(7);
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const auto sink = static_cast<NodeId>(rng.uniform_int(
        0, static_cast<std::int64_t>(fx.network->size()) - 1));
    for (std::size_t p = 0; p < 3; ++p) {
      const NodeId splitter = fx.pool->splitter_for(p, sink);
      const double ds =
          distance(fx.network->position(splitter), fx.network->position(sink));
      for (std::uint32_t ho = 0; ho < 10; ++ho) {
        for (std::uint32_t vo = 0; vo < 10; ++vo) {
          const NodeId idx =
              fx.pool->grid().index_node(fx.pool->layout().cell(p, {ho, vo}));
          EXPECT_LE(ds, distance(fx.network->position(idx),
                                 fx.network->position(sink)) + 1e-9);
        }
      }
    }
  }
}

TEST(PoolSystem, PartialQueryPruningIsPositionInsensitive) {
  // Pool's signature property (Figure 7(b)): the relevant-cell count does
  // not depend on WHICH dimension is unspecified, only on the range sizes.
  Fixture fx(8);
  for (std::size_t unspec = 0; unspec < 3; ++unspec) {
    RangeQuery::Bounds b;
    FixedVec<bool, storage::kMaxDims> spec;
    for (std::size_t d = 0; d < 3; ++d) {
      b.push_back({0.4, 0.5});
      spec.push_back(d != unspec);
    }
    const RangeQuery q(b, spec);
    // Count must be identical across positions by symmetry of Thm 3.2.
    static std::size_t reference = 0;
    const std::size_t count = fx.pool->relevant_cell_count(q);
    if (unspec == 0)
      reference = count;
    else
      EXPECT_EQ(count, reference);
  }
}

TEST(PoolSystem, DimensionMismatchThrows) {
  Fixture fx(9, 100);
  EXPECT_THROW(fx.pool->insert(0, make_event(1, {0.5})),
               poolnet::ConfigError);
  EXPECT_THROW(fx.pool->execute(0, RangeQuery({{0, 1}})), poolnet::ConfigError);
}

TEST(PoolSystem, LayoutMismatchThrows) {
  Fixture fx(10, 100);
  PoolConfig config;
  PoolLayout two_pools({{0, 0}, {12, 12}}, 10,
                       fx.pool->grid().cols(), fx.pool->grid().rows());
  EXPECT_THROW(
      PoolSystem(*fx.network, *fx.gpsr, 3, config, std::move(two_pools)),
      poolnet::ConfigError);
}

TEST(PoolSystem, InsertUsesArithmeticNotSearch) {
  // Theorem 3.1's point: the cell is computable without network traffic.
  Fixture fx(11, 100);
  const auto before = fx.network->traffic().total;
  (void)fx.pool->choose_cell(0, make_event(1, {0.1, 0.2, 0.3}));
  EXPECT_EQ(fx.network->traffic().total, before);
}

TEST(PoolSystem, EventsOnPoolBoundariesRetrievable) {
  Fixture fx(12);
  const std::vector<Event> edge_events{
      make_event(1, {1.0, 1.0, 1.0}), make_event(2, {0.0, 0.0, 0.0}),
      make_event(3, {1.0, 0.0, 0.0}), make_event(4, {0.5, 0.5, 0.5}),
      make_event(5, {1.0, 1.0, 0.0})};
  for (const auto& e : edge_events) {
    fx.pool->insert(0, e);
    fx.oracle.insert(0, e);
  }
  const RangeQuery all({{0, 1}, {0, 1}, {0, 1}});
  EXPECT_EQ(ids(fx.pool->execute(0, all).events),
            ids(fx.oracle.matching(all)));
}

// The cell-local skyline under ties: identical events, equal attribute
// sums, values one ulp apart (including a dominator whose floating-point
// sum equals its victim's), a cell of more than one zone-map block, and
// mirror rows that must stay invisible. Every attribute subset of three
// dimensions must answer exactly what the oracle's kernel does, and the
// receipts must hash to the recorded value.
TEST(PoolSystem, SkylineTiesMatchOracleForEverySubset) {
  PoolConfig config;
  config.replicas = 1;
  Fixture fx(31, 250, 3, config);
  std::uint64_t next_id = 1;
  Rng rng(17);
  const auto add = [&](std::initializer_list<double> vals) {
    Event e = make_event(next_id++, vals);
    e.source = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(fx.network->size()) - 1));
    fx.pool->insert(e.source, e);
    fx.oracle.insert(e.source, e);
  };

  for (int i = 0; i < 4; ++i) add({0.82, 0.61, 0.40});  // identical
  add({0.75, 0.5, 0.25});                               // equal sums,
  add({0.75, 0.25, 0.5});                               // different
  add({0.75, 0.375, 0.375});                            // coordinates
  // (0.875, 0.5, 2^-60) dominates (0.875, 0.5, 0) yet both sum to 1.375.
  add({0.875, 0.5, 0.0});
  add({0.875, 0.5, std::ldexp(1.0, -60)});
  const double up = std::nextafter(0.7, 1.0);
  const double down = std::nextafter(0.6, 0.0);
  add({0.7, 0.6, 0.5});  // one ulp apart, each way
  add({up, 0.6, 0.5});
  add({0.7, down, 0.5});
  add({up, down, std::nextafter(0.5, 1.0)});
  // One hot cell of more than one block, with its own tied top.
  for (int i = 0; i < 300; ++i)
    add({rng.uniform(0.91, 0.99), rng.uniform(0.55, 0.58),
         rng.uniform(0.2, 0.3)});
  add({0.99, 0.58, 0.3});
  add({0.99, 0.58, 0.3});
  for (int i = 0; i < 150; ++i)
    add({rng.uniform(), rng.uniform(), rng.uniform()});

  const auto hot = fx.pool->choose_cell(0, make_event(0, {0.95, 0.56, 0.25}));
  ASSERT_GT(fx.pool->cell_load(hot.pool_dim, hot.offset),
            storage::column::kBlockRows);
  ASSERT_GT(fx.pool->replica_count(), 0u);

  Fingerprint fp;
  for (unsigned mask = 1; mask < 8; ++mask) {
    FixedVec<bool, storage::kMaxDims> attrs;
    for (std::size_t d = 0; d < 3; ++d) attrs.push_back(((mask >> d) & 1) != 0);
    const storage::SkylineQuery q(3, attrs);
    std::vector<Event> want = fx.oracle.all();
    storage::skyline_filter(q, want);
    for (const NodeId sink : {NodeId{0}, NodeId{123}}) {
      const auto got = fx.pool->execute(sink, q);
      EXPECT_EQ(got.events, want) << "mask=" << mask << " sink=" << sink;
      fp.add_receipt(got);
    }
  }
  EXPECT_EQ(fp.hash(), 0x847254f4541239d7ULL) << std::hex << fp.hash();
}

}  // namespace
}  // namespace poolnet::core
