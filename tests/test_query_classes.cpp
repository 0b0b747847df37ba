// Skyline and k-nearest-event query classes (DESIGN.md §15).
//
// The contract under test: every system's DISTRIBUTED answer — Pool's
// corner-ordered cell pruning, DIM's zone-corner pruning, GHT's flood,
// the central stores' zone-map block/page vetoes — must be byte-identical
// to the canonical local kernels (skyline_filter / knn_filter) run over
// everything the oracle holds, across seeds and dimensionalities. Plus:
// dominance pruning must engage at zone-map block boundaries without ever
// skipping an equal-corner (tie) block, and a one-request execute_batch()
// must be byte-identical to execute().
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "bench_support/testbed.h"
#include "common/error.h"
#include "query/query_gen.h"
#include "query/workload.h"
#include "storage/brute_force_store.h"
#include "storage/column/column_store.h"
#include "storage/query_request.h"
#include "storage/store_config.h"

namespace poolnet {
namespace {

using net::NodeId;
using storage::Event;
using storage::KNearestQuery;
using storage::QueryReceipt;
using storage::QueryRequest;
using storage::RangeQuery;
using storage::SkylineQuery;
using storage::Values;

/// All four systems over ONE deployment and workload, from the testbed:
/// Pool, DIM, GHT, the paged central store with a tiny pool so queries
/// actually page, and the flat oracle.
struct FourSystems {
  FourSystems(std::uint64_t seed, std::size_t dims, std::size_t nodes = 150) {
    benchsup::TestbedConfig config;
    config.nodes = nodes;
    config.seed = seed;
    config.dims = dims;
    tb = std::make_unique<benchsup::Testbed>(config);
    tb->insert_workload();
    ght = &tb->deploy(benchsup::SystemKind::Ght);
    storage::StoreConfig store;
    store.kind = storage::StoreKind::Paged;
    store.paged.pool_pages = 4;
    store.paged.page_bytes = 512;
    paged = &tb->deploy(benchsup::SystemKind::Central, store);
  }

  /// Every system that must agree (the flat oracle included: its skyline
  /// override prunes too, so it is itself under test).
  std::vector<storage::DcsSystem*> systems() {
    return {&tb->pool(), &tb->dim(), ght, paged, &tb->oracle()};
  }

  /// Canonical reference: the local kernel over every stored event.
  std::vector<Event> reference(const QueryRequest& request) const {
    std::vector<Event> all = tb->oracle().all();
    switch (request.cls()) {
      case storage::QueryClass::Skyline:
        storage::skyline_filter(request.skyline(), all);
        break;
      case storage::QueryClass::KNearest:
        storage::knn_filter(request.k_nearest(), all);
        break;
      case storage::QueryClass::Aggregate:  // a value, not events
        all.clear();
        break;
      case storage::QueryClass::Range: {
        std::vector<Event> matching;
        for (Event& e : all)
          if (request.range().matches(e)) matching.push_back(e);
        all = std::move(matching);
        break;
      }
    }
    return all;
  }

  std::unique_ptr<benchsup::Testbed> tb;
  storage::DcsSystem* ght = nullptr;
  storage::DcsSystem* paged = nullptr;
};

// ------------------------------------------------- cross-system equivalence

class QueryClassSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueryClassSeeds, SkylineMatchesBruteForceAcrossDims) {
  for (std::size_t dims = 2; dims <= 5; ++dims) {
    FourSystems fx(GetParam(), dims);
    query::QueryGenerator gen({.dims = dims}, GetParam() * 17 + dims);
    Rng rng(GetParam() * 29 + dims);
    for (int trial = 0; trial < 5; ++trial) {
      const SkylineQuery q = gen.skyline_query();
      const std::vector<Event> want = fx.reference(q);
      ASSERT_FALSE(want.empty());  // a nonempty store always has a skyline
      for (storage::DcsSystem* sys : fx.systems()) {
        const NodeId sink = static_cast<NodeId>(rng.uniform_int(
            0, static_cast<std::int64_t>(fx.tb->config().nodes) - 1));
        const QueryReceipt got = sys->execute(sink, q);
        EXPECT_EQ(got.events, want)
            << sys->name() << " skyline diverged (dims=" << dims
            << ", trial=" << trial << ")";
      }
    }
  }
}

TEST_P(QueryClassSeeds, KNearestMatchesBruteForceAcrossDims) {
  for (std::size_t dims = 2; dims <= 5; ++dims) {
    FourSystems fx(GetParam(), dims);
    query::QueryGenerator gen({.dims = dims}, GetParam() * 43 + dims);
    Rng rng(GetParam() * 53 + dims);
    for (int trial = 0; trial < 5; ++trial) {
      const KNearestQuery q = gen.knn_query(/*k_max=*/8);
      const std::vector<Event> want = fx.reference(q);
      ASSERT_EQ(want.size(), std::min<std::size_t>(q.k, fx.tb->oracle().stored_count()));
      for (storage::DcsSystem* sys : fx.systems()) {
        const NodeId sink = static_cast<NodeId>(rng.uniform_int(
            0, static_cast<std::int64_t>(fx.tb->config().nodes) - 1));
        const QueryReceipt got = sys->execute(sink, q);
        EXPECT_EQ(got.events, want)
            << sys->name() << " k-NN diverged (dims=" << dims
            << ", k=" << q.k << ", trial=" << trial << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryClassSeeds, ::testing::Values(1, 2, 3));

TEST(QueryClasses, KLargerThanStoreReturnsEverythingNearestFirst) {
  FourSystems fx(4, 3);
  KNearestQuery q;
  q.target = Values{0.5, 0.5, 0.5};
  q.k = fx.tb->oracle().stored_count() + 5;
  const std::vector<Event> want = fx.reference(q);
  ASSERT_EQ(want.size(), fx.tb->oracle().stored_count());
  for (storage::DcsSystem* sys : fx.systems())
    EXPECT_EQ(sys->execute(0, q).events, want) << sys->name();
}

TEST(QueryClasses, SingleAttributeSkylineIsTheMaximum) {
  FourSystems fx(5, 3);
  FixedVec<bool, storage::kMaxDims> attrs(3, false);
  attrs[1] = true;
  const SkylineQuery q(3, attrs);
  const std::vector<Event> want = fx.reference(q);
  ASSERT_FALSE(want.empty());
  // Everything in the answer is tied at the attribute-1 maximum.
  for (const Event& e : want)
    EXPECT_DOUBLE_EQ(e.values[1], want.front().values[1]);
  for (storage::DcsSystem* sys : fx.systems())
    EXPECT_EQ(sys->execute(0, q).events, want) << sys->name();
}

TEST(QueryClasses, EmptyStoreAnswersEmpty) {
  benchsup::TestbedConfig config;
  config.nodes = 120;
  config.seed = 6;
  benchsup::Testbed tb(config);  // no insert_workload()
  const SkylineQuery sq(3);
  KNearestQuery kq;
  kq.target = Values{0.2, 0.4, 0.6};
  kq.k = 3;
  for (storage::DcsSystem* sys :
       {static_cast<storage::DcsSystem*>(&tb.pool()),
        static_cast<storage::DcsSystem*>(&tb.dim()),
        static_cast<storage::DcsSystem*>(&tb.oracle())}) {
    EXPECT_TRUE(sys->execute(0, sq).events.empty()) << sys->name();
    EXPECT_TRUE(sys->execute(0, kq).events.empty()) << sys->name();
  }
}

TEST(QueryClasses, RejectsDimensionalityMismatch) {
  FourSystems fx(7, 3);
  const SkylineQuery sq(2);
  KNearestQuery kq;
  kq.target = Values{0.5, 0.5};
  for (storage::DcsSystem* sys : fx.systems()) {
    EXPECT_THROW(sys->execute(0, sq), ConfigError) << sys->name();
    EXPECT_THROW(sys->execute(0, kq), ConfigError) << sys->name();
  }
}

// ------------------------------------- pruning at zone-map block boundaries

TEST(QueryClasses, SkylinePruningSkipsDominatedBlocks) {
  storage::BruteForceStore store(2);
  Event dominator;
  dominator.id = 1;
  dominator.values = Values{0.9, 0.9};
  store.insert(0, dominator);
  // Three more full blocks of strictly dominated events: their zone-map
  // corners are at most (0.5, 0.5), so once the dominator is collected
  // from block 0 the veto must reject them without scanning a row.
  Rng rng(11);
  for (std::size_t i = 0; i < 3 * storage::column::kBlockRows; ++i) {
    Event e;
    e.id = 2 + i;
    e.values = Values{rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.5)};
    store.insert(0, e);
  }
  const std::uint64_t skipped_before = store.scan_stats()->blocks_skipped;
  const QueryReceipt got = store.execute(0, SkylineQuery(2));
  ASSERT_EQ(got.events.size(), 1u);
  EXPECT_EQ(got.events.front().id, 1u);
  EXPECT_GE(store.scan_stats()->blocks_skipped - skipped_before, 3u);
}

TEST(QueryClasses, EqualCornerBlockIsNeverSkipped) {
  // Ties are mutually non-dominated: an event EQUAL to the collected
  // dominator on every attribute sits in a later block whose corner the
  // veto must admit (strict dominance only), so both ties are returned.
  storage::BruteForceStore store(2);
  Event first;
  first.id = 1;
  first.values = Values{0.8, 0.8};
  store.insert(0, first);
  Rng rng(12);
  for (std::size_t i = 0; i < storage::column::kBlockRows; ++i) {
    Event e;
    e.id = 2 + i;
    e.values = Values{rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.5)};
    store.insert(0, e);
  }
  Event tie;
  tie.id = 2 + storage::column::kBlockRows;  // lands beyond block 0
  tie.values = Values{0.8, 0.8};
  store.insert(0, tie);
  const QueryReceipt got = store.execute(0, SkylineQuery(2));
  ASSERT_EQ(got.events.size(), 2u);
  EXPECT_EQ(got.events[0].id, first.id);
  EXPECT_EQ(got.events[1].id, tie.id);
}

TEST(QueryClasses, KnnStopsBeforeFarBlocks) {
  storage::BruteForceStore store(2);
  // Block 0: a tight cluster at the target. Blocks 1..3: far corner.
  Rng rng(13);
  for (std::size_t i = 0; i < storage::column::kBlockRows; ++i) {
    Event e;
    e.id = 1 + i;
    e.values = Values{rng.uniform(0.45, 0.55), rng.uniform(0.45, 0.55)};
    store.insert(0, e);
  }
  for (std::size_t i = 0; i < 3 * storage::column::kBlockRows; ++i) {
    Event e;
    e.id = 1 + storage::column::kBlockRows + i;
    e.values = Values{rng.uniform(0.9, 1.0), rng.uniform(0.9, 1.0)};
    store.insert(0, e);
  }
  KNearestQuery q;
  q.target = Values{0.5, 0.5};
  q.k = 4;
  const std::uint64_t skipped_before = store.scan_stats()->blocks_skipped;
  const QueryReceipt got = store.execute(0, q);
  ASSERT_EQ(got.events.size(), 4u);
  for (const Event& e : got.events) EXPECT_LE(e.id, storage::column::kBlockRows);
  EXPECT_GE(store.scan_stats()->blocks_skipped - skipped_before, 3u);
}

// ------------------------------------- execute_batch() of one vs execute()

TEST(QueryClasses, ExecuteBatchOfOneIsByteIdenticalToExecute) {
  FourSystems fx(8, 3);
  query::QueryGenerator gen({.dims = 3}, 77);
  for (int trial = 0; trial < 10; ++trial) {
    const QueryRequest q = gen.next(query::QueryClassMix::Mix);
    for (storage::DcsSystem* sys : fx.systems()) {
      const QueryReceipt alone = sys->execute(0, q);
      const auto batch = sys->execute_batch(0, {q});
      ASSERT_EQ(batch.per_query.size(), 1u);
      const QueryReceipt& one = batch.per_query[0];
      EXPECT_EQ(one.events, alone.events) << sys->name();
      EXPECT_EQ(one.rounds, alone.rounds) << sys->name();
      for (const storage::ResultReceipt* r :
           {static_cast<const storage::ResultReceipt*>(&one),
            static_cast<const storage::ResultReceipt*>(&batch)}) {
        EXPECT_EQ(r->messages, alone.messages) << sys->name();
        EXPECT_EQ(r->query_messages, alone.query_messages) << sys->name();
        EXPECT_EQ(r->reply_messages, alone.reply_messages) << sys->name();
        EXPECT_EQ(r->index_nodes_visited, alone.index_nodes_visited)
            << sys->name();
      }
      EXPECT_EQ(batch.messages_saved, 0u) << sys->name();
    }
  }
}

TEST(QueryClasses, PoolSkylineVisitsFewerCellsThanFlood) {
  // The tentpole's pruning claim: corner-ordered collection must beat the
  // flood baseline's visit count (GHT has no pruning structure and visits
  // every storing node).
  FourSystems fx(9, 3, /*nodes=*/300);
  const SkylineQuery q(3);
  const QueryReceipt pool = fx.tb->pool().execute(0, q);
  const QueryReceipt flood = fx.ght->execute(0, q);
  EXPECT_EQ(pool.events, flood.events);
  EXPECT_LT(pool.index_nodes_visited, flood.index_nodes_visited);
}

}  // namespace
}  // namespace poolnet
