// A/B proof that pooled buffers are a pure allocation strategy.
//
// The hot-path memory work (BufferPool-backed route caches, scratch
// route/leg handles, the SoA spatial index) must never change WHAT the
// simulator computes — only where the bytes live. These tests fingerprint
// entire runs (insert traffic, per-query receipts in result order, batch
// and aggregate receipts, route-cache counters) and require bit equality
// between the pooled and plain-heap configurations, across systems,
// seeds, and thread counts; plus direct coverage of the BufferPool
// free-list mechanics (reuse-after-clear, high-water accounting).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bench_support/parallel.h"
#include "bench_support/testbed.h"
#include "common/object_pool.h"
#include "ght/ght_system.h"
#include "connected_network.h"
#include "query/query_gen.h"
#include "query/workload.h"
#include "routing/gpsr.h"
#include "routing/route_cache.h"
#include "fingerprint.h"

namespace poolnet {
namespace {

using benchsup::Testbed;
using benchsup::TestbedConfig;

/// One full Pool+DIM testbed run under the given allocation strategy.
Fingerprint run_testbed(std::uint64_t seed, bool pooled) {
  TestbedConfig config;
  config.nodes = 200;
  config.seed = seed;
  config.pooled_buffers = pooled;
  Testbed tb(config);
  tb.insert_workload();

  Fingerprint fp;
  fp.add(tb.pool_insert_traffic().total);
  fp.add(tb.dim_insert_traffic().total);
  fp.add_bits(tb.pool_insert_traffic().energy_j);
  fp.add_bits(tb.dim_insert_traffic().energy_j);

  query::QueryGenerator qgen({.dims = 3}, seed * 31 + 7);
  Rng sinks(seed * 17 + 3);
  std::vector<storage::RangeQuery> queries;
  for (int i = 0; i < 12; ++i) queries.push_back(qgen.exact_range());
  for (const auto& q : queries) {
    const net::NodeId sink = tb.random_node(sinks);
    fp.add_receipt(tb.pool().execute(sink, q));
    fp.add_receipt(tb.dim().execute(sink, q));
  }

  const std::vector<storage::QueryRequest> requests(queries.begin(),
                                                    queries.end());
  const auto batch_pool = tb.pool().execute_batch(0, requests);
  const auto batch_dim = tb.dim().execute_batch(0, requests);
  for (const auto* b : {&batch_pool, &batch_dim}) {
    fp.add(b->messages);
    fp.add(b->messages_saved);
    fp.add(b->unique_cell_visits);
    for (const auto& r : b->per_query)
      for (const auto& e : r.events) fp.add(e.id);
  }

  const auto agg = tb.pool().execute(
      0, storage::AggregateQuery{queries.front(),
                                 storage::AggregateKind::Max, 0});
  fp.add(agg.messages);
  fp.add(agg.index_nodes_visited);

  // Cache counters see the same hit/miss sequence either way.
  for (const auto kind :
       {benchsup::SystemKind::Pool, benchsup::SystemKind::Dim}) {
    const auto* cache = tb.route_cache(kind);
    EXPECT_NE(cache, nullptr) << "route cache should default on";
    if (!cache) continue;
    const auto s = cache->stats();
    fp.add(s.hits);
    fp.add(s.misses);
    fp.add(s.entries);
  }
  return fp;
}

// ASSERT_NE inside a value-returning function needs this wrapper shape.
void expect_testbed_ab_identical(std::uint64_t seed) {
  Fingerprint heap, pool;
  {
    SCOPED_TRACE("heap");
    heap = run_testbed(seed, /*pooled=*/false);
  }
  {
    SCOPED_TRACE("pooled");
    pool = run_testbed(seed, /*pooled=*/true);
  }
  EXPECT_EQ(heap.words, pool.words) << "seed " << seed;
}

TEST(PoolAlloc, PoolAndDimReceiptsByteIdenticalAcrossSeeds) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    expect_testbed_ab_identical(seed);
  }
}

/// GHT over its own network, routed through a RouteCache whose path
/// buffers come from an enabled or pass-through BufferPool.
Fingerprint run_ght(std::uint64_t seed, bool pooled) {
  const std::size_t n = 200;
  const auto network = connected_network(seed, n);
  routing::Gpsr gpsr(*network);
  common::BufferPool<net::NodeId> path_pool(pooled);
  routing::RouteCache cache(gpsr, {}, nullptr, "ght.route_cache",
                            &path_pool);
  ght::GhtSystem ght(*network, cache, 3);

  query::EventGenerator gen({.dims = 3}, seed * 13 + 5);
  Fingerprint fp;
  for (net::NodeId src = 0; src < 40; ++src) {
    const auto r = ght.insert(src, gen.next(src));
    fp.add(r.messages);
    fp.add(r.stored_at);
  }
  query::QueryGenerator qgen({.dims = 3}, seed * 29 + 11);
  for (int i = 0; i < 6; ++i)
    fp.add_receipt(ght.execute(3, qgen.exact_range()));
  fp.add_bits(network->traffic().energy_j);
  const auto s = cache.stats();
  fp.add(s.hits);
  fp.add(s.misses);
  return fp;
}

TEST(PoolAlloc, GhtReceiptsByteIdenticalAcrossSeeds) {
  for (const std::uint64_t seed : {1, 2}) {
    EXPECT_EQ(run_ght(seed, false).words, run_ght(seed, true).words)
        << "seed " << seed;
  }
}

TEST(PoolAlloc, PooledRunsIdenticalAtOneAndFourThreads) {
  const auto sweep = [](std::size_t threads) {
    return benchsup::parallel_map<Fingerprint>(
        4, threads, [](std::size_t i) { return run_testbed(i + 1, true); });
  };
  const auto serial = sweep(1);
  const auto parallel = sweep(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i].words, parallel[i].words) << "job " << i;
}

TEST(BufferPool, RecyclesCapacityAndRestartsAfterClear) {
  common::BufferPool<int> pool(true);
  auto a = pool.acquire();
  a.resize(100);
  const auto cap = a.capacity();
  pool.release(std::move(a));
  EXPECT_EQ(pool.stats().free_buffers, 1u);

  auto b = pool.acquire();
  EXPECT_TRUE(b.empty()) << "pool must recycle memory, never values";
  EXPECT_GE(b.capacity(), cap);
  EXPECT_EQ(pool.stats().reuses, 1u);
  pool.release(std::move(b));

  pool.clear();
  EXPECT_EQ(pool.stats().free_buffers, 0u);
  auto c = pool.acquire();
  EXPECT_EQ(c.capacity(), 0u) << "post-clear acquires start from scratch";
  EXPECT_EQ(pool.stats().reuses, 1u) << "post-clear acquire is not a reuse";
  pool.release(std::move(c));
}

TEST(BufferPool, HighWaterTracksPeakOutstanding) {
  common::BufferPool<int> pool(true);
  auto a = pool.acquire();
  auto b = pool.acquire();
  auto c = pool.acquire();
  EXPECT_EQ(pool.stats().outstanding, 3u);
  EXPECT_EQ(pool.stats().high_water, 3u);

  pool.release(std::move(a));
  pool.release(std::move(b));
  EXPECT_EQ(pool.stats().outstanding, 1u);
  EXPECT_EQ(pool.stats().high_water, 3u) << "high water never recedes";

  auto d = pool.acquire();
  EXPECT_EQ(pool.stats().outstanding, 2u);
  EXPECT_EQ(pool.stats().high_water, 3u);
  pool.release(std::move(c));
  pool.release(std::move(d));
  EXPECT_EQ(pool.stats().outstanding, 0u);
  EXPECT_EQ(pool.stats().releases, 4u);
  EXPECT_EQ(pool.stats().acquires, 4u);
}

TEST(BufferPool, DisabledPoolIsPlainHeap) {
  common::BufferPool<int> pool(false);
  auto a = pool.acquire();
  a.resize(10);
  pool.release(std::move(a));
  EXPECT_EQ(pool.stats().free_buffers, 0u) << "disabled pool parks nothing";
  auto b = pool.acquire();
  EXPECT_EQ(b.capacity(), 0u);
  EXPECT_EQ(pool.stats().reuses, 0u);
  // Accounting still runs so A/B comparisons line up.
  EXPECT_EQ(pool.stats().acquires, 2u);
  EXPECT_EQ(pool.stats().high_water, 1u);
  pool.release(std::move(b));
}

TEST(PoolAlloc, RouteCacheReturnsStoredPathsOnClear) {
  const std::size_t n = 120;
  const auto network = connected_network(11, n);
  routing::Gpsr gpsr(*network);
  common::BufferPool<net::NodeId> path_pool(true);
  routing::RouteCacheConfig cfg;
  cfg.max_hops = 0;  // store everything
  routing::RouteCache cache(gpsr, cfg, nullptr, "clear.route_cache",
                            &path_pool);
  for (net::NodeId dst = 1; dst < 20; ++dst)
    cache.route_to_node(0, dst);
  ASSERT_GT(cache.stats().entries, 0u);
  const auto held = path_pool.stats().outstanding;
  EXPECT_GT(held, 0u) << "stored paths should be pool buffers";

  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(path_pool.stats().outstanding, 0u)
      << "clear() must hand every stored path back to the pool";
  EXPECT_EQ(path_pool.stats().free_buffers, held);
}

}  // namespace
}  // namespace poolnet
