#include "routing/route_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "bench_support/experiment.h"
#include "bench_support/parallel.h"
#include "bench_support/testbed.h"
#include "connected_network.h"
#include "ght/ght_system.h"
#include "query/query_gen.h"
#include "routing/gpsr.h"

namespace poolnet::routing {
namespace {

using net::Network;
using net::NodeId;

Network random_connected_net(std::uint64_t seed, std::size_t n) {
  return std::move(*connected_network(seed, n, 1000003));
}

void expect_same_result(const RouteResult& a, const RouteResult& b) {
  EXPECT_EQ(a.path, b.path);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_EQ(a.perimeter_hops, b.perimeter_hops);
}

// The core invariant: the cache replays exactly what GPSR would compute,
// for every pair, no matter how often or in what order pairs repeat. The
// draw sequence is replayed three times, so short pairs are declined on
// the first pass, stored on the second and hit on the third.
TEST(RouteCache, CachedEqualsUncachedOverRandomPairs) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    const auto net = random_connected_net(seed, 250);
    const Gpsr gpsr(net);
    const RouteCache cache(gpsr);  // unbounded, default max_hops
    const auto n = static_cast<std::int64_t>(net.size());
    for (int pass = 0; pass < 3; ++pass) {
      Rng rng(seed ^ 0xabcd);
      for (int trial = 0; trial < 1000; ++trial) {
        const auto src = static_cast<NodeId>(rng.uniform_int(0, n - 1));
        const auto dst = static_cast<NodeId>(rng.uniform_int(0, n - 1));
        expect_same_result(cache.route_to_node(src, dst),
                           gpsr.route_to_node(src, dst));
      }
    }
    EXPECT_GT(cache.stats().entries, 0u) << "replayed short pairs are stored";
    EXPECT_GT(cache.stats().hits, 0u) << "and hit on their third sighting";
  }
}

// Admission on the second sighting, in the unbounded and the lru mode:
// the first call is declined, the second stores, later calls hit.
TEST(RouteCache, CountsHitsAndMisses) {
  for (const std::size_t max_bytes : {std::size_t{0}, std::size_t{1} << 20}) {
    SCOPED_TRACE(max_bytes);
    const auto net = random_connected_net(9, 150);
    const Gpsr gpsr(net);
    RouteCacheConfig config;
    config.max_bytes = max_bytes;
    const RouteCache cache(gpsr, config);
    const auto direct = gpsr.route_to_node(0, 100);
    ASSERT_LE(direct.hops(), config.max_hops);

    expect_same_result(cache.route_to_node(0, 100), direct);
    EXPECT_EQ(cache.stats().entries, 0u) << "first sighting";
    expect_same_result(cache.route_to_node(0, 100), direct);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().entries, 1u) << "second sighting";
    expect_same_result(cache.route_to_node(0, 100), direct);
    expect_same_result(cache.route_to_node(0, 100), direct);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_NEAR(cache.stats().hit_rate(), 2.0 / 4.0, 1e-12);
  }
}

// Admission: a route is stored on the second sighting of its (src, dst)
// key, never on the first, so legs that never recur cost no entry.
TEST(RouteCache, FirstSightingsAreNeverStored) {
  const auto net = random_connected_net(18, 300);
  const Gpsr gpsr(net);
  const RouteCache cache(gpsr);  // default max_hops: short pairs only
  std::size_t pairs = 0;
  for (NodeId src = 0; src < net.size() && pairs < 500; src += 7) {
    for (NodeId dst = 0; dst < net.size() && pairs < 500; dst += 3) {
      const auto direct = gpsr.route_to_node(src, dst);
      if (direct.hops() > cache.config().max_hops) continue;
      expect_same_result(cache.route_to_node(src, dst), direct);
      ++pairs;
    }
  }
  ASSERT_EQ(pairs, 500u);
  EXPECT_EQ(cache.stats().misses, pairs);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

// The admission window holds keys, not paths: a key sighted before a kill
// and again after it stores the route computed after the kill, and later
// hits replay that route, never one through the dead node.
TEST(RouteCache, KeySightedBeforeAKillStoresThePostKillRoute) {
  auto net = random_connected_net(20, 250);
  const Gpsr gpsr(net);
  RouteCacheConfig config;
  config.max_hops = 0;  // the detour may be longer than the default cap
  const RouteCache cache(gpsr, config);
  const auto traverses = [](const RouteResult& r, NodeId node) {
    return std::find(r.path.begin(), r.path.end(), node) != r.path.end();
  };
  // A pair with an interior node, killed without partitioning the pair.
  const NodeId src = 0;
  NodeId dst = net::kNoNode;
  NodeId victim = net::kNoNode;
  for (NodeId d = 1; d < net.size() && victim == net::kNoNode; ++d) {
    const auto r = gpsr.route_to_node(src, d);
    if (r.delivered == d && r.path.size() >= 4) {
      dst = d;
      victim = r.path[r.path.size() / 2];
    }
  }
  ASSERT_NE(victim, net::kNoNode);

  const auto before = cache.route_to_node(src, dst);
  ASSERT_TRUE(traverses(before, victim));
  ASSERT_EQ(cache.stats().entries, 0u);
  net.kill(victim);
  const auto after = gpsr.route_to_node(src, dst);
  ASSERT_EQ(after.delivered, dst) << "the kill partitioned the pair";
  ASSERT_FALSE(traverses(after, victim));

  expect_same_result(cache.route_to_node(src, dst), after);
  EXPECT_EQ(cache.stats().entries, 1u) << "the second sighting stores";
  const auto hit = cache.route_to_node(src, dst);
  EXPECT_EQ(cache.stats().hits, 1u);
  expect_same_result(hit, after);
  EXPECT_FALSE(traverses(hit, victim));
}

TEST(RouteCache, DisabledCacheDelegatesWithoutStoring) {
  const auto net = random_connected_net(10, 150);
  const Gpsr gpsr(net);
  RouteCacheConfig config;
  config.enabled = false;
  const RouteCache cache(gpsr, config);
  expect_same_result(cache.route_to_node(1, 140), gpsr.route_to_node(1, 140));
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

// max_hops is a storage filter, never a correctness filter: routes longer
// than the cap are recomputed each call but still returned exactly.
TEST(RouteCache, MaxHopsFiltersStorageNotResults) {
  const auto net = random_connected_net(11, 300);
  const Gpsr gpsr(net);
  RouteCacheConfig config;
  config.max_hops = 2;
  const RouteCache cache(gpsr, config);
  Rng rng(111);
  const auto n = static_cast<std::int64_t>(net.size());
  std::size_t long_routes = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto src = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    const auto dst = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    const auto direct = gpsr.route_to_node(src, dst);
    expect_same_result(cache.route_to_node(src, dst), direct);
    if (direct.hops() > 2) ++long_routes;
  }
  ASSERT_GT(long_routes, 0u) << "field must produce routes above the cap";
  // Every stored entry is a short route; at 300 nodes there are far fewer
  // short pairs than draws, so the table stays well below the draw count.
  EXPECT_LT(cache.stats().entries, 200u - long_routes + 1u);
}

// max_hops counts hops, not path nodes: a route of exactly max_hops hops
// is stored, one hop more is not.
TEST(RouteCache, MaxHopsStoresRoutesOfExactlyTheCap) {
  const auto net = random_connected_net(16, 300);
  const Gpsr gpsr(net);
  RouteCacheConfig config;
  config.max_hops = 3;
  const RouteCache cache(gpsr, config);
  NodeId at_cap = net::kNoNode;
  NodeId over_cap = net::kNoNode;
  for (NodeId dst = 1; dst < net.size(); ++dst) {
    const std::size_t hops = gpsr.route_to_node(0, dst).hops();
    if (hops == 3 && at_cap == net::kNoNode) at_cap = dst;
    if (hops == 4 && over_cap == net::kNoNode) over_cap = dst;
  }
  ASSERT_NE(at_cap, net::kNoNode);
  ASSERT_NE(over_cap, net::kNoNode);

  cache.route_to_node(0, at_cap);
  cache.route_to_node(0, at_cap);
  EXPECT_EQ(cache.stats().entries, 1u) << "a route of max_hops hops is stored";
  cache.route_to_node(0, over_cap);
  cache.route_to_node(0, over_cap);
  EXPECT_EQ(cache.stats().entries, 1u) << "one hop more is not";
  expect_same_result(cache.route_to_node(0, at_cap),
                     gpsr.route_to_node(0, at_cap));
  expect_same_result(cache.route_to_node(0, over_cap),
                     gpsr.route_to_node(0, over_cap));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 5u);
}

TEST(RouteCache, LruEvictionRespectsByteBound) {
  const auto net = random_connected_net(12, 400);
  const Gpsr gpsr(net);
  RouteCacheConfig config;
  config.max_bytes = 8 * 1024;
  config.max_hops = 0;  // store everything: maximum pressure on the bound
  const RouteCache cache(gpsr, config);
  Rng rng(1212);
  const auto n = static_cast<std::int64_t>(net.size());
  for (int trial = 0; trial < 2000; ++trial) {
    const auto src = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    const auto dst = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    cache.route_to_node(src, dst);
    cache.route_to_node(src, dst);  // the second sighting stores it
    ASSERT_LE(cache.stats().bytes, config.max_bytes)
        << "after trial " << trial;
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_GT(cache.stats().entries, 0u);
  // Evicted entries recompute correctly on their next use.
  Rng rng2(1212);
  for (int trial = 0; trial < 50; ++trial) {
    const auto src = static_cast<NodeId>(rng2.uniform_int(0, n - 1));
    const auto dst = static_cast<NodeId>(rng2.uniform_int(0, n - 1));
    expect_same_result(cache.route_to_node(src, dst),
                       gpsr.route_to_node(src, dst));
  }
}

// The byte budget evicts by clock sweep: once the hand has come round,
// a route hit between every two stores has its reference bit set
// whenever the hand reaches it, so it is never the victim while cold
// routes churn through the store.
TEST(RouteCache, BudgetKeepsARouteHitBetweenEveryMiss) {
  const auto net = random_connected_net(17, 400);
  const Gpsr gpsr(net);
  RouteCacheConfig config;
  config.max_bytes = 4 * 1024;
  config.max_hops = 0;
  const RouteCache cache(gpsr, config);
  Rng rng(1717);
  const auto n = static_cast<std::int64_t>(net.size());
  const auto cold_route = [&] {  // sighted twice, so stored
    const auto src = static_cast<NodeId>(rng.uniform_int(1, n - 1));
    const auto dst = static_cast<NodeId>(rng.uniform_int(0, n - 2));
    cache.route_to_node(src, dst);
    cache.route_to_node(src, dst);
  };
  // Until the first eviction every stored route still has the bit it was
  // stored with, so the hand's first round clears them all.
  while (cache.stats().evictions == 0) cold_route();
  const NodeId hot_src = 0;
  const NodeId hot_dst = 399;
  cache.route_to_node(hot_src, hot_dst);
  cache.route_to_node(hot_src, hot_dst);
  for (int trial = 0; trial < 1000; ++trial) {
    cold_route();
    const auto before = cache.stats().hits;
    cache.route_to_node(hot_src, hot_dst);
    ASSERT_EQ(cache.stats().hits, before + 1) << "after trial " << trial;
  }
  EXPECT_GT(cache.stats().evictions, 500u);
}

// The probe goes through a (src, dst) index kept in step with the stored
// routes. note_dead() must drop exactly the routes through the dead node,
// and every survivor must still hit with its own stored route, also after
// the drop and the refills reorder them; in both storage modes (the
// budget holds every route, so only invalidation removes any).
TEST(RouteCache, NoteDeadDropsExactlyRoutesThroughNode) {
  for (const std::size_t max_bytes : {std::size_t{0}, std::size_t{1} << 20}) {
    SCOPED_TRACE(max_bytes);
    const auto net = random_connected_net(14, 300);
    const Gpsr gpsr(net);
    RouteCacheConfig config;
    config.max_hops = 0;  // store every route from the source
    config.max_bytes = max_bytes;
    const RouteCache cache(gpsr, config);
    const NodeId src = 0;
    std::vector<RouteResult> stored(net.size());
    for (NodeId dst = 1; dst < net.size(); ++dst) {
      stored[dst] = cache.route_to_node(src, dst);
      cache.route_to_node(src, dst);  // the second sighting stores it
    }
    ASSERT_EQ(cache.stats().entries, net.size() - 1);
    ASSERT_GE(cache.stats().entries, 100u);

    const auto traverses = [](const RouteResult& r, NodeId node) {
      return std::find(r.path.begin(), r.path.end(), node) != r.path.end();
    };
    // A first hop of the source: on some of its routes, not on all.
    const NodeId dead = stored[net.size() - 1].path[1];
    std::size_t through = 0;
    for (NodeId dst = 1; dst < net.size(); ++dst)
      through += traverses(stored[dst], dead) ? 1 : 0;
    ASSERT_GT(through, 1u);
    ASSERT_LT(through, net.size() - 2);

    cache.note_dead(dead);
    EXPECT_EQ(cache.stats().invalidated, through);
    EXPECT_EQ(cache.stats().entries, net.size() - 1 - through);

    for (int pass = 0; pass < 2; ++pass) {
      for (NodeId dst = 1; dst < net.size(); ++dst) {
        const auto before = cache.stats();
        RouteResult got;
        cache.route_to_node_into(src, dst, got);
        const bool dropped = pass == 0 && traverses(stored[dst], dead);
        EXPECT_EQ(cache.stats().hits, before.hits + (dropped ? 0 : 1))
            << "dst " << dst << " pass " << pass;
        expect_same_result(got, stored[dst]);
        if (dropped) {  // a dropped route is admitted again like a new one
          cache.route_to_node_into(src, dst, got);
          EXPECT_EQ(cache.stats().entries, before.entries + 1)
              << "dst " << dst;
          expect_same_result(got, stored[dst]);
        }
      }
    }
    EXPECT_EQ(cache.stats().entries, net.size() - 1);
    EXPECT_EQ(cache.stats().evictions, 0u);
  }
}

// Kills nobody reported through note_dead(): the cache reads the network's
// dead count on every lookup, so after a kill it serves exactly what the
// uncached router computes, in both storage modes, and never a stored
// path through a dead node.
TEST(RouteCache, KillsAreForgottenBeforeTheNextLookup) {
  for (const std::size_t max_bytes : {std::size_t{0}, std::size_t{1} << 20}) {
    auto net = random_connected_net(15, 250);
    const Gpsr gpsr(net);
    RouteCacheConfig config;
    config.max_hops = 0;  // store every route, including long legs
    config.max_bytes = max_bytes;
    const RouteCache cache(gpsr, config);
    Rng rng(29);
    const auto n = static_cast<std::int64_t>(net.size());
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (int i = 0; i < 300; ++i) {
      pairs.emplace_back(static_cast<NodeId>(rng.uniform_int(0, n - 1)),
                         static_cast<NodeId>(rng.uniform_int(0, n - 1)));
    }
    for (const auto& [s, d] : pairs) {
      cache.route_to_node(s, d);
      cache.route_to_node(s, d);  // the second sighting stores it
    }
    ASSERT_GT(cache.stats().entries, 200u) << "max_bytes " << max_bytes;

    for (int k = 0; k < 25; ++k)
      net.kill(static_cast<NodeId>(rng.uniform_int(0, n - 1)));
    for (int pass = 0; pass < 3; ++pass) {
      for (const auto& [s, d] : pairs) {
        if (!net.alive(s)) continue;
        expect_same_result(cache.route_to_node(s, d),
                           gpsr.route_to_node(s, d));
      }
    }
    EXPECT_GT(cache.stats().invalidated, 0u) << "max_bytes " << max_bytes;
  }
}

// GHT's insert replay and flood legs go to hashed homes and rarely recur,
// so admission keeps its store small: this run stores 105 routes, where
// storing every short miss stored 16,773. The Testbed gives GHT no cache,
// so the cache wraps a hand-built GHT's Gpsr, as a caller that wants one
// builds it.
TEST(RouteCache, GhtMixRunStoresFewRoutes) {
  benchsup::TestbedConfig config;
  config.nodes = 900;
  config.seed = 4;
  benchsup::Testbed tb(config);
  tb.insert_workload();
  Network net(tb.topology());
  const Gpsr gpsr(net);
  const RouteCache cache(gpsr, config.route_cache);
  ght::GhtSystem ght(net, cache, config.dims);
  for (const auto& e : tb.oracle().all()) ght.insert(e.source, e);
  query::QueryGenerator qgen({.dims = config.dims}, 404);
  Rng sinks(44);
  for (int i = 0; i < 100; ++i)
    ght.execute(tb.random_node(sinks), qgen.next(query::QueryClassMix::Mix));
  EXPECT_GT(cache.stats().misses, 50000u);
  EXPECT_LT(cache.stats().entries, 250u);
}

TEST(RouteCacheSpec, ParsesOnOffAndLru) {
  RouteCacheConfig config;
  std::string error;
  ASSERT_TRUE(parse_route_cache_spec("off", &config, &error));
  EXPECT_FALSE(config.enabled);
  ASSERT_TRUE(parse_route_cache_spec("on", &config, &error));
  EXPECT_TRUE(config.enabled);
  EXPECT_EQ(config.max_bytes, 0u);
  ASSERT_TRUE(parse_route_cache_spec("lru:4096", &config, &error));
  EXPECT_EQ(config.max_bytes, 4096u);
  ASSERT_TRUE(parse_route_cache_spec("lru:64k", &config, &error));
  EXPECT_EQ(config.max_bytes, 64000u);
  ASSERT_TRUE(parse_route_cache_spec("lru:2m", &config, &error));
  EXPECT_EQ(config.max_bytes, 2000000u);
  ASSERT_TRUE(parse_route_cache_spec("lru:1", &config, &error));
  EXPECT_EQ(config.max_bytes, 1u);
  // A bound must be a byte count: under one byte it would truncate to 0,
  // the unbounded mode, and NaN, infinity or more than SIZE_MAX bytes have
  // no size_t value. A rejected spec leaves the config as it was.
  for (const char* bad :
       {"lru:", "lru:-3", "sometimes", "lru:0", "lru:0.5", "lru:0.0001k",
        "lru:nan", "lru:inf", "lru:-inf", "lru:1e30", "lru:2e10g", "lru:64x",
        "lru:k", "LRU:64k", "on "}) {
    error.clear();
    EXPECT_FALSE(parse_route_cache_spec(bad, &config, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
    EXPECT_TRUE(config.enabled) << bad;
    EXPECT_EQ(config.max_bytes, 1u) << bad;
  }
}

// ---------------------------------------------------------------------------
// Parallel sweep determinism: the whole point of the engine is that thread
// count is invisible in the numbers.

bool bit_identical(const sim::RunningStat& a, const sim::RunningStat& b) {
  return a.count() == b.count() &&
         std::memcmp(&a, &b, sizeof(sim::RunningStat)) == 0;
}

bool bit_identical(const benchsup::Tally& a, const benchsup::Tally& b) {
  return a.sum == b.sum && a.n == b.n;
}

bool bit_identical(const benchsup::SystemQueryStats& a,
                   const benchsup::SystemQueryStats& b) {
  return bit_identical(a.messages, b.messages) &&
         bit_identical(a.query_messages, b.query_messages) &&
         bit_identical(a.reply_messages, b.reply_messages) &&
         bit_identical(a.index_nodes, b.index_nodes) &&
         bit_identical(a.results, b.results) &&
         bit_identical(a.energy_mj, b.energy_mj);
}

bool bit_identical(const benchsup::PairedRun& a, const benchsup::PairedRun& b) {
  return a.queries == b.queries && a.pool_mismatches == b.pool_mismatches &&
         a.dim_mismatches == b.dim_mismatches &&
         bit_identical(a.pool, b.pool) && bit_identical(a.dim, b.dim);
}

benchsup::PairedRun sweep_job(std::size_t size, std::uint64_t seed,
                              const RouteCacheConfig& route_cache) {
  benchsup::TestbedConfig config;
  config.nodes = size;
  config.seed = seed;
  config.route_cache = route_cache;
  benchsup::Testbed tb(config);
  tb.insert_workload();
  query::QueryGenerator qgen({.dims = config.dims}, seed * 7919 + 5);
  const auto queries = benchsup::generate_queries(
      6, [&qgen] { return qgen.exact_range(); });
  return benchsup::run_paired_queries(tb, queries, seed * 31 + 9);
}

/// Two sizes x two seeds on `threads` workers, each size's seeds merged
/// in submission order.
std::vector<benchsup::PairedRun> sweep(const RouteCacheConfig& rc,
                                       std::size_t threads) {
  const std::vector<std::size_t> sizes{150, 250};
  const auto runs = benchsup::parallel_map<benchsup::PairedRun>(
      4, threads, [&](std::size_t i) {
        return sweep_job(sizes[i / 2], i % 2 + 1, rc);
      });
  std::vector<benchsup::PairedRun> merged(sizes.size());
  for (std::size_t i = 0; i < runs.size(); ++i)
    benchsup::merge_into(merged[i / 2], runs[i]);
  return merged;
}

TEST(RunSweepParallel, ThreadCountIsInvisibleInResults) {
  const RouteCacheConfig rc;  // cache on, defaults
  const auto serial = sweep(rc, 1);
  ASSERT_EQ(serial.size(), 2u);
  EXPECT_EQ(serial[0].pool_mismatches, 0u);
  EXPECT_EQ(serial[0].dim_mismatches, 0u);
  EXPECT_EQ(serial[0].queries, 12u);  // 6 queries x 2 seeds
  for (const std::size_t threads : {2u, 8u}) {
    const auto parallel = sweep(rc, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t g = 0; g < serial.size(); ++g) {
      EXPECT_TRUE(bit_identical(serial[g], parallel[g]))
          << "group " << g << " at " << threads << " threads";
    }
  }
}

TEST(RunSweepParallel, RouteCacheIsInvisibleInResults) {
  RouteCacheConfig off;
  off.enabled = false;
  const auto uncached = sweep(off, 1);
  const auto cached = sweep({}, 4);
  ASSERT_EQ(uncached.size(), cached.size());
  for (std::size_t g = 0; g < uncached.size(); ++g) {
    EXPECT_TRUE(bit_identical(uncached[g], cached[g])) << "group " << g;
  }
}

TEST(ParallelMap, SerialAndParallelAgree) {
  const auto square = [](std::size_t i) { return i * i; };
  const auto serial = benchsup::parallel_map<std::size_t>(100, 1, square);
  const auto parallel = benchsup::parallel_map<std::size_t>(100, 8, square);
  EXPECT_EQ(serial, parallel);
  ASSERT_EQ(parallel.size(), 100u);
  EXPECT_EQ(parallel[99], 99u * 99u);
}

TEST(ParallelMap, PropagatesFirstExceptionByIndex) {
  EXPECT_THROW(
      benchsup::parallel_map<int>(64, 4,
                                  [](std::size_t i) {
                                    if (i % 7 == 3)
                                      throw std::runtime_error("boom");
                                    return static_cast<int>(i);
                                  }),
      std::runtime_error);
}

}  // namespace
}  // namespace poolnet::routing
