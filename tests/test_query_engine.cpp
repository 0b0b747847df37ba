#include "engine/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "bench_support/testbed.h"
#include "common/error.h"
#include "query/query_gen.h"

namespace poolnet::engine {
namespace {

using benchsup::Testbed;
using benchsup::TestbedConfig;
using storage::QueryReceipt;
using storage::RangeQuery;

TestbedConfig small_config(std::uint64_t seed) {
  TestbedConfig config;
  config.nodes = 150;
  config.seed = seed;
  return config;
}

/// Overlapping workload: with probability 1/2, one of `n_templates`
/// popular queries; otherwise a fresh draw. Both streams advance every
/// round so the workload is deterministic in `seed` alone.
std::vector<RangeQuery> overlapping_queries(std::size_t count,
                                            std::uint64_t seed,
                                            std::size_t n_templates = 6) {
  query::QueryGenerator gen(
      {.dims = 3, .dist = query::RangeSizeDistribution::Exponential},
      seed * 7919 + 1);
  std::vector<RangeQuery> templates;
  for (std::size_t i = 0; i < n_templates; ++i)
    templates.push_back(gen.exact_range());
  Rng pick(seed * 31 + 9);
  std::vector<RangeQuery> out;
  for (std::size_t i = 0; i < count; ++i) {
    const RangeQuery fresh = gen.exact_range();
    const auto slot = static_cast<std::size_t>(
        pick.uniform_int(0, static_cast<std::int64_t>(n_templates) - 1));
    out.push_back(pick.uniform() < 0.5 ? templates[slot] : fresh);
  }
  return out;
}

/// Runs `queries` through an engine configured with `batch_size` from one
/// sink and returns the per-query receipts in submission order.
std::vector<QueryReceipt> run_batched(storage::DcsSystem& system,
                                      net::NodeId sink,
                                      const std::vector<RangeQuery>& queries,
                                      std::size_t batch_size) {
  QueryEngineConfig cfg;
  cfg.batch_size = batch_size;
  cfg.batch_deadline = std::uint64_t{1} << 40;
  QueryEngine eng(system, cfg);
  std::vector<QueryEngine::Ticket> tickets;
  for (const auto& q : queries) tickets.push_back(eng.submit(sink, q));
  eng.flush();
  std::vector<QueryReceipt> out;
  for (const auto t : tickets) out.push_back(eng.take(t));
  return out;
}

std::uint64_t total_messages(const std::vector<QueryReceipt>& rs) {
  std::uint64_t sum = 0;
  for (const auto& r : rs) sum += r.messages;
  return sum;
}

// ---------------------------------------------------------------------
// Serial equivalence: batched result sets are byte-identical to serial
// execution, per query, across Pool, DIM, GHT and seeds.
// ---------------------------------------------------------------------

TEST(QueryEngineEquivalence, PoolAndDimMatchSerialAcrossSeeds) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Testbed tb(small_config(seed));
    tb.insert_workload();
    Rng sink_rng(seed * 13 + 3);
    const auto sink = tb.random_node(sink_rng);
    const auto queries = overlapping_queries(24, seed);

    for (storage::DcsSystem* sys :
         std::initializer_list<storage::DcsSystem*>{&tb.pool(), &tb.dim()}) {
      std::vector<QueryReceipt> serial;
      for (const auto& q : queries) serial.push_back(sys->execute(sink, q));
      for (const std::size_t b : {4u, 8u, 32u}) {
        const auto batched = run_batched(*sys, sink, queries, b);
        ASSERT_EQ(batched.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
          EXPECT_EQ(batched[i].events, serial[i].events)
              << "seed " << seed << " batch " << b << " query " << i;
      }
    }
  }
}

TEST(QueryEngineEquivalence, GhtMatchesSerialOnMixedWorkload) {
  for (const std::uint64_t seed : {1u, 4u}) {
    Testbed tb(small_config(seed));
    tb.insert_workload();

    storage::DcsSystem& ght = tb.deploy(benchsup::SystemKind::Ght);

    // Point queries on stored events (some repeated -> shared homes) plus
    // a couple of range queries (shared flood).
    const auto& events = tb.oracle().all();
    std::vector<RangeQuery> queries;
    for (std::size_t i = 0; i < 10; ++i) {
      const auto& e = events[(i * 7) % events.size()];
      RangeQuery::Bounds b;
      for (std::size_t d = 0; d < e.dims(); ++d)
        b.push_back({e.values[d], e.values[d]});
      queries.push_back(RangeQuery(b));
    }
    queries.push_back(queries[0]);  // exact duplicate, same home
    for (const auto& q : overlapping_queries(3, seed)) queries.push_back(q);

    Rng sink_rng(seed * 17 + 5);
    const auto sink = tb.random_node(sink_rng);
    std::vector<QueryReceipt> serial;
    for (const auto& q : queries) serial.push_back(ght.execute(sink, q));
    const auto batched = run_batched(ght, sink, queries, queries.size());
    ASSERT_EQ(batched.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      EXPECT_EQ(batched[i].events, serial[i].events)
          << "seed " << seed << " query " << i;
  }
}

// ---------------------------------------------------------------------
// Message economics: dedup ratio >= 1, batching never costs more than
// serial, and growing the batch never increases total traffic.
// ---------------------------------------------------------------------

TEST(QueryEngineEconomics, MessagesMonotoneNonIncreasingInBatchSize) {
  Testbed tb(small_config(7));
  tb.insert_workload();
  Rng sink_rng(99);
  const auto sink = tb.random_node(sink_rng);
  const auto queries = overlapping_queries(32, 7);

  for (storage::DcsSystem* sys :
       std::initializer_list<storage::DcsSystem*>{&tb.pool(), &tb.dim()}) {
    std::uint64_t prev = ~std::uint64_t{0};
    for (const std::size_t b : {1u, 2u, 4u, 8u, 16u, 32u}) {
      const auto receipts = run_batched(*sys, sink, queries, b);
      const auto msgs = total_messages(receipts);
      EXPECT_LE(msgs, prev) << "batch " << b;
      prev = msgs;
    }
  }
}

TEST(QueryEngineEconomics, DedupRatioAtLeastOneAndStatsConsistent) {
  Testbed tb(small_config(5));
  tb.insert_workload();
  Rng sink_rng(41);
  const auto sink = tb.random_node(sink_rng);
  const auto queries = overlapping_queries(16, 5);

  QueryEngineConfig cfg;
  cfg.batch_size = 16;
  cfg.batch_deadline = std::uint64_t{1} << 40;
  QueryEngine eng(tb.pool(), cfg);
  std::vector<QueryEngine::Ticket> tickets;
  for (const auto& q : queries) tickets.push_back(eng.submit(sink, q));
  eng.flush();
  for (const auto t : tickets) eng.take(t);

  const EngineStats& s = eng.stats();
  EXPECT_EQ(s.submitted, queries.size());
  EXPECT_GE(s.batches, 1u);
  EXPECT_GE(s.overall_dedup_ratio(), 1.0);
  EXPECT_GE(s.serial_cell_visits, s.unique_cell_visits);
  EXPECT_GT(s.messages, 0u);
}

// messages_saved is exact on ideal links: a fresh identical deployment
// run serially charges precisely batch.messages + batch.messages_saved.
TEST(QueryEngineEconomics, MessagesSavedExactOnIdealLinks) {
  const auto queries = overlapping_queries(16, 11);
  Testbed serial_tb(small_config(11));
  serial_tb.insert_workload();
  Testbed batch_tb(small_config(11));
  batch_tb.insert_workload();
  Rng sink_rng(11 * 13 + 3);
  const auto sink = serial_tb.random_node(sink_rng);

  for (const bool use_dim : {false, true}) {
    storage::DcsSystem& serial_sys =
        use_dim ? static_cast<storage::DcsSystem&>(serial_tb.dim())
                : static_cast<storage::DcsSystem&>(serial_tb.pool());
    storage::DcsSystem& batch_sys =
        use_dim ? static_cast<storage::DcsSystem&>(batch_tb.dim())
                : static_cast<storage::DcsSystem&>(batch_tb.pool());

    std::uint64_t serial_sum = 0;
    for (const auto& q : queries)
      serial_sum += serial_sys.execute(sink, q).messages;
    const auto batch =
        batch_sys.execute_batch(sink, {queries.begin(), queries.end()});
    EXPECT_EQ(batch.messages_saved, serial_sum - batch.messages)
        << (use_dim ? "dim" : "pool");
  }
}

// ---------------------------------------------------------------------
// Result cache: hits are free, never stale, and TTL-bounded.
// ---------------------------------------------------------------------

TEST(QueryEngineCache, RepeatQueryHitsWithZeroMessages) {
  Testbed tb(small_config(3));
  tb.insert_workload();
  Rng sink_rng(31);
  const auto sink = tb.random_node(sink_rng);
  const auto q = overlapping_queries(1, 3)[0];

  QueryEngineConfig cfg;
  cfg.cache.enabled = true;
  QueryEngine eng(tb.pool(), cfg);
  const auto first = eng.take(eng.submit(sink, q));
  const auto second = eng.take(eng.submit(sink, q));
  EXPECT_EQ(second.events, first.events);
  EXPECT_EQ(second.messages, 0u);
  EXPECT_EQ(eng.cache_stats().hits, 1u);
  EXPECT_EQ(eng.stats().cache_hits, 1u);
}

TEST(QueryEngineCache, InsertIntoCachedRectangleInvalidates) {
  Testbed tb(small_config(3));
  tb.insert_workload();
  Rng sink_rng(37);
  const auto sink = tb.random_node(sink_rng);
  const auto q = overlapping_queries(1, 3)[0];

  QueryEngineConfig cfg;
  cfg.cache.enabled = true;
  QueryEngine eng(tb.pool(), cfg);
  const auto before = eng.take(eng.submit(sink, q));

  // An event dead-center in the cached rectangle, routed through the
  // engine so the cache sees it.
  storage::Event e;
  e.id = 999999;
  e.source = sink;
  for (std::size_t d = 0; d < 3; ++d)
    e.values.push_back((q.bound(d).lo + q.bound(d).hi) / 2.0);
  ASSERT_TRUE(q.matches(e));
  eng.insert(sink, e);

  const auto after = eng.take(eng.submit(sink, q));
  EXPECT_EQ(after.events.size(), before.events.size() + 1);
  EXPECT_GT(after.messages, 0u) << "stale hit served after insert";
  EXPECT_GE(eng.cache_stats().invalidations, 1u);
  // And the refreshed answer matches a direct query.
  EXPECT_EQ(after.events, tb.pool().execute(sink, q).events);
}

TEST(QueryEngineCache, DisjointInsertLeavesEntryCached) {
  Testbed tb(small_config(3));
  tb.insert_workload();
  Rng sink_rng(43);
  const auto sink = tb.random_node(sink_rng);
  const auto q = overlapping_queries(1, 3)[0];

  QueryEngineConfig cfg;
  cfg.cache.enabled = true;
  QueryEngine eng(tb.pool(), cfg);
  eng.take(eng.submit(sink, q));

  storage::Event e;
  e.id = 999998;
  e.source = sink;
  for (std::size_t d = 0; d < 3; ++d) e.values.push_back(q.bound(d).lo);
  // Push one dimension outside the rectangle (values live in [0, 1];
  // exponential-sized ranges never span a whole dimension).
  for (std::size_t d = 0; d < 3; ++d) {
    const auto b = q.bound(d);
    if (b.hi < 1.0) {
      e.values[d] = (b.hi + 1.0) / 2.0;
      break;
    }
    if (b.lo > 0.0) {
      e.values[d] = b.lo / 2.0;
      break;
    }
  }
  ASSERT_FALSE(q.matches(e));
  eng.insert(sink, e);

  const auto again = eng.take(eng.submit(sink, q));
  EXPECT_EQ(again.messages, 0u);
  EXPECT_EQ(eng.cache_stats().hits, 1u);
}

TEST(QueryEngineCache, TtlExpiresEntries) {
  Testbed tb(small_config(3));
  tb.insert_workload();
  Rng sink_rng(47);
  const auto sink = tb.random_node(sink_rng);
  const auto q = overlapping_queries(1, 3)[0];

  QueryEngineConfig cfg;
  cfg.cache.enabled = true;
  cfg.cache.ttl = 2;
  QueryEngine eng(tb.pool(), cfg);
  eng.take(eng.submit(sink, q));
  eng.tick(5);
  const auto later = eng.take(eng.submit(sink, q));
  EXPECT_GT(later.messages, 0u);
  EXPECT_GE(eng.cache_stats().expirations, 1u);
}

TEST(QueryEngineCache, TtlBoundaryIsExact) {
  // Entry age is now - stored_at: exactly ttl = expired, ttl-1 = fresh.
  Testbed tb(small_config(3));
  tb.insert_workload();
  Rng sink_rng(61);
  const auto sink = tb.random_node(sink_rng);
  const auto q = overlapping_queries(1, 3)[0];

  QueryEngineConfig cfg;
  cfg.cache.enabled = true;
  cfg.cache.ttl = 10;
  QueryEngine eng(tb.pool(), cfg);
  eng.take(eng.submit(sink, q));  // submit advances to 1, stored_at = 1
  eng.tick(8);                    // now = 9
  // This submit advances to 10: age = 10 - 1 = ttl - 1, still fresh.
  const auto fresh = eng.take(eng.submit(sink, q));
  EXPECT_EQ(fresh.messages, 0u) << "entry expired one event early";
  EXPECT_EQ(eng.cache_stats().hits, 1u);
  // A hit does not restamp: the next submit sees age = 11 - 1 = ttl.
  const auto stale = eng.take(eng.submit(sink, q));
  EXPECT_GT(stale.messages, 0u) << "entry served at exactly ttl";
  EXPECT_EQ(eng.cache_stats().hits, 1u);
  EXPECT_EQ(eng.cache_stats().expirations, 1u);
}

TEST(QueryEngineCache, DataAgingPrunesEntriesInPlace) {
  // expire_before used to clear the whole cache; now each entry sheds
  // exactly its own aged events and keeps serving hits.
  Testbed tb(small_config(3));
  Rng rng(67);
  for (int i = 0; i < 120; ++i) {
    storage::Event e;
    e.id = static_cast<std::uint64_t>(i + 1);
    e.source = 0;
    e.detected_at = static_cast<double>(i);
    for (int d = 0; d < 3; ++d) e.values.push_back(rng.uniform());
    tb.pool().insert(0, e);
  }
  QueryEngineConfig cfg;
  cfg.cache.enabled = true;
  QueryEngine eng(tb.pool(), cfg);
  const RangeQuery wide({{0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0}});
  const auto before = eng.take(eng.submit(0, wide));
  ASSERT_EQ(before.events.size(), 120u);

  eng.expire_before(60.0);
  const auto after = eng.take(eng.submit(0, wide));
  EXPECT_EQ(after.messages, 0u) << "aging should not evict the entry";
  EXPECT_EQ(eng.cache_stats().hits, 1u);
  EXPECT_EQ(after.events.size(), 60u);
  for (const auto& e : after.events) EXPECT_GE(e.detected_at, 60.0);

  // The served set is the exact post-aging answer.
  auto served = after.events;
  auto direct = tb.pool().execute(0, wide).events;
  const auto by_id = [](const storage::Event& a, const storage::Event& b) {
    return a.id < b.id;
  };
  std::sort(served.begin(), served.end(), by_id);
  std::sort(direct.begin(), direct.end(), by_id);
  EXPECT_EQ(served, direct);
}

TEST(QueryEngineCache, AgingEverythingLeavesEmptyButCorrectEntries) {
  Testbed tb(small_config(3));
  tb.insert_workload();  // workload events all carry detected_at = 0
  Rng sink_rng(71);
  const auto sink = tb.random_node(sink_rng);
  const auto q = overlapping_queries(1, 3)[0];

  QueryEngineConfig cfg;
  cfg.cache.enabled = true;
  QueryEngine eng(tb.pool(), cfg);
  eng.take(eng.submit(sink, q));
  eng.expire_before(1.0);  // ages out every stored event
  const auto empty = eng.take(eng.submit(sink, q));
  EXPECT_EQ(empty.messages, 0u);
  EXPECT_TRUE(empty.events.empty());
  EXPECT_EQ(empty.events, tb.pool().execute(sink, q).events);
}

// ---------------------------------------------------------------------
// Epoch triggers and spec parsing.
// ---------------------------------------------------------------------

TEST(QueryEngineEpochs, DeadlineFlushesPartialEpoch) {
  Testbed tb(small_config(3));
  tb.insert_workload();
  Rng sink_rng(53);
  const auto sink = tb.random_node(sink_rng);
  const auto queries = overlapping_queries(2, 3);

  QueryEngineConfig cfg;
  cfg.batch_size = 8;
  cfg.batch_deadline = 3;
  QueryEngine eng(tb.pool(), cfg);
  const auto t0 = eng.submit(sink, queries[0]);
  const auto t1 = eng.submit(sink, queries[1]);
  EXPECT_EQ(eng.pending(), 2u);
  eng.tick(3);
  EXPECT_EQ(eng.pending(), 0u);
  EXPECT_TRUE(eng.ready(t0));
  EXPECT_TRUE(eng.ready(t1));
}

TEST(QueryEngineEpochs, TakeFlushesAndUnknownTicketThrows) {
  Testbed tb(small_config(3));
  tb.insert_workload();
  Rng sink_rng(59);
  const auto sink = tb.random_node(sink_rng);
  const auto q = overlapping_queries(1, 3)[0];

  QueryEngineConfig cfg;
  cfg.batch_size = 8;
  QueryEngine eng(tb.pool(), cfg);
  const auto t = eng.submit(sink, q);
  EXPECT_FALSE(eng.ready(t));
  const auto r = eng.take(t);  // implicit flush
  EXPECT_EQ(r.events, tb.pool().execute(sink, q).events);
  EXPECT_THROW(eng.take(t), ConfigError);      // already redeemed
  EXPECT_THROW(eng.take(123456), ConfigError);  // never issued
}

TEST(QueryEngineSpecs, BatchAndQcacheParsing) {
  std::size_t n = 99;
  std::string err;
  EXPECT_TRUE(parse_batch_spec("off", &n, &err));
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(parse_batch_spec("16", &n, &err));
  EXPECT_EQ(n, 16u);
  EXPECT_FALSE(parse_batch_spec("0", &n, &err));
  EXPECT_FALSE(parse_batch_spec("sixteen", &n, &err));

  ResultCacheConfig cache;
  EXPECT_TRUE(parse_qcache_spec("on", &cache, &err));
  EXPECT_TRUE(cache.enabled);
  EXPECT_EQ(cache.ttl, 0u);
  EXPECT_TRUE(parse_qcache_spec("ttl:40", &cache, &err));
  EXPECT_TRUE(cache.enabled);
  EXPECT_EQ(cache.ttl, 40u);
  EXPECT_TRUE(parse_qcache_spec("off", &cache, &err));
  EXPECT_FALSE(cache.enabled);
  EXPECT_FALSE(parse_qcache_spec("ttl:0", &cache, &err));
  EXPECT_FALSE(parse_qcache_spec("maybe", &cache, &err));
}

}  // namespace
}  // namespace poolnet::engine
