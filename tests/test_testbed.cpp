#include "bench_support/testbed.h"

#include <gtest/gtest.h>

#include "bench_support/experiment.h"
#include "bench_support/parallel.h"
#include "fingerprint.h"
#include "ght/ght_system.h"
#include "query/query_gen.h"

namespace poolnet::benchsup {
namespace {

TestbedConfig small_config(std::uint64_t seed = 1, std::size_t nodes = 200) {
  TestbedConfig config;
  config.nodes = nodes;
  config.seed = seed;
  return config;
}

TEST(Testbed, BuildsConnectedNetworksOverSamePositions) {
  Testbed tb(small_config());
  EXPECT_TRUE(tb.topology()->is_connected());
  for (const SystemKind kind : kAllSystemKinds) {
    tb.deploy(kind);
    EXPECT_EQ(&tb.network(kind).topology(), tb.topology().get())
        << to_string(kind);
  }
}

/// Sum of a per-node counter over `kind`'s own node records.
template <class Field>
std::uint64_t node_sum(Testbed& tb, SystemKind kind, Field field) {
  std::uint64_t sum = 0;
  for (const net::Node& n : tb.network(kind).nodes()) sum += n.*field;
  return sum;
}

// Alive bits, stored events and tx counters are each system's own: the
// shared topology carries none of them.
TEST(Testbed, NodeStateStaysPerSystem) {
  Testbed tb(small_config(12));
  tb.insert_workload();
  for (const SystemKind kind : kAllSystemKinds) tb.deploy(kind);
  for (const SystemKind kind :
       {SystemKind::Pool, SystemKind::Dim, SystemKind::Ght}) {
    EXPECT_EQ(node_sum(tb, kind, &net::Node::stored_events),
              tb.deploy(kind).stored_count())
        << to_string(kind);
  }

  // A death and a few queries on Pool's network touch no other ledger.
  const auto others = {SystemKind::Dim, SystemKind::Ght, SystemKind::Central};
  std::vector<std::uint64_t> tx;
  for (const SystemKind kind : others)
    tx.push_back(node_sum(tb, kind, &net::Node::tx_count));
  const std::uint64_t pool_tx =
      node_sum(tb, SystemKind::Pool, &net::Node::tx_count);
  tb.network(SystemKind::Pool).kill(7);
  tb.pool().handle_node_failure(7);
  query::QueryGenerator gen({.dims = 3}, 121);
  for (int i = 0; i < 5; ++i) tb.pool().execute(0, gen.exact_range());
  EXPECT_EQ(tb.network(SystemKind::Pool).dead_count(), 1u);
  EXPECT_GT(node_sum(tb, SystemKind::Pool, &net::Node::tx_count), pool_tx);
  auto before = tx.begin();
  for (const SystemKind kind : others) {
    EXPECT_TRUE(tb.network(kind).alive(7)) << to_string(kind);
    EXPECT_EQ(tb.network(kind).dead_count(), 0u) << to_string(kind);
    EXPECT_EQ(node_sum(tb, kind, &net::Node::tx_count), *before++)
        << to_string(kind);
  }
}

// Every kind charges the config's channel: GHT and central too, which once
// ran on ideal default links whatever the config said.
TEST(Testbed, EveryKindGetsTheConfiguredChannel) {
  TestbedConfig config = small_config(13);
  config.loss.loss_probability = 0.1;
  config.sizes.events_per_message = 4;
  Testbed tb(config);
  tb.insert_workload();
  query::QueryGenerator gen({.dims = 3}, 131);
  for (const SystemKind kind : kAllSystemKinds) {
    SCOPED_TRACE(to_string(kind));
    storage::DcsSystem& sys = tb.deploy(kind);
    const net::Network& net = tb.network(kind);
    EXPECT_EQ(net.loss_model().loss_probability, 0.1);
    EXPECT_EQ(net.loss_model().max_attempts, config.loss.max_attempts);
    EXPECT_EQ(net.sizes().events_per_message, 4u);
    EXPECT_EQ(net.sizes().header_bits, config.sizes.header_bits);
    EXPECT_EQ(net.sizes().attr_bits, config.sizes.attr_bits);
    const std::uint64_t retries =
        node_sum(tb, kind, &net::Node::retry_count);
    for (const auto mix : {query::QueryClassMix::Range,
                           query::QueryClassMix::Skyline,
                           query::QueryClassMix::Knn})
      sys.execute(5, gen.next(mix));
    EXPECT_GT(node_sum(tb, kind, &net::Node::retry_count), retries);
  }
}

TEST(Testbed, DensityNearPaperTarget) {
  Testbed tb(small_config(2, 900));
  EXPECT_GT(tb.pool_network().average_degree(), 14.0);
  EXPECT_LT(tb.pool_network().average_degree(), 22.0);
}

TEST(Testbed, InsertWorkloadFillsAllThreeStores) {
  Testbed tb(small_config(3));
  const auto n = tb.insert_workload();
  EXPECT_EQ(n, 200u * 3u);
  EXPECT_EQ(tb.pool().stored_count(), n);
  EXPECT_EQ(tb.dim().stored_count(), n);
  EXPECT_EQ(tb.oracle().stored_count(), n);
}

TEST(Testbed, InsertTrafficTrackedPerSystem) {
  Testbed tb(small_config(4));
  tb.insert_workload();
  EXPECT_GT(tb.pool_insert_traffic().total, 0u);
  EXPECT_GT(tb.dim_insert_traffic().total, 0u);
  // Query-time ledgers start clean.
  EXPECT_EQ(tb.pool_network().traffic().total, 0u);
  EXPECT_EQ(tb.dim_network().traffic().total, 0u);
}

TEST(Testbed, DeterministicAcrossRebuilds) {
  Testbed a(small_config(5));
  Testbed b(small_config(5));
  a.insert_workload();
  b.insert_workload();
  EXPECT_EQ(a.pool_insert_traffic().total, b.pool_insert_traffic().total);
  EXPECT_EQ(a.dim_insert_traffic().total, b.dim_insert_traffic().total);
}

/// One full Pool+DIM run: insert traffic, per-query receipts, batch and
/// aggregate receipts, and Pool's route-cache counters.
Fingerprint run_testbed(std::uint64_t seed) {
  Testbed tb(small_config(seed));
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

  // Pool keeps a route cache (on by default); DIM routes through its
  // Gpsr alone.
  EXPECT_EQ(tb.route_cache(SystemKind::Dim), nullptr);
  const auto* cache = tb.route_cache(SystemKind::Pool);
  EXPECT_NE(cache, nullptr) << "route cache should default on";
  if (cache) {
    const auto s = cache->stats();
    fp.add(s.hits);
    fp.add(s.misses);
    fp.add(s.entries);
  }
  return fp;
}

// Concurrent testbeds share no state: four whole runs through
// parallel_map fingerprint the same at one and at four threads.
TEST(Testbed, RunsIdenticalAtOneAndFourThreads) {
  const auto sweep = [](std::size_t threads) {
    return parallel_map<Fingerprint>(
        4, threads, [](std::size_t i) { return run_testbed(i + 1); });
  };
  const auto serial = sweep(1);
  const auto parallel = sweep(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i].words, parallel[i].words) << "job " << i;
}

// --- Testbed::deploy against the hand-built copy it replaced -------------

/// A system built by hand the way every caller did before Testbed::deploy:
/// its own Network over the testbed's topology with the Network defaults,
/// Gpsr, a RouteCache with the testbed's config, then the oracle replayed
/// in. The twin always routes through the cache, whatever the Testbed
/// gives the same kind, so equal receipts pin that the cache replays
/// routes verbatim.
struct HandBuilt {
  HandBuilt(Testbed& tb, SystemKind kind, const storage::StoreConfig& store)
      : net(tb.topology()),
        gpsr(net),
        cache(gpsr, tb.config().route_cache) {
    const std::size_t dims = tb.config().dims;
    if (kind == SystemKind::Dim)
      system = std::make_unique<dim::DimSystem>(net, cache, dims);
    else if (kind == SystemKind::Ght)
      system = std::make_unique<ght::GhtSystem>(net, cache, dims);
    else
      system = storage::make_central_store(dims, store, &net, &cache,
                                           net::NodeId{0});
    for (const auto& e : tb.oracle().all()) system->insert(e.source, e);
    insert_traffic = net.traffic();
    net.reset_traffic();
  }

  net::Network net;
  routing::Gpsr gpsr;
  routing::RouteCache cache;
  std::unique_ptr<storage::DcsSystem> system;
  net::TrafficTally insert_traffic;
};

/// Every field of a ledger, the energy as raw bits.
Fingerprint traffic_words(const net::TrafficTally& t) {
  Fingerprint fp;
  for (const std::uint64_t n : t.by_kind) fp.add(n);
  fp.add(t.total);
  fp.add(t.lost);
  fp.add_bits(t.energy_j);
  return fp;
}

/// Receipts (cost, content and order) of a fixed range, skyline, k-NN
/// and aggregate list, from fixed sinks; a sink dead on `net` is redrawn
/// from the same stream.
Fingerprint run_fixed_queries(storage::DcsSystem& system,
                              const net::Network& net) {
  query::QueryGenerator gen({.dims = 3}, 91);
  Rng sinks(92);
  const auto next_sink = [&] {
    net::NodeId sink;
    do {
      sink = static_cast<net::NodeId>(sinks.uniform_int(0, 199));
    } while (!net.alive(sink));
    return sink;
  };
  Fingerprint fp;
  for (int i = 0; i < 4; ++i) {
    for (const auto mix : {query::QueryClassMix::Range,
                           query::QueryClassMix::Skyline,
                           query::QueryClassMix::Knn})
      fp.add_receipt(system.execute(next_sink(), gen.next(mix)));
    const auto agg = system.execute(
        next_sink(), storage::AggregateQuery{gen.exact_range(),
                                             storage::AggregateKind::Sum, 1});
    fp.add_cost(agg);
    fp.add_bits(agg.aggregate.value);
    fp.add(agg.aggregate.count);
  }
  return fp;
}

/// `kind` as the Testbed deploys it against its hand-built twin: insert
/// ledgers, then the fixed queries' receipts and query ledgers, after
/// killing `kill_fraction` of the nodes (never node 0, central's base
/// station) on both networks when it is above zero.
void expect_deploy_matches_hand_built(SystemKind kind,
                                      const std::string& store_spec,
                                      double kill_fraction = 0.0) {
  SCOPED_TRACE(std::string(to_string(kind)) + " " + store_spec);
  storage::StoreConfig store;
  std::string error;
  ASSERT_TRUE(storage::parse_store_spec(store_spec, &store, &error)) << error;

  Testbed tb(small_config(8));
  tb.insert_workload();
  const bool built_at_construction =
      kind == SystemKind::Pool || kind == SystemKind::Dim;
  ASSERT_EQ(tb.deployed(kind), built_at_construction);
  storage::DcsSystem& deployed = tb.deploy(kind, store);
  EXPECT_TRUE(tb.deployed(kind));
  EXPECT_EQ(&tb.deploy(kind, store), &deployed) << "second deploy rebuilt";
  HandBuilt twin(tb, kind, store);

  EXPECT_EQ(deployed.stored_count(), tb.oracle().stored_count());
  EXPECT_GT(tb.insert_traffic(kind).total, 0u);
  EXPECT_EQ(traffic_words(tb.insert_traffic(kind)),
            traffic_words(twin.insert_traffic));
  EXPECT_EQ(tb.network(kind).traffic().total, 0u);

  net::Network& net = tb.network(kind);
  if (kill_fraction > 0.0) {
    // Twice over first, so the twin's cache holds routes (it stores one on
    // its second sighting) through nodes about to die.
    for (int pass = 0; pass < 2; ++pass)
      EXPECT_EQ(run_fixed_queries(deployed, net),
                run_fixed_queries(*twin.system, twin.net));
    ASSERT_GT(twin.cache.stats().entries, 0u);
    Rng victims(88);
    const auto n = static_cast<std::int64_t>(net.size());
    const auto kills = static_cast<std::size_t>(kill_fraction * n);
    while (net.dead_count() < kills) {
      const auto v = static_cast<net::NodeId>(victims.uniform_int(1, n - 1));
      if (!net.alive(v)) continue;
      net.kill(v);
      twin.net.kill(v);
    }
    ASSERT_EQ(twin.net.dead_count(), kills);
  }
  EXPECT_EQ(run_fixed_queries(deployed, net),
            run_fixed_queries(*twin.system, twin.net));
  EXPECT_EQ(traffic_words(net.traffic()), traffic_words(twin.net.traffic()));
}

TEST(TestbedDeploy, GhtMatchesHandBuiltCopy) {
  expect_deploy_matches_hand_built(SystemKind::Ght, "flat");
}

TEST(TestbedDeploy, CentralFlatMatchesHandBuiltCopy) {
  expect_deploy_matches_hand_built(SystemKind::Central, "flat");
}

TEST(TestbedDeploy, CentralPagedMatchesHandBuiltCopy) {
  expect_deploy_matches_hand_built(SystemKind::Central, "paged:4:512");
}

TEST(TestbedDeploy, DimMatchesHandBuiltCopy) {
  expect_deploy_matches_hand_built(SystemKind::Dim, "flat");
}

// 20% of the nodes die before the queries: each twin learns of them only
// through failed legs, and its cache drops every stored path through them.
TEST(TestbedDeploy, MatchesHandBuiltCopyUnderKills) {
  for (const SystemKind kind :
       {SystemKind::Dim, SystemKind::Ght, SystemKind::Central})
    expect_deploy_matches_hand_built(kind, "flat", 0.2);
}

TEST(TestbedDeploy, PoolAndDimAreTheConstructedSystems) {
  Testbed tb(small_config(9));
  EXPECT_EQ(&tb.deploy(SystemKind::Pool), &tb.pool());
  EXPECT_EQ(&tb.deploy(SystemKind::Dim), &tb.dim());
  EXPECT_FALSE(tb.deployed(SystemKind::Ght));
  EXPECT_FALSE(tb.deployed(SystemKind::Central));
  EXPECT_THROW(tb.network(SystemKind::Ght), AssertionError);
}

// A system deployed before the workload is generated still receives it:
// insert_workload feeds every deployed system, in the replay's order.
TEST(TestbedDeploy, DeployBeforeWorkloadMatchesDeployAfter) {
  Testbed before(small_config(10));
  storage::DcsSystem& early = before.deploy(SystemKind::Ght);
  before.insert_workload();
  Testbed after(small_config(10));
  after.insert_workload();
  storage::DcsSystem& late = after.deploy(SystemKind::Ght);

  EXPECT_EQ(early.stored_count(), late.stored_count());
  EXPECT_EQ(before.insert_traffic(SystemKind::Ght).total,
            after.insert_traffic(SystemKind::Ght).total);
  EXPECT_EQ(run_fixed_queries(early, before.network(SystemKind::Ght)),
            run_fixed_queries(late, after.network(SystemKind::Ght)));
}

TEST(SystemKindNames, RoundTrip) {
  for (const SystemKind kind : kAllSystemKinds) {
    SystemKind parsed = SystemKind::Pool;
    std::string error;
    ASSERT_TRUE(parse_system_kind(to_string(kind), &parsed, &error)) << error;
    EXPECT_EQ(parsed, kind);
  }
  SystemKind parsed;
  std::string error;
  EXPECT_FALSE(parse_system_kind("Pool", &parsed, &error));
  EXPECT_EQ(error,
            "unknown system 'Pool' (expected pool, dim, ght or central)");
}

TEST(PairedRunner, BothSystemsMatchOracleEverywhere) {
  Testbed tb(small_config(6));
  tb.insert_workload();
  query::QueryGenerator qgen({.dims = 3}, 66);
  const auto queries =
      generate_queries(25, [&] { return qgen.exact_range(); });
  const auto run = run_paired_queries(tb, queries, 67);
  EXPECT_EQ(run.queries, 25u);
  EXPECT_EQ(run.pool_mismatches, 0u);
  EXPECT_EQ(run.dim_mismatches, 0u);
  EXPECT_GT(run.pool.messages.mean(), 0.0);
  EXPECT_GT(run.dim.messages.mean(), 0.0);
  EXPECT_GT(run.pool.energy_mj.mean(), 0.0);
}

TEST(PairedRunner, MergeAccumulates) {
  Testbed tb(small_config(7));
  tb.insert_workload();
  query::QueryGenerator qgen({.dims = 3}, 77);
  const auto queries =
      generate_queries(10, [&] { return qgen.exact_range(); });
  const auto a = run_paired_queries(tb, queries, 1);
  auto total = run_paired_queries(tb, queries, 2);
  merge_into(total, a);
  EXPECT_EQ(total.queries, 20u);
  EXPECT_EQ(total.pool.messages.count(), 20u);
}

TEST(Experiment, FmtFormatsFixedDecimals) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(10.0, 0), "10");
  EXPECT_EQ(fmt(0.5), "0.5");
}

TEST(Experiment, GenerateQueriesCallsFactoryNTimes) {
  int calls = 0;
  const auto qs = generate_queries(7, [&] {
    ++calls;
    return storage::RangeQuery({{0.0, 1.0}});
  });
  EXPECT_EQ(qs.size(), 7u);
  EXPECT_EQ(calls, 7);
}

}  // namespace
}  // namespace poolnet::benchsup
