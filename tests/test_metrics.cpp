// Observability subsystem: registry correctness, shard-merge
// determinism, snapshot emission stability, hop tracing, hotspot
// reports, and conservation between the telemetry surface and the
// receipts the rest of the repo accounts with.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "bench_support/parallel.h"
#include "bench_support/telemetry_bridge.h"
#include "bench_support/testbed.h"
#include "engine/query_engine.h"
#include "ght/ght_system.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "query/query_gen.h"
#include "routing/gpsr.h"
#include "storage/dcs_system.h"

using namespace poolnet;

TEST(MetricsRegistry, CounterAddAndValue) {
  obs::MetricsRegistry reg;
  auto c = reg.counter("tx");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);

  // Re-registering the same name returns a handle to the same slot.
  auto same = reg.counter("tx");
  same.add(8);
  EXPECT_EQ(c.value(), 50u);
  EXPECT_EQ(reg.metric_count(), 1u);
}

TEST(MetricsRegistry, HistogramBucketsAndOverflow) {
  obs::MetricsRegistry reg;
  auto h = reg.histogram("lat", 2.0, 4);  // [0,2) [2,4) [4,6) [6,8) + over
  h.add(0.0);
  h.add(1.9);
  h.add(2.0);
  h.add(7.9);
  h.add(8.0);    // overflow
  h.add(100.0);  // overflow

  const auto snap = reg.scrape();
  const auto& hist = snap.histograms.at("lat");
  ASSERT_EQ(hist.buckets.size(), 4u);
  EXPECT_EQ(hist.buckets[0], 2u);
  EXPECT_EQ(hist.buckets[1], 1u);
  EXPECT_EQ(hist.buckets[2], 0u);
  EXPECT_EQ(hist.buckets[3], 1u);
  EXPECT_EQ(hist.overflow, 2u);
  EXPECT_EQ(hist.total(), 6u);
  EXPECT_DOUBLE_EQ(hist.quantile(0.5), 4.0);  // 2+1 of 6 covered at edge 4
}

// The registry's shards must merge to the same bytes no matter how many
// threads did the incrementing.
TEST(MetricsRegistry, ShardMergeIsThreadCountInvariant) {
  const auto run = [](std::size_t threads) {
    obs::MetricsRegistry reg;
    auto c = reg.counter("ops");
    auto h = reg.histogram("sizes", 1.0, 8);
    benchsup::parallel_map<int>(8, threads, [&](std::size_t i) {
      for (std::size_t k = 0; k <= i; ++k) {
        c.inc();
        h.add(static_cast<double>(i));
      }
      return 0;
    });
    return reg.scrape().to_json();
  };
  const std::string serial = run(1);
  EXPECT_EQ(serial, run(4));
  EXPECT_EQ(serial, run(8));
}

TEST(Snapshot, MergeSumsEverySection) {
  obs::Snapshot a, b;
  a.counters["c"] = 3;
  b.counters["c"] = 4;
  b.counters["only_b"] = 1;
  a.gauges["g"] = 0.5;
  b.gauges["g"] = 1.5;
  a.series["s"] = {1.0, 2.0};
  b.series["s"] = {10.0, 20.0, 30.0};
  a += b;
  EXPECT_EQ(a.counters["c"], 7u);
  EXPECT_EQ(a.counters["only_b"], 1u);
  EXPECT_DOUBLE_EQ(a.gauges["g"], 2.0);
  ASSERT_EQ(a.series["s"].size(), 3u);
  EXPECT_DOUBLE_EQ(a.series["s"][0], 11.0);
  EXPECT_DOUBLE_EQ(a.series["s"][2], 30.0);

  // Emission is deterministic: same snapshot, same bytes.
  EXPECT_EQ(a.to_json(), a.to_json());
  EXPECT_NE(a.to_csv().find("counter,c,,7"), std::string::npos);
}

TEST(CostBreakdown, AccumulatesAndDerivesFromTally) {
  storage::CostBreakdown a;
  a.messages = 10;
  a.query_messages = 6;
  a.reply_messages = 4;
  storage::CostBreakdown b = a;
  b += a;
  EXPECT_EQ(b.messages, 20u);
  EXPECT_EQ(b.query_messages, 12u);
  EXPECT_EQ(b.reply_messages, 8u);

  net::TrafficTally t;
  t.total = 9;
  t.by_kind[static_cast<std::size_t>(net::MessageKind::Query)] = 5;
  t.by_kind[static_cast<std::size_t>(net::MessageKind::SubQuery)] = 1;
  t.by_kind[static_cast<std::size_t>(net::MessageKind::Reply)] = 3;
  const storage::CostBreakdown c = storage::cost_of(t);
  EXPECT_EQ(c.messages, 9u);
  EXPECT_EQ(c.query_messages, 6u);  // Query + SubQuery forwarding legs
  EXPECT_EQ(c.reply_messages, 3u);

  // Receipts inherit the triple: one assignment moves the whole cost.
  storage::QueryReceipt r;
  r.cost() = c;
  EXPECT_EQ(r.messages, 9u);
  EXPECT_EQ(r.reply_messages, 3u);
}

TEST(LoadReport, GiniAndIndexNodeGini) {
  // Perfectly even among loaded nodes.
  const obs::LoadReport even = obs::load_report({0, 5, 5, 5, 0});
  EXPECT_EQ(even.max_load, 5u);
  EXPECT_EQ(even.loaded_nodes, 3u);
  EXPECT_DOUBLE_EQ(even.gini_loaded, 0.0);
  EXPECT_GT(even.gini, 0.0);  // the zeros make the all-node Gini positive

  // One node holds everything: both Ginis high, gini_loaded of a single
  // node degenerates to 0.
  const obs::LoadReport spike = obs::load_report({0, 0, 0, 12});
  EXPECT_NEAR(spike.gini, 0.75, 1e-9);
  EXPECT_DOUBLE_EQ(spike.gini_loaded, 0.0);
  EXPECT_DOUBLE_EQ(spike.mean_loaded, 12.0);

  // Skew among the loaded nodes registers in gini_loaded.
  const obs::LoadReport skew = obs::load_report({0, 1, 1, 18});
  EXPECT_GT(skew.gini_loaded, 0.5);
  EXPECT_EQ(obs::gini_coefficient({}), 0.0);
  EXPECT_EQ(obs::gini_coefficient({0, 0}), 0.0);
}

TEST(Telemetry, ParsesMetricsSpecs) {
  obs::TelemetryConfig cfg;
  std::string err;
  EXPECT_TRUE(obs::parse_metrics_spec("off", &cfg, &err));
  EXPECT_FALSE(cfg.wants_metrics());
  EXPECT_TRUE(obs::parse_metrics_spec("json", &cfg, &err));
  EXPECT_EQ(cfg.format, obs::MetricsFormat::Json);
  EXPECT_TRUE(cfg.path.empty());
  EXPECT_TRUE(obs::parse_metrics_spec("csv:/tmp/m.csv", &cfg, &err));
  EXPECT_EQ(cfg.format, obs::MetricsFormat::Csv);
  EXPECT_EQ(cfg.path, "/tmp/m.csv");
  EXPECT_FALSE(obs::parse_metrics_spec("yaml", &cfg, &err));
  EXPECT_FALSE(err.empty());
}

TEST(Trace, RingSinkKeepsMostRecentHops) {
  obs::RingTraceSink ring(3);
  for (std::uint64_t i = 0; i < 5; ++i) {
    obs::HopRecord hop;
    hop.msg_id = i;
    hop.hop_index = static_cast<std::uint32_t>(i);
    ring.on_hop(hop);
  }
  EXPECT_EQ(ring.recorded(), 5u);
  EXPECT_EQ(ring.size(), 3u);
  const auto hops = ring.drain();
  ASSERT_EQ(hops.size(), 3u);
  EXPECT_EQ(hops.front().msg_id, 2u);  // oldest retained
  EXPECT_EQ(hops.back().msg_id, 4u);
}

TEST(Trace, NetworkEmitsOrderedHopsWhenAttached) {
  benchsup::TestbedConfig config;
  config.nodes = 120;
  config.seed = 3;
  config.trace_capacity = 1 << 14;
  benchsup::Testbed tb(config);
  tb.insert_workload();
  const obs::RingTraceSink* trace = tb.trace(benchsup::SystemKind::Pool);
  ASSERT_NE(trace, nullptr);
  EXPECT_GT(trace->recorded(), 0u);

  // Within one message, hop indices ascend from 0 along the path.
  std::uint64_t multi_hop_messages = 0;
  std::uint64_t last_msg = ~std::uint64_t{0};
  std::uint32_t last_hop = 0;
  for (const auto& hop : trace->drain()) {
    if (hop.msg_id == last_msg) {
      EXPECT_EQ(hop.hop_index, last_hop + 1);
      ++multi_hop_messages;
    }
    last_msg = hop.msg_id;
    last_hop = hop.hop_index;
  }
  EXPECT_GT(multi_hop_messages, 0u);
  EXPECT_NE(trace->to_csv().find("msg_id"), std::string::npos);
}

// GPSR's hop budget (16 N + 256) passes 65,535 from about 4,080 nodes
// up, so a long perimeter or fallback path must not wrap its hop indices.
TEST(Trace, HopIndicesDoNotWrapOnLongPaths) {
  net::Network net({{0, 0}, {30, 0}}, Rect{0, 0, 40, 10}, 40.0);
  constexpr std::size_t kPathNodes = 70'000;
  obs::RingTraceSink ring(kPathNodes);
  net.set_trace(&ring);
  std::vector<net::NodeId> path(kPathNodes);
  for (std::size_t i = 0; i < kPathNodes; ++i)
    path[i] = static_cast<net::NodeId>(i % 2);
  const auto delivered =
      net.transmit_path(path, net::MessageKind::Query, 64);
  EXPECT_TRUE(delivered.complete);
  const auto hops = ring.drain();
  ASSERT_EQ(hops.size(), kPathNodes - 1);
  for (std::size_t i = 0; i < hops.size(); ++i) {
    ASSERT_EQ(hops[i].hop_index, i) << "hop " << i;
    ASSERT_EQ(hops[i].msg_id, hops[0].msg_id);
  }
}

// The telemetry surface and the receipt accounting must agree: the sum of
// per-node transmit counters equals the ledger totals the receipts were
// cut from.
TEST(Conservation, NodeTxMatchesTrafficAndReceipts) {
  benchsup::TestbedConfig config;
  config.nodes = 150;
  config.seed = 7;
  benchsup::Testbed tb(config);
  tb.insert_workload();

  const auto sum_tx = [](const net::Network& net) {
    std::uint64_t tx = 0;
    for (const auto& n : net.nodes()) tx += n.tx_count;
    return tx;
  };

  // After insertion the ledgers were captured and cleared, but the node
  // counters persist: Σ tx == insertion messages.
  EXPECT_EQ(sum_tx(tb.pool_network()), tb.pool_insert_traffic().total);
  EXPECT_EQ(sum_tx(tb.dim_network()), tb.dim_insert_traffic().total);

  // Query receipts: Σ receipt.messages == growth of Σ node tx counters.
  const std::uint64_t pool_tx0 = sum_tx(tb.pool_network());
  const std::uint64_t dim_tx0 = sum_tx(tb.dim_network());
  query::QueryGenerator qgen({.dims = 3}, 99);
  Rng sink_rng(5);
  std::uint64_t pool_msgs = 0, dim_msgs = 0;
  for (int i = 0; i < 12; ++i) {
    const auto q = qgen.exact_range();
    const auto sink = tb.random_node(sink_rng);
    pool_msgs += tb.pool().execute(sink, q).messages;
    dim_msgs += tb.dim().execute(sink, q).messages;
  }
  EXPECT_EQ(sum_tx(tb.pool_network()) - pool_tx0, pool_msgs);
  EXPECT_EQ(sum_tx(tb.dim_network()) - dim_tx0, dim_msgs);

  // Same conservation through the bridge: the published per-node tx lanes
  // sum to the receipts + insertion.
  obs::Snapshot snap;
  benchsup::publish_network(snap, "pool", tb.pool_network());
  const auto& lane = snap.series.at("pool.node.tx");
  const double lane_sum = std::accumulate(lane.begin(), lane.end(), 0.0);
  EXPECT_DOUBLE_EQ(
      lane_sum,
      static_cast<double>(tb.pool_insert_traffic().total + pool_msgs));
  EXPECT_EQ(snap.counters.at("pool.net.retries"), 0u);  // ideal links
}

TEST(Conservation, GhtNodeTxMatchesReceipts) {
  benchsup::TestbedConfig config;
  config.nodes = 120;
  config.seed = 11;
  benchsup::Testbed tb(config);
  tb.insert_workload();

  net::Network net(tb.topology());
  routing::Gpsr gpsr(net);
  ght::GhtSystem ght(net, gpsr, config.dims);
  std::uint64_t expected = 0;
  for (const auto& e : tb.oracle().all())
    expected += ght.insert(e.source, e).messages;
  query::QueryGenerator qgen({.dims = 3}, 17);
  for (int i = 0; i < 8; ++i)
    expected += ght.execute(0, qgen.exact_point()).messages;

  std::uint64_t tx = 0;
  for (const auto& n : net.nodes()) tx += n.tx_count;
  EXPECT_EQ(tx, expected);
}

TEST(Describe, SystemsReportTheirParameters) {
  benchsup::TestbedConfig config;
  config.nodes = 120;
  config.seed = 2;
  benchsup::Testbed tb(config);
  EXPECT_NE(tb.pool().describe().find("Pool (l=10"), std::string::npos);
  EXPECT_NE(tb.pool().describe().find("alpha=5"), std::string::npos);
  EXPECT_NE(tb.dim().describe().find("DIM (dims=3"), std::string::npos);
  EXPECT_NE(tb.dim().describe().find("zones="), std::string::npos);
  // The base-class default falls back to name().
  EXPECT_EQ(std::string(tb.pool().name()), "Pool");
}

// Registry-backed component stats: the old struct accessors are views
// over the namespaced registry counters.
TEST(RegistryViews, RouteCacheAndEngineShareOneRegistry) {
  benchsup::TestbedConfig config;
  config.nodes = 150;
  config.seed = 4;
  benchsup::Testbed tb(config);
  tb.insert_workload();
  engine::QueryEngine eng(tb.pool(), {}, &tb.metrics(), "pool.engine");
  query::QueryGenerator qgen({.dims = 3}, 31);
  for (int i = 0; i < 6; ++i) eng.take(eng.submit(3, qgen.exact_range()));

  const auto snap = tb.metrics().scrape();
  EXPECT_EQ(snap.counters.at("pool.engine.submitted"), 6u);
  EXPECT_EQ(snap.counters.at("pool.engine.submitted"),
            eng.stats().submitted);
  const routing::RouteCache* cache =
      tb.route_cache(benchsup::SystemKind::Pool);
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(snap.counters.at("pool.route_cache.hits"), cache->stats().hits);
  EXPECT_GT(snap.counters.at("pool.route_cache.hits") +
                snap.counters.at("pool.route_cache.misses"),
            0u);
}

// One scrape sees Pool's route cache and every deployed kind's network,
// and nothing for a kind that was never deployed. No other kind has a
// route cache, deployed or not.
TEST(Telemetry, TestbedScrapeCoversDeployedKinds) {
  benchsup::TestbedConfig config;
  config.nodes = 120;
  config.seed = 9;
  benchsup::Testbed tb(config);
  tb.insert_workload();
  tb.deploy(benchsup::SystemKind::Central);
  const obs::Snapshot snap = benchsup::scrape_testbed(tb);
  ASSERT_TRUE(snap.counters.count("pool.route_cache.misses"));
  EXPECT_GT(snap.counters.at("pool.route_cache.misses"), 0u);
  for (const std::string kind : {"pool", "dim", "central"})
    EXPECT_TRUE(snap.counters.count(kind + ".net.messages")) << kind;
  for (const std::string kind : {"dim", "ght", "central"}) {
    for (const std::string what :
         {"hits", "misses", "evictions", "invalidated"})
      EXPECT_FALSE(snap.counters.count(kind + ".route_cache." + what))
          << kind << " " << what;
  }
  EXPECT_FALSE(snap.counters.count("ght.net.messages"));
  // The scrape emits through the same deterministic JSON path as every
  // other instrument.
  EXPECT_NE(snap.to_json().find("pool.net.energy_j"), std::string::npos);
}
