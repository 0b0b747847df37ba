// Tests of the Section 4.2 workload-sharing mechanism under skewed loads.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "core/pool_system.h"
#include "connected_network.h"
#include "obs/trace.h"
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
  explicit Fixture(std::uint64_t seed, PoolConfig config, std::size_t n = 250)
      : oracle(3) {
    network = connected_network(seed, n);
    gpsr = std::make_unique<routing::Gpsr>(*network);
    pool = std::make_unique<PoolSystem>(*network, *gpsr, 3, config);
  }

  void insert_skewed(std::size_t count, std::uint64_t seed) {
    query::WorkloadConfig wc;
    wc.dims = 3;
    wc.dist = query::ValueDistribution::Gaussian;
    wc.center = 0.85;
    wc.spread = 0.02;
    query::EventGenerator gen(wc, seed);
    for (std::size_t i = 0; i < count; ++i) {
      const auto e = gen.next(static_cast<NodeId>(i % network->size()));
      pool->insert(e.source, e);
      oracle.insert(e.source, e);
    }
  }

  std::unique_ptr<Network> network;
  std::unique_ptr<routing::Gpsr> gpsr;
  std::unique_ptr<PoolSystem> pool;
  storage::BruteForceStore oracle;
};

std::vector<std::uint64_t> ids(const std::vector<Event>& evs) {
  std::vector<std::uint64_t> out;
  for (const auto& e : evs) out.push_back(e.id);
  std::sort(out.begin(), out.end());
  return out;
}

PoolConfig sharing_config(bool on, std::uint32_t threshold = 20) {
  PoolConfig c;
  c.workload_sharing = on;
  c.share_threshold = threshold;
  return c;
}

TEST(WorkloadSharing, ReducesMaxNodeLoadUnderSkew) {
  Fixture without(1, sharing_config(false));
  Fixture with(1, sharing_config(true, 20));
  without.insert_skewed(1500, 42);
  with.insert_skewed(1500, 42);
  EXPECT_LT(with.pool->max_node_load(), without.pool->max_node_load());
  EXPECT_LE(with.pool->max_node_load(), 20u + 25u)
      << "delegation should bound resident load near the threshold";
}

TEST(WorkloadSharing, NoEventsAreLost) {
  Fixture fx(2, sharing_config(true, 10));
  fx.insert_skewed(800, 7);
  EXPECT_EQ(fx.pool->stored_count(), 800u);
  std::uint64_t resident = 0;
  for (const auto& node : fx.network->nodes()) resident += node.stored_events;
  EXPECT_EQ(resident, 800u);
}

TEST(WorkloadSharing, QueriesStillReturnExactResults) {
  Fixture fx(3, sharing_config(true, 10));
  fx.insert_skewed(1000, 9);
  // The hotspot region query: most events live here, many at delegates.
  const RangeQuery hot({{0.7, 1.0}, {0.7, 1.0}, {0.7, 1.0}});
  EXPECT_EQ(ids(fx.pool->execute(0, hot).events), ids(fx.oracle.matching(hot)));
  const RangeQuery all({{0, 1}, {0, 1}, {0, 1}});
  EXPECT_EQ(ids(fx.pool->execute(5, all).events), ids(fx.oracle.matching(all)));
}

TEST(WorkloadSharing, DelegationCostsExtraMessages) {
  Fixture without(4, sharing_config(false));
  Fixture with(4, sharing_config(true, 10));
  without.insert_skewed(600, 11);
  const auto base = without.network->traffic().total;
  with.insert_skewed(600, 11);
  const auto shared = with.network->traffic().total;
  EXPECT_GT(shared, base) << "handoff hops must be charged";
  // But the overhead is bounded: at most one extra hop per insertion.
  EXPECT_LE(shared, base + 600);
}

TEST(WorkloadSharing, DisabledKeepsEverythingAtIndexNodes) {
  Fixture fx(5, sharing_config(false));
  fx.insert_skewed(500, 13);
  // Query cost with sharing off must involve no delegate hops: re-running
  // the same query twice gives identical cost (determinism check).
  const RangeQuery hot({{0.7, 1.0}, {0.7, 1.0}, {0.7, 1.0}});
  const auto r1 = fx.pool->execute(0, hot);
  const auto r2 = fx.pool->execute(0, hot);
  EXPECT_EQ(r1.messages, r2.messages);
}

/// Nodes that ORIGINATED a Reply (the first hop of a reply message);
/// relaying someone else's reply does not count.
struct ReplyOrigins final : obs::TraceSink {
  std::set<std::uint32_t> nodes;
  void on_hop(const obs::HopRecord& hop) override {
    if (hop.hop_index == 0 &&
        hop.kind == static_cast<std::uint8_t>(net::MessageKind::Reply))
      nodes.insert(hop.src);
  }
};

TEST(WorkloadSharing, KNearestPollsDelegates) {
  Fixture fx(3, sharing_config(true, 10));
  fx.insert_skewed(1000, 9);
  // Pure delegates: nodes holding rows without being any cell's index
  // node, so the only replies they can originate are delegate polls.
  std::set<NodeId> index_nodes;
  const std::uint32_t side = fx.pool->config().side;
  for (std::size_t p = 0; p < 3; ++p)
    for (std::uint32_t vo = 0; vo < side; ++vo)
      for (std::uint32_t ho = 0; ho < side; ++ho)
        index_nodes.insert(
            fx.pool->grid().index_node(fx.pool->layout().cell(p, {ho, vo})));
  std::vector<NodeId> delegates;
  std::vector<std::uint64_t> tx_before;
  for (const auto& node : fx.network->nodes()) {
    if (node.stored_events == 0 || index_nodes.count(node.id)) continue;
    delegates.push_back(node.id);
    tx_before.push_back(node.tx_count);
  }
  ASSERT_FALSE(delegates.empty());

  ReplyOrigins origins;
  fx.network->set_trace(&origins);
  const storage::KNearestQuery q{{0.85, 0.85, 0.85}, 40, 0.0};
  const auto r = fx.pool->execute(0, q);
  fx.network->set_trace(nullptr);

  auto expected = fx.oracle.all();
  storage::knn_filter(q, expected);
  EXPECT_EQ(ids(r.events), ids(expected));
  bool polled = false;
  for (std::size_t i = 0; i < delegates.size(); ++i) {
    if (!origins.nodes.count(delegates[i])) continue;
    polled = true;
    EXPECT_GT(fx.network->node(delegates[i]).tx_count, tx_before[i]);
  }
  EXPECT_TRUE(polled) << "k-NN must poll the delegates holding its answers";
}

TEST(WorkloadSharing, UniformLoadRarelyTriggersDelegation) {
  // Under a uniform workload, sharing with a generous threshold should be
  // almost never exercised: the insert traffic with sharing on is within a
  // whisker of the traffic with sharing off. Note a physical index node
  // serves ~10 logical cells at paper density, so the threshold must sit
  // well above the per-node (not per-cell) expected load.
  Fixture with(6, sharing_config(true, 256));
  Fixture without(6, sharing_config(false));
  query::EventGenerator gen_a({.dims = 3}, 17), gen_b({.dims = 3}, 17);
  for (std::size_t i = 0; i < 750; ++i) {
    const auto src = static_cast<NodeId>(i % with.network->size());
    with.pool->insert(src, gen_a.next(src));
    without.pool->insert(src, gen_b.next(src));
  }
  const auto extra = with.network->traffic().total -
                     without.network->traffic().total;
  EXPECT_LT(extra, 750u / 20) << "uniform load should barely delegate";
}

}  // namespace
}  // namespace poolnet::core
