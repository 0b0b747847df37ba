// The optional DHT pivot directory (Algorithm 1, line 4) with Control
// message accounting and per-node caching.
#include <gtest/gtest.h>

#include <memory>

#include "core/pool_system.h"
#include "connected_network.h"
#include "query/query_gen.h"
#include "query/workload.h"
#include "routing/gpsr.h"
#include "storage/brute_force_store.h"

namespace poolnet::core {
namespace {

using net::MessageKind;
using net::Network;
using net::NodeId;

struct Fixture {
  explicit Fixture(bool dht, std::uint64_t seed = 3, std::size_t n = 250) {
    network = connected_network(seed, n);
    gpsr = std::make_unique<routing::Gpsr>(*network);
    PoolConfig config;
    config.charge_dht_lookup = dht;
    pool = std::make_unique<PoolSystem>(*network, *gpsr, 3, config);
  }

  std::uint64_t control() const {
    return network->traffic().of(MessageKind::Control);
  }

  std::unique_ptr<Network> network;
  std::unique_ptr<routing::Gpsr> gpsr;
  std::unique_ptr<PoolSystem> pool;
};

storage::Event event_of(std::uint64_t id, std::initializer_list<double> vals) {
  storage::Event e;
  e.id = id;
  e.source = 0;
  for (const double v : vals) e.values.push_back(v);
  return e;
}

TEST(DhtDirectory, DisabledChargesNoControlTraffic) {
  Fixture fx(false);
  query::EventGenerator gen({.dims = 3}, 1);
  for (int i = 0; i < 50; ++i) {
    const auto e = gen.next(static_cast<NodeId>(i % fx.network->size()));
    fx.pool->insert(e.source, e);
  }
  query::QueryGenerator qgen({.dims = 3}, 2);
  fx.pool->execute(0, qgen.exact_range());
  EXPECT_EQ(fx.control(), 0u);
}

TEST(DhtDirectory, PublishesOneRecordPerPoolAtSetup) {
  Fixture fx(true);
  // Construction itself charges the publish unicasts (and nothing else).
  EXPECT_GT(fx.control(), 0u);
  EXPECT_EQ(fx.network->traffic().total, fx.control());
}

TEST(DhtDirectory, FirstUsePaysLookupSecondUseIsCached) {
  Fixture fx(true);
  const auto e1 = event_of(1, {0.9, 0.2, 0.1});  // pool 0
  const auto e2 = event_of(2, {0.8, 0.3, 0.2});  // pool 0 again
  const auto after_setup = fx.control();

  fx.pool->insert(5, e1);
  const auto after_first = fx.control();
  EXPECT_GT(after_first, after_setup) << "first insert must pay the lookup";

  fx.pool->insert(5, e2);
  const auto after_second = fx.control();
  EXPECT_EQ(after_second, after_first) << "same node, same pool: cached";

  // A different node pays its own lookup.
  fx.pool->insert(6, event_of(3, {0.7, 0.1, 0.0}));
  EXPECT_GT(fx.control(), after_second);
}

TEST(DhtDirectory, DifferentPoolsNeedSeparateLookups) {
  Fixture fx(true);
  fx.pool->insert(5, event_of(1, {0.9, 0.2, 0.1}));  // pool 0
  const auto after_p0 = fx.control();
  fx.pool->insert(5, event_of(2, {0.2, 0.9, 0.1}));  // pool 1
  EXPECT_GT(fx.control(), after_p0);
}

TEST(DhtDirectory, TieChargesAllCandidatePools) {
  Fixture fx(true);
  const auto after_setup = fx.control();
  fx.pool->insert(5, event_of(1, {0.4, 0.4, 0.1}));  // pools 0 and 1
  const auto tie_cost = fx.control() - after_setup;
  Fixture fx2(true);
  const auto setup2 = fx2.control();
  fx2.pool->insert(5, event_of(1, {0.4, 0.3, 0.1}));  // pool 0 only
  const auto single_cost = fx2.control() - setup2;
  EXPECT_GT(tie_cost, single_cost);
}

TEST(DhtDirectory, QueriesChargeSinkLookups) {
  Fixture fx(true);
  fx.pool->insert(0, event_of(1, {0.5, 0.4, 0.3}));
  const auto before = fx.control();
  const storage::RangeQuery q({{0.4, 0.6}, {0.3, 0.5}, {0.2, 0.4}});
  fx.pool->execute(9, q);
  const auto first = fx.control();
  EXPECT_GT(first, before);
  fx.pool->execute(9, q);  // cached at node 9 now
  EXPECT_EQ(fx.control(), first);
}

TEST(DhtDirectory, ResultsUnaffectedByAccountingMode) {
  Fixture with(true, 7), without(false, 7);
  query::EventGenerator gen_a({.dims = 3}, 8), gen_b({.dims = 3}, 8);
  storage::BruteForceStore oracle(3);
  for (int i = 0; i < 100; ++i) {
    const auto src = static_cast<NodeId>(i % with.network->size());
    const auto e = gen_a.next(src);
    with.pool->insert(src, e);
    without.pool->insert(src, gen_b.next(src));
    oracle.insert(src, e);
  }
  query::QueryGenerator qgen({.dims = 3}, 9);
  for (int i = 0; i < 10; ++i) {
    const auto q = qgen.partial_range(1);
    EXPECT_EQ(with.pool->execute(0, q).events.size(),
              oracle.matching(q).size());
    EXPECT_EQ(without.pool->execute(0, q).events.size(),
              oracle.matching(q).size());
  }
}

}  // namespace
}  // namespace poolnet::core
