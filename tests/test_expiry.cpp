// Data aging (DcsSystem::expire_before): storage nodes discard stale
// events locally, with counters staying consistent across all systems.
#include <gtest/gtest.h>

#include <memory>

#include "bench_support/testbed.h"
#include "ght/ght_system.h"
#include "storage/paged/paged_store.h"
#include "query/workload.h"
#include "routing/gpsr.h"

namespace poolnet::storage {
namespace {

using net::NodeId;

Event timed_event(std::uint64_t id, double t,
                  std::initializer_list<double> vals) {
  Event e;
  e.id = id;
  e.source = 0;
  e.detected_at = t;
  for (const double v : vals) e.values.push_back(v);
  return e;
}

struct Fixture {
  Fixture() {
    benchsup::TestbedConfig config;
    config.nodes = 200;
    config.seed = 4;
    tb = std::make_unique<benchsup::Testbed>(config);
    ght_gpsr = std::make_unique<routing::Gpsr>(tb->pool_network());
    ght = std::make_unique<ght::GhtSystem>(tb->pool_network(), *ght_gpsr, 3);
  }

  /// Inserts 100 events with detected_at = 0..99 into every system.
  void insert_timed() {
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
      const auto e = timed_event(
          static_cast<std::uint64_t>(i + 1), static_cast<double>(i),
          {rng.uniform(), rng.uniform(), rng.uniform()});
      tb->pool().insert(0, e);
      tb->dim().insert(0, e);
      ght->insert(0, e);
      tb->oracle().insert(0, e);
    }
  }

  std::unique_ptr<benchsup::Testbed> tb;
  std::unique_ptr<routing::Gpsr> ght_gpsr;
  std::unique_ptr<ght::GhtSystem> ght;
};

TEST(Expiry, RemovesExactlyTheStaleEvents) {
  Fixture fx;
  fx.insert_timed();
  EXPECT_EQ(fx.tb->pool().expire_before(50.0), 50u);
  EXPECT_EQ(fx.tb->dim().expire_before(50.0), 50u);
  EXPECT_EQ(fx.ght->expire_before(50.0), 50u);
  EXPECT_EQ(fx.tb->oracle().expire_before(50.0), 50u);
  EXPECT_EQ(fx.tb->pool().stored_count(), 50u);
  EXPECT_EQ(fx.tb->dim().stored_count(), 50u);
  EXPECT_EQ(fx.ght->stored_count(), 50u);
}

TEST(Expiry, QueriesNoLongerReturnExpired) {
  Fixture fx;
  fx.insert_timed();
  const RangeQuery all({{0, 1}, {0, 1}, {0, 1}});
  fx.tb->pool().expire_before(80.0);
  fx.tb->dim().expire_before(80.0);
  fx.tb->oracle().expire_before(80.0);
  const auto want = fx.tb->oracle().matching(all).size();
  EXPECT_EQ(want, 20u);
  EXPECT_EQ(fx.tb->pool().execute(0, all).events.size(), want);
  EXPECT_EQ(fx.tb->dim().execute(0, all).events.size(), want);
  for (const auto& e : fx.tb->pool().execute(0, all).events)
    EXPECT_GE(e.detected_at, 80.0);
}

TEST(Expiry, IsIdempotent) {
  Fixture fx;
  fx.insert_timed();
  EXPECT_EQ(fx.tb->pool().expire_before(30.0), 30u);
  EXPECT_EQ(fx.tb->pool().expire_before(30.0), 0u);
}

TEST(Expiry, NodeCountersStayConsistent) {
  Fixture fx;
  fx.insert_timed();
  fx.tb->dim().expire_before(100.0);  // everything in DIM only
  std::uint64_t dim_resident = 0;
  for (const auto& n : fx.tb->dim_network().nodes())
    dim_resident += n.stored_events;
  EXPECT_EQ(dim_resident, 0u);
}

TEST(Expiry, ExpiryIsFreeOfMessages) {
  Fixture fx;
  fx.insert_timed();
  const auto before = fx.tb->pool_network().traffic().total;
  fx.tb->pool().expire_before(60.0);
  EXPECT_EQ(fx.tb->pool_network().traffic().total, before);
}

TEST(Expiry, RemovesReplicasToo) {
  benchsup::TestbedConfig config;
  config.nodes = 200;
  config.seed = 6;
  config.pool.replicas = 1;
  benchsup::Testbed tb(config);
  Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    tb.pool().insert(0, timed_event(static_cast<std::uint64_t>(i + 1),
                                    static_cast<double>(i),
                                    {rng.uniform(), rng.uniform(),
                                     rng.uniform()}));
  }
  EXPECT_EQ(tb.pool().replica_count(), 40u);
  EXPECT_EQ(tb.pool().expire_before(20.0), 20u);
  EXPECT_EQ(tb.pool().replica_count(), 20u);
  EXPECT_EQ(tb.pool().stored_count(), 20u);
}

// Every system must report expire_before's return the same way: the
// number of PRIMARY events shed, so stored_count() + expired == inserted
// holds whatever mix of replicas or paging sits underneath.
TEST(Expiry, CountConservationHoldsAcrossAllSystems) {
  Fixture fx;
  PagedStoreOptions po;
  po.pool_pages = 2;   // eviction-heavy: expiry must survive page churn
  po.page_bytes = 256;
  PagedStore paged(3, po);

  Rng rng(9);
  const std::uint64_t inserted = 120;
  for (std::uint64_t i = 0; i < inserted; ++i) {
    const auto e = timed_event(i + 1, static_cast<double>(i),
                               {rng.uniform(), rng.uniform(), rng.uniform()});
    fx.tb->pool().insert(0, e);
    fx.tb->dim().insert(0, e);
    fx.ght->insert(0, e);
    fx.tb->oracle().insert(0, e);
    paged.insert(0, e);
  }

  const auto check = [inserted](DcsSystem& system) {
    std::uint64_t expired = 0;
    for (const double cutoff : {30.0, 30.0, 77.5, 200.0}) {
      expired += system.expire_before(cutoff);
      EXPECT_EQ(system.stored_count() + expired, inserted)
          << system.describe() << " at cutoff " << cutoff;
    }
    EXPECT_EQ(expired, inserted) << system.describe();
  };
  check(fx.tb->pool());
  check(fx.tb->dim());
  check(*fx.ght);
  check(fx.tb->oracle());
  check(paged);
}

TEST(Expiry, CountConservationHoldsWithPoolReplicas) {
  benchsup::TestbedConfig config;
  config.nodes = 200;
  config.seed = 11;
  config.pool.replicas = 2;
  benchsup::Testbed tb(config);
  Rng rng(12);
  const std::uint64_t inserted = 60;
  for (std::uint64_t i = 0; i < inserted; ++i) {
    tb.pool().insert(0, timed_event(i + 1, static_cast<double>(i),
                                    {rng.uniform(), rng.uniform(),
                                     rng.uniform()}));
  }
  // Replicas multiply the stored copies but never the reported count.
  std::uint64_t expired = tb.pool().expire_before(25.0);
  EXPECT_EQ(tb.pool().stored_count() + expired, inserted);
  expired += tb.pool().expire_before(1e9);
  EXPECT_EQ(expired, inserted);
  EXPECT_EQ(tb.pool().stored_count(), 0u);
  EXPECT_EQ(tb.pool().replica_count(), 0u);
}

TEST(Expiry, UntimedEventsNeverExpireAtZeroCutoff) {
  Fixture fx;
  query::EventGenerator gen({.dims = 3}, 8);
  for (int i = 0; i < 30; ++i) {
    const auto e = gen.next(0);  // detected_at defaults to 0
    fx.tb->pool().insert(0, e);
  }
  EXPECT_EQ(fx.tb->pool().expire_before(0.0), 0u);  // strict '<'
  EXPECT_EQ(fx.tb->pool().stored_count(), 30u);
}

}  // namespace
}  // namespace poolnet::storage
