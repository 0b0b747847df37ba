// Aggregate queries (Section 3.2.3): algebra unit tests plus end-to-end
// agreement of Pool's and DIM's in-network aggregation with the oracle.
#include "storage/aggregate.h"

#include <gtest/gtest.h>

#include "bench_support/experiment.h"
#include "bench_support/testbed.h"
#include "common/error.h"
#include "query/query_gen.h"

namespace poolnet::storage {
namespace {

TEST(PartialAggregate, EmptyState) {
  const PartialAggregate p;
  EXPECT_TRUE(p.empty());
  EXPECT_FALSE(p.finalize(AggregateKind::Min).valid);
  EXPECT_FALSE(p.finalize(AggregateKind::Average).valid);
  const auto count = p.finalize(AggregateKind::Count);
  EXPECT_TRUE(count.valid);
  EXPECT_DOUBLE_EQ(count.value, 0.0);
  const auto sum = p.finalize(AggregateKind::Sum);
  EXPECT_TRUE(sum.valid);
  EXPECT_DOUBLE_EQ(sum.value, 0.0);
}

TEST(PartialAggregate, AllKindsOnKnownValues) {
  PartialAggregate p;
  for (const double v : {0.2, 0.8, 0.5, 0.1}) p.add(v);
  EXPECT_DOUBLE_EQ(p.finalize(AggregateKind::Count).value, 4.0);
  EXPECT_DOUBLE_EQ(p.finalize(AggregateKind::Sum).value, 1.6);
  EXPECT_DOUBLE_EQ(p.finalize(AggregateKind::Min).value, 0.1);
  EXPECT_DOUBLE_EQ(p.finalize(AggregateKind::Max).value, 0.8);
  EXPECT_DOUBLE_EQ(p.finalize(AggregateKind::Average).value, 0.4);
  EXPECT_EQ(p.finalize(AggregateKind::Average).count, 4u);
}

TEST(PartialAggregate, MergeEqualsCombinedStream) {
  Rng rng(5);
  PartialAggregate whole, a, b;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform();
    whole.add(v);
    (i % 3 ? a : b).add(v);
  }
  a.merge(b);
  for (const auto kind : {AggregateKind::Count, AggregateKind::Sum,
                          AggregateKind::Min, AggregateKind::Max,
                          AggregateKind::Average}) {
    EXPECT_NEAR(a.finalize(kind).value, whole.finalize(kind).value, 1e-9);
  }
}

TEST(PartialAggregate, MergeWithEmptyIsIdentity) {
  PartialAggregate a, empty;
  a.add(0.5);
  a.merge(empty);
  EXPECT_EQ(a.count, 1u);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.finalize(AggregateKind::Max).value, 0.5);
}

TEST(AggregateKindNames, AllDistinct) {
  EXPECT_STREQ(to_string(AggregateKind::Count), "COUNT");
  EXPECT_STREQ(to_string(AggregateKind::Average), "AVG");
}

class AggregateEndToEnd : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AggregateEndToEnd, PoolAndDimAgreeWithOracle) {
  benchsup::TestbedConfig config;
  config.nodes = 250;
  config.seed = GetParam();
  benchsup::Testbed tb(config);
  tb.insert_workload();

  query::QueryGenerator qgen({.dims = 3}, GetParam() * 7 + 3);
  Rng sink_rng(GetParam() * 11 + 5);
  for (int i = 0; i < 10; ++i) {
    const auto q = i % 2 ? qgen.partial_range(1) : qgen.exact_range();
    const auto sink = tb.random_node(sink_rng);
    for (std::size_t dim = 0; dim < 3; ++dim) {
      for (const auto kind : {AggregateKind::Count, AggregateKind::Sum,
                              AggregateKind::Min, AggregateKind::Max,
                              AggregateKind::Average}) {
        const auto want = tb.oracle().aggregate_oracle(q, kind, dim);
        const AggregateQuery aq{q, kind, dim};
        const auto pool_r = tb.pool().execute(sink, aq);
        const auto dim_r = tb.dim().execute(sink, aq);
        EXPECT_EQ(pool_r.aggregate.valid, want.valid);
        EXPECT_EQ(dim_r.aggregate.valid, want.valid);
        EXPECT_EQ(pool_r.aggregate.count, want.count);
        EXPECT_EQ(dim_r.aggregate.count, want.count);
        EXPECT_NEAR(pool_r.aggregate.value, want.value, 1e-9);
        EXPECT_NEAR(dim_r.aggregate.value, want.value, 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregateEndToEnd,
                         ::testing::Values(1, 2, 3));

TEST(AggregateCosts, CheaperThanFullRetrievalOnLargeResults) {
  benchsup::TestbedConfig config;
  config.nodes = 400;
  config.seed = 9;
  benchsup::Testbed tb(config);
  tb.insert_workload();

  // A broad query with many qualifying events, under realistic packing
  // where reply volume matters.
  const RangeQuery broad({{0.0, 0.9}, {0.0, 0.9}, {0.0, 0.9}});
  // Rebuild with finite packing to expose reply-volume savings.
  benchsup::TestbedConfig packed = config;
  packed.sizes.events_per_message = 4;
  benchsup::Testbed tb2(packed);
  tb2.insert_workload();
  const auto full = tb2.pool().execute(0, broad);
  const auto agg =
      tb2.pool().execute(0, AggregateQuery{broad, AggregateKind::Average, 0});
  ASSERT_GT(full.events.size(), 100u);
  EXPECT_LT(agg.reply_messages, full.reply_messages);
  EXPECT_LT(agg.messages, full.messages);
  (void)tb;
}

TEST(AggregateCosts, PoolSplitterMergeBeatsDimDirectReplies) {
  // Pool sends one partial per involved pool to the sink; DIM sends one
  // partial per answering zone owner. On partial-match queries the zone
  // count dwarfs the pool count.
  benchsup::TestbedConfig config;
  config.nodes = 500;
  config.seed = 10;
  benchsup::Testbed tb(config);
  tb.insert_workload();
  query::QueryGenerator qgen({.dims = 3}, 11);
  std::uint64_t pool_total = 0, dim_total = 0;
  Rng sink_rng(12);
  for (int i = 0; i < 20; ++i) {
    const auto q = qgen.partial_range(1);
    const auto sink = tb.random_node(sink_rng);
    const AggregateQuery count{q, AggregateKind::Count, 0};
    pool_total += tb.pool().execute(sink, count).messages;
    dim_total += tb.dim().execute(sink, count).messages;
  }
  EXPECT_LT(pool_total, dim_total);
}

TEST(AggregateCosts, BreakdownConsistent) {
  benchsup::TestbedConfig config;
  config.nodes = 200;
  config.seed = 13;
  benchsup::Testbed tb(config);
  tb.insert_workload();
  const RangeQuery q({{0.1, 0.6}, {0.1, 0.6}, {0.1, 0.6}});
  for (auto* system :
       {static_cast<DcsSystem*>(&tb.pool()), static_cast<DcsSystem*>(&tb.dim())}) {
    const auto r = system->execute(3, AggregateQuery{q, AggregateKind::Sum, 1});
    EXPECT_EQ(r.messages, r.query_messages + r.reply_messages)
        << system->name();
  }
}

TEST(Aggregate, RejectsBadDimension) {
  benchsup::TestbedConfig config;
  config.nodes = 150;
  config.seed = 14;
  benchsup::Testbed tb(config);
  const RangeQuery q({{0, 1}, {0, 1}, {0, 1}});
  EXPECT_THROW(tb.pool().execute(0, AggregateQuery{q, AggregateKind::Sum, 3}),
               poolnet::ConfigError);
  EXPECT_THROW(tb.dim().execute(0, AggregateQuery{q, AggregateKind::Sum, 5}),
               poolnet::ConfigError);
}

TEST(Aggregate, TiedEventsCountedOnce) {
  // Section 4.1: single-copy storage keeps SUM/COUNT/AVG duplicate-free
  // even when the greatest value ties across dimensions.
  benchsup::TestbedConfig config;
  config.nodes = 150;
  config.seed = 15;
  benchsup::Testbed tb(config);
  Event e;
  e.id = 1;
  e.source = 0;
  e.values = {0.4, 0.4, 0.4};  // three-way tie
  tb.pool().insert(0, e);
  const RangeQuery q({{0.3, 0.5}, {0.3, 0.5}, {0.3, 0.5}});
  const auto r =
      tb.pool().execute(0, AggregateQuery{q, AggregateKind::Count, 0});
  EXPECT_DOUBLE_EQ(r.aggregate.value, 1.0);
}

}  // namespace
}  // namespace poolnet::storage
