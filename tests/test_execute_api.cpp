// The one query surface (DESIGN.md §15): execute() and execute_batch().
//
// Three contracts, held over every system (Pool, DIM, GHT and both
// central stores):
//  * a request that does not fit the deployment — wrong dimensionality,
//    an aggregate value_dim outside it, a k-NN with k = 0 or a negative
//    initial radius — throws ConfigError before a single message is
//    charged;
//  * a mixed batch (ranges, skyline, k-NN, aggregate) answers exactly what
//    execute() answers one request at a time on a twin deployment: the
//    members that run alone keep their exact cost, and on ideal links the
//    batch total is the serial sum minus messages_saved;
//  * a QueryEngine epoch mixing ranges with a skyline and a k-NN reports
//    the same EngineStats as before execute_batch took over its batch
//    policy (the values below were recorded on that engine).
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_support/testbed.h"
#include "common/error.h"
#include "engine/query_engine.h"
#include "fingerprint.h"
#include "query/query_gen.h"
#include "server/query_language.h"
#include "storage/store_config.h"

namespace poolnet {
namespace {

using storage::AggregateKind;
using storage::AggregateQuery;
using storage::KNearestQuery;
using storage::QueryReceipt;
using storage::QueryRequest;
using storage::RangeQuery;
using storage::SkylineQuery;
using storage::Values;

/// Every system over one 3-d workload, each charging its own ledger over
/// the same deployment: Pool, DIM, GHT and the flat central store from
/// one testbed, the paged central store from a twin testbed (node 0 is
/// the base station).
class Deployment {
 public:
  explicit Deployment(std::uint64_t seed) {
    benchsup::TestbedConfig config;
    config.nodes = 200;
    config.seed = seed;
    for (const auto kind :
         {storage::StoreKind::Flat, storage::StoreKind::Paged}) {
      auto& tb = *testbeds_.emplace_back(
          std::make_unique<benchsup::Testbed>(config));
      tb.insert_workload();
      if (kind == storage::StoreKind::Flat) {
        add(tb, benchsup::SystemKind::Pool);
        add(tb, benchsup::SystemKind::Dim);
        add(tb, benchsup::SystemKind::Ght);
      }
      storage::StoreConfig store;
      store.kind = kind;
      store.paged.pool_pages = 4;
      store.paged.page_bytes = 512;
      add(tb, benchsup::SystemKind::Central, store);
    }
  }

  struct Member {
    storage::DcsSystem* sys;
    const net::Network* net;
  };
  const std::vector<Member>& members() const { return members_; }

 private:
  void add(benchsup::Testbed& tb, benchsup::SystemKind kind,
           const storage::StoreConfig& store = {}) {
    members_.push_back({&tb.deploy(kind, store), &tb.network(kind)});
  }

  std::vector<std::unique_ptr<benchsup::Testbed>> testbeds_;
  std::vector<Member> members_;
};

KNearestQuery knn(Values target, double initial_radius = 0.0,
                  std::size_t k = 3) {
  KNearestQuery q;
  q.target = target;
  q.k = k;
  q.initial_radius = initial_radius;
  return q;
}

TEST(ExecuteValidation, MisfitRequestsThrowBeforeAnyTraffic) {
  const RangeQuery r2({{0, 1}, {0, 1}});
  const RangeQuery r3({{0.2, 0.7}, {0.2, 0.7}, {0.2, 0.7}});
  const RangeQuery r4({{0, 1}, {0, 1}, {0, 1}, {0, 1}});
  const std::vector<QueryRequest> misfits = {
      // wrong dimensionality, every class
      r2, r4, SkylineQuery(2), SkylineQuery(4), knn({0.5, 0.5}),
      knn({0.5, 0.5, 0.5, 0.5}), AggregateQuery{r2, AggregateKind::Sum, 0},
      AggregateQuery{r4, AggregateKind::Sum, 0},
      // value_dim outside the deployment
      AggregateQuery{r3, AggregateKind::Sum, 3},
      AggregateQuery{r3, AggregateKind::Max, 5},
      // negative (or no) initial radius
      knn({0.5, 0.5, 0.5}, -0.1),
      knn({0.5, 0.5, 0.5}, std::numeric_limits<double>::quiet_NaN()),
      // k = 0: nothing to find, so no search may run
      knn({0.5, 0.5, 0.5}, 0.0, 0)};

  Deployment d(3);
  for (const auto& [sys, net] : d.members()) {
    for (const QueryRequest& bad : misfits) {
      const std::uint64_t before = net->traffic().total;
      EXPECT_THROW(sys->execute(5, bad), ConfigError)
          << sys->describe() << ": " << bad;
      // A batch validates every member before its first message.
      EXPECT_THROW(sys->execute_batch(5, {r3, SkylineQuery(3), r3, bad}),
                   ConfigError)
          << sys->describe() << ": " << bad;
      EXPECT_EQ(net->traffic().total, before) << sys->describe() << ": " << bad;
    }
    // The well-formed neighbours still run.
    EXPECT_NO_THROW(sys->execute(5, knn({0.5, 0.5, 0.5}, 0.0)));
    EXPECT_NO_THROW(sys->execute(5, AggregateQuery{r3, AggregateKind::Max, 2}));
  }
}

std::uint64_t bits_of(double d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

TEST(ExecuteBatch, MixedBatchMatchesOneAtATimeOnATwin) {
  query::QueryGenerator qgen({.dims = 3}, 29);
  const std::vector<QueryRequest> requests = {
      qgen.exact_range(),
      qgen.skyline_query(),
      qgen.partial_range(1),
      qgen.knn_query(6),
      AggregateQuery{qgen.exact_range(), AggregateKind::Average, 1},
      qgen.exact_range()};
  const net::NodeId sink = 17;

  Deployment batched(4), twin(4);
  for (std::size_t s = 0; s < batched.members().size(); ++s) {
    storage::DcsSystem& sys = *batched.members()[s].sys;
    const std::string who = sys.describe();
    const std::uint64_t before = batched.members()[s].net->traffic().total;
    const auto batch = sys.execute_batch(sink, requests);
    ASSERT_EQ(batch.per_query.size(), requests.size()) << who;

    std::uint64_t serial_messages = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const QueryReceipt want =
          twin.members()[s].sys->execute(sink, requests[i]);
      const QueryReceipt& got = batch.per_query[i];
      serial_messages += want.messages;
      EXPECT_EQ(got.events, want.events) << who << " #" << i;
      EXPECT_EQ(got.rounds, want.rounds) << who << " #" << i;
      EXPECT_EQ(bits_of(got.aggregate.value), bits_of(want.aggregate.value))
          << who << " #" << i;
      EXPECT_EQ(got.aggregate.count, want.aggregate.count) << who << " #" << i;
      EXPECT_EQ(got.aggregate.valid, want.aggregate.valid) << who << " #" << i;
      EXPECT_EQ(got.index_nodes_visited, want.index_nodes_visited)
          << who << " #" << i;
      if (requests[i].cls() == storage::QueryClass::Range) continue;
      // Non-range members ran alone: their cost is exactly serial.
      EXPECT_EQ(got.messages, want.messages) << who << " #" << i;
      EXPECT_EQ(got.query_messages, want.query_messages) << who << " #" << i;
      EXPECT_EQ(got.reply_messages, want.reply_messages) << who << " #" << i;
    }
    EXPECT_EQ(batch.messages, serial_messages - batch.messages_saved) << who;
    EXPECT_EQ(batch.messages, batch.query_messages + batch.reply_messages)
        << who;
    EXPECT_EQ(batch.messages,
              batched.members()[s].net->traffic().total - before)
        << who;
  }
}

/// One QueryEngine epoch from one sink: three ranges around a skyline and
/// a k-NN, flushed when the fifth submit fills it.
engine::EngineStats run_epoch(storage::DcsSystem& sys, Fingerprint& fp) {
  query::QueryGenerator qgen({.dims = 3}, 17);
  engine::QueryEngineConfig cfg;
  cfg.batch_size = 5;
  cfg.batch_deadline = std::uint64_t{1} << 40;
  engine::QueryEngine eng(sys, cfg);
  const net::NodeId sink = 5;
  std::vector<engine::QueryEngine::Ticket> tickets;
  tickets.push_back(eng.submit(sink, qgen.exact_range()));
  tickets.push_back(eng.submit(sink, qgen.skyline_query()));
  tickets.push_back(eng.submit(sink, qgen.partial_range(1)));
  tickets.push_back(eng.submit(sink, qgen.knn_query(8)));
  tickets.push_back(eng.submit(sink, qgen.exact_range()));
  EXPECT_EQ(eng.pending(), 0u);
  for (const auto t : tickets) fp.add_receipt(eng.take(t));
  return eng.stats();
}

struct RecordedEpoch {
  std::uint64_t messages, messages_saved, serial_visits, unique_visits;
  double dedup_ratio;
  std::uint64_t receipts;  ///< Fingerprint hash of the five receipts
};

void expect_epoch(const engine::EngineStats& s, const Fingerprint& fp,
                  const RecordedEpoch& want) {
  EXPECT_EQ(s.submitted, 5u);
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.serial_executions, 2u);
  EXPECT_EQ(s.skyline_queries, 1u);
  EXPECT_EQ(s.knn_queries, 1u);
  EXPECT_EQ(s.messages, want.messages);
  EXPECT_EQ(s.messages_saved, want.messages_saved);
  EXPECT_EQ(s.serial_cell_visits, want.serial_visits);
  EXPECT_EQ(s.unique_cell_visits, want.unique_visits);
  // Occupancy: the skyline and the k-NN alone, then the three ranges.
  EXPECT_EQ(s.batch_occupancy.count(), 3u);
  EXPECT_EQ(s.batch_occupancy.mean(), 1.6666666666666665);
  EXPECT_EQ(s.batch_occupancy.variance(), 1.3333333333333335);
  EXPECT_EQ(s.batch_occupancy.min(), 1.0);
  EXPECT_EQ(s.batch_occupancy.max(), 3.0);
  EXPECT_EQ(s.dedup_ratio.count(), 1u);
  EXPECT_EQ(s.dedup_ratio.mean(), want.dedup_ratio);
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(s.failovers, 0u);
  EXPECT_EQ(s.failed_legs, 0u);
  EXPECT_EQ(s.events_lost, 0u);
  EXPECT_EQ(fp.hash(), want.receipts) << std::hex << fp.hash();
}

TEST(ExecuteBatch, EngineEpochStatsUnchanged) {
  benchsup::TestbedConfig config;
  config.nodes = 200;
  config.seed = 1;
  benchsup::Testbed tb(config);
  tb.insert_workload();

  Fingerprint pool_fp;
  expect_epoch(run_epoch(tb.pool(), pool_fp), pool_fp,
               {478, 67, 213, 186, 1.197080291970803, 0xd7f02093cc036801});
  Fingerprint dim_fp;
  expect_epoch(run_epoch(tb.dim(), dim_fp), dim_fp,
               {1237, 59, 293, 272, 1.1603053435114503, 0xa6517f58538af0ab});
}

TEST(ExecuteApi, AggregateHasNoWireText) {
  const RangeQuery r3({{0.2, 0.7}, {0.2, 0.7}, {0.2, 0.7}});
  const QueryRequest agg = AggregateQuery{r3, AggregateKind::Count, 0};
  EXPECT_EQ(agg.cls(), storage::QueryClass::Aggregate);
  EXPECT_EQ(agg.dims(), 3u);
  EXPECT_STREQ(storage::to_string(agg.cls()), "aggregate");
  EXPECT_THROW(server::to_query_text(agg), ConfigError);
  EXPECT_NO_THROW(server::to_query_text(r3));
}

}  // namespace
}  // namespace poolnet
