// Golden receipts: one hash per (system configuration, query class) over
// seeds 1-3. Each hash folds every receipt a class returns — result ids
// in order, the message triple, visits, k-NN rounds, batch savings and
// visit counts, aggregate answers as raw bits, subscription notification
// ids — so any change to what a dissemination walk transmits or returns
// shows up here. Route-cache counters are deliberately left out: they
// describe how routes were looked up, not what the walk charged.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_support/testbed.h"
#include "fingerprint.h"
#include "ght/ght_system.h"
#include "query/query_gen.h"
#include "routing/gpsr.h"
#include "storage/store_config.h"

namespace poolnet {
namespace {

using benchsup::Testbed;
using benchsup::TestbedConfig;
using Prints = std::map<std::string, Fingerprint>;  // query class → print

constexpr std::size_t kNodes = 200;

/// Every query class of the execute() / execute_batch() surface against
/// one system. `batch_scan`, when given, also folds in each batch's
/// ScanStats deltas: how many rows, blocks and bytes the store kernels
/// touched, wherever in the walk those scans happen.
void run_classes(storage::DcsSystem& sys, std::uint64_t seed, Prints& out,
                 Fingerprint* batch_scan = nullptr) {
  query::QueryGenerator qgen({.dims = 3}, seed * 101 + 7);
  Rng rng(seed * 13 + 5);
  const auto sink = [&] {
    return static_cast<net::NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(kNodes) - 1));
  };

  for (int i = 0; i < 10; ++i)
    out["range"].add_receipt(sys.execute(sink(), qgen.exact_range()));
  for (int i = 0; i < 10; ++i)
    out["range"].add_receipt(
        sys.execute(sink(), qgen.partial_range(1 + i % 2)));
  for (int i = 0; i < 6; ++i)
    out["skyline"].add_receipt(sys.execute(sink(), qgen.skyline_query()));
  for (int i = 0; i < 8; ++i)
    out["knn"].add_receipt(sys.execute(sink(), qgen.knn_query(12)));

  for (const auto kind :
       {storage::AggregateKind::Count, storage::AggregateKind::Sum,
        storage::AggregateKind::Min, storage::AggregateKind::Max,
        storage::AggregateKind::Average}) {
    const auto q = static_cast<int>(kind) % 2 ? qgen.partial_range(1)
                                              : qgen.exact_range();
    const auto r = sys.execute(
        sink(), storage::AggregateQuery{q, kind,
                                        static_cast<std::size_t>(kind) % 3});
    out["aggregate"].add_cost(r);
    out["aggregate"].add_bits(r.aggregate.value);
    out["aggregate"].add(r.aggregate.count);
    out["aggregate"].add(r.aggregate.valid);
  }

  for (const int size : {8, 12}) {
    std::vector<storage::QueryRequest> batch_queries;
    for (int i = 0; i < size; ++i)
      batch_queries.push_back(i % 3 ? qgen.exact_range()
                                    : qgen.partial_range(1 + i % 2));
    storage::column::ScanStats before;
    if (batch_scan != nullptr) before = *sys.scan_stats();
    const auto b = sys.execute_batch(sink(), batch_queries);
    if (batch_scan != nullptr) {
      const storage::column::ScanStats& after = *sys.scan_stats();
      batch_scan->add(after.rows_scanned - before.rows_scanned);
      batch_scan->add(after.blocks_skipped - before.blocks_skipped);
      batch_scan->add(after.bytes_touched - before.bytes_touched);
    }
    Fingerprint& fb = out["batch"];
    fb.add_cost(b);
    fb.add(b.messages_saved);
    fb.add(b.serial_cell_visits);
    fb.add(b.unique_cell_visits);
    for (const auto& r : b.per_query) fb.add_receipt(r);
  }
}

/// Registration and cancellation trees plus the notifications they cause.
void run_subscriptions(Testbed& tb, std::uint64_t seed, Fingerprint& fp) {
  core::PoolSystem& pool = tb.pool();
  const net::Network& net = tb.pool_network();
  query::QueryGenerator qgen({.dims = 3}, seed * 71 + 3);
  query::EventGenerator gen({.dims = 3}, seed * 7 + 1);
  Rng rng(seed * 19 + 2);

  const auto charged = [&](auto&& action) {
    const auto before = net.traffic().total;
    action();
    fp.add(net.traffic().total - before);
  };
  const auto insert_some = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const auto src = tb.random_node(rng);
      const auto e = gen.next(src);
      fp.add(pool.insert(src, e).messages);
    }
  };
  const auto notified = [&](core::PoolSystem::SubscriptionId id) {
    for (const auto& n : pool.take_notifications(id)) fp.add(n.event.id);
  };

  core::PoolSystem::SubscriptionId wide = 0, narrow = 0;
  charged([&] { wide = pool.subscribe(tb.random_node(rng),
                                      qgen.partial_range(1)); });
  charged([&] { narrow = pool.subscribe(tb.random_node(rng),
                                        qgen.exact_range()); });
  insert_some(60);
  notified(wide);
  notified(narrow);
  charged([&] { pool.unsubscribe(wide); });
  insert_some(20);
  notified(wide);
  notified(narrow);
}

enum class PoolVariant { Default, Replicas, DhtLookup, Sharing };

TestbedConfig testbed_config(std::uint64_t seed, PoolVariant variant) {
  TestbedConfig config;
  config.nodes = kNodes;
  config.seed = seed;
  switch (variant) {
    case PoolVariant::Default:
      break;
    case PoolVariant::Replicas:
      config.pool.replicas = 1;
      break;
    case PoolVariant::DhtLookup:
      config.pool.charge_dht_lookup = true;
      break;
    case PoolVariant::Sharing:
      // Low enough that hot index nodes hand rows to delegates.
      config.pool.workload_sharing = true;
      config.pool.share_threshold = 6;
      break;
  }
  return config;
}

Prints pool_prints(PoolVariant variant) {
  Prints out;
  for (const std::uint64_t seed : {1, 2, 3}) {
    Testbed tb(testbed_config(seed, variant));
    tb.insert_workload();
    out["insert"].add(tb.pool_insert_traffic().total);
    out["insert"].add(tb.pool().stored_count());
    run_classes(tb.pool(), seed, out, &out["batch-scan"]);
    run_subscriptions(tb, seed, out["subscribe"]);
  }
  return out;
}

Prints dim_prints() {
  Prints out;
  for (const std::uint64_t seed : {1, 2, 3}) {
    Testbed tb(testbed_config(seed, PoolVariant::Default));
    tb.insert_workload();
    out["insert"].add(tb.dim_insert_traffic().total);
    run_classes(tb.dim(), seed, out);
  }
  return out;
}

Prints ght_prints() {
  Prints out;
  for (const std::uint64_t seed : {1, 2, 3}) {
    Testbed tb(testbed_config(seed, PoolVariant::Default));
    tb.insert_workload();
    net::Network net(tb.topology());
    routing::Gpsr gpsr(net);
    ght::GhtSystem ght(net, gpsr, 3);
    for (const auto& e : tb.oracle().all())
      out["insert"].add(ght.insert(e.source, e).messages);
    run_classes(ght, seed, out);
  }
  return out;
}

/// The central stores on their own copy of the deployment, node 0 as the
/// base station; the paged store gets a 4-frame pool of 512-byte pages so
/// its scans actually fault pages in and out.
Prints central_prints(storage::StoreKind kind) {
  Prints out;
  for (const std::uint64_t seed : {1, 2, 3}) {
    Testbed tb(testbed_config(seed, PoolVariant::Default));
    tb.insert_workload();
    net::Network net(tb.topology());
    routing::Gpsr gpsr(net);
    storage::StoreConfig store;
    store.kind = kind;
    store.paged.pool_pages = 4;
    store.paged.page_bytes = 512;
    const auto sys =
        storage::make_central_store(3, store, &net, &gpsr, net::NodeId{0});
    for (const auto& e : tb.oracle().all())
      out["insert"].add(sys->insert(e.source, e).messages);
    run_classes(*sys, seed, out);
  }
  return out;
}

/// The hashes each (configuration, class) produced with one hand-written
/// walk per query class; the one entry that has moved since says why.
/// The Pool `batch-scan` rows were recorded while the merged walk matched
/// rows one by one and the demux re-scanned every cell: moving the
/// kernel scans into the walk must not change what they touch.
const std::map<std::string, std::map<std::string, std::uint64_t>> kGolden = {
    {"pool",
     {{"aggregate", 0x9c88bf7c2459a3d0},
      {"batch", 0x562e8fb37bda8df6},
      {"batch-scan", 0xeba7148fe284f26c},
      {"insert", 0x564051af8951b08f},
      {"knn", 0xa3f27ddaa4e0b1cb},
      {"range", 0x825da3e822c0f81e},
      {"skyline", 0x259927ebdf0664b9},
      {"subscribe", 0x41c8e53c94ce4c12}}},
    {"pool-replicas",
     {{"aggregate", 0x9c88bf7c2459a3d0},
      {"batch", 0x562e8fb37bda8df6},
      {"batch-scan", 0xa561cb0fefeae99a},
      {"insert", 0x2b3bd946998ad2d3},
      {"knn", 0xa3f27ddaa4e0b1cb},
      {"range", 0x825da3e822c0f81e},
      {"skyline", 0x259927ebdf0664b9},
      {"subscribe", 0xb7120016f2719871}}},
    {"pool-dht",
     {{"aggregate", 0x76d8e31398020eac},
      {"batch", 0xf15d04296b96fdcf},
      {"batch-scan", 0xeba7148fe284f26c},
      {"insert", 0x326892a4d5a78aef},
      {"knn", 0x2a63c8b5ed02f4c0},
      {"range", 0x7af61c3b2416abec},
      {"skyline", 0xcc42938cd5abcdcd},
      {"subscribe", 0x61cc5e41318e609a}}},
    {"pool-sharing",
     {{"aggregate", 0x7c249215ddaaac5a},
      {"batch", 0xe7f48926b4b78727},
      {"batch-scan", 0xeba7148fe284f26c},
      {"insert", 0x2d06f5324547ee69},
      // k-NN polls the delegates holding its reply rows (one SubQuery
      // out, reply batches back), as range and skyline always did; it
      // used to return their events without charging those legs
      // (0xa3f27ddaa4e0b1cb).
      {"knn", 0x35061b83918869},
      {"range", 0x839bc431e8cfaa2d},
      {"skyline", 0x89b1eb5a76054b7c},
      {"subscribe", 0xbd35062944d6ed94}}},
    {"dim",
     {{"aggregate", 0x9e93c759e7b87134},
      {"batch", 0xeab2b4388b596e71},
      {"insert", 0x9a4c13aec219b093},
      {"knn", 0x6ed4da99be53abe7},
      {"range", 0x8be66d6b357d4047},
      {"skyline", 0xddf641caab3e1690}}},
    {"ght",
     {{"aggregate", 0xf934b70f07b82198},
      {"batch", 0x843249eecae7e08},
      {"insert", 0x6547df980272f62},
      {"knn", 0x2410112e06b98f28},
      {"range", 0x5a7a33fa4fc7175a},
      {"skyline", 0xc3d4a9ce858d3d0d}}},
    // Recorded when each central store still charged its own transport;
    // the paged store answers byte-identically to the flat one.
    {"central-flat",
     {{"aggregate", 0x10a99c9f748d1796},
      {"batch", 0x467fc732ae860a09},
      {"insert", 0x360edd84bd5aaf2e},
      {"knn", 0xe53a477229b5b522},
      {"range", 0x75eca8112f4e958d},
      {"skyline", 0x2fc01e0fcc2a4301}}},
    {"central-paged",
     {{"aggregate", 0x10a99c9f748d1796},
      {"batch", 0x467fc732ae860a09},
      {"insert", 0x360edd84bd5aaf2e},
      {"knn", 0xe53a477229b5b522},
      {"range", 0x75eca8112f4e958d},
      {"skyline", 0x2fc01e0fcc2a4301}}},
};

void expect_golden(const std::string& config, const Prints& prints) {
  const auto& want = kGolden.at(config);
  for (const auto& [cls, fp] : prints) {
    const std::uint64_t got = fp.hash();
    const auto it = want.find(cls);
    EXPECT_TRUE(it != want.end() && it->second == got)
        << config << "/" << cls << ": got 0x" << std::hex << got;
  }
  EXPECT_EQ(want.size(), prints.size()) << config;
}

TEST(GoldenReceipts, PoolDefault) {
  expect_golden("pool", pool_prints(PoolVariant::Default));
}

TEST(GoldenReceipts, PoolReplicas) {
  expect_golden("pool-replicas", pool_prints(PoolVariant::Replicas));
}

TEST(GoldenReceipts, PoolDhtLookup) {
  expect_golden("pool-dht", pool_prints(PoolVariant::DhtLookup));
}

TEST(GoldenReceipts, PoolWorkloadSharing) {
  expect_golden("pool-sharing", pool_prints(PoolVariant::Sharing));
}

TEST(GoldenReceipts, Dim) { expect_golden("dim", dim_prints()); }

TEST(GoldenReceipts, Ght) { expect_golden("ght", ght_prints()); }

TEST(GoldenReceipts, CentralFlat) {
  expect_golden("central-flat", central_prints(storage::StoreKind::Flat));
}

TEST(GoldenReceipts, CentralPaged) {
  expect_golden("central-paged", central_prints(storage::StoreKind::Paged));
}

}  // namespace
}  // namespace poolnet
