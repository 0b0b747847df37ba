// Golden ledger: one hash per (system, channel arm) over seeds 1-3. Each
// hash folds a network's whole traffic ledger after an insert workload
// and a query mix — every TrafficTally field (energy as raw bits) and
// every node's tx, rx, retry and drop counts and spent energy bits — so a
// drift in how Network charges a hop (an attempt, a receipt, one ulp of
// link energy, one ARQ draw) shows up here even where every receipt
// still matches. The arms cover ideal links, a mid-run 20% kill plan
// (dead receivers burn the ARQ budget) and 10% link loss (the ARQ RNG).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_support/testbed.h"
#include "fingerprint.h"
#include "ght/ght_system.h"
#include "net/fault_injector.h"
#include "query/query_gen.h"
#include "routing/gpsr.h"
#include "sim/fault_plan.h"
#include "storage/store_config.h"

namespace poolnet {
namespace {

using benchsup::SystemKind;
using benchsup::Testbed;
using benchsup::TestbedConfig;

constexpr std::size_t kNodes = 200;
constexpr std::size_t kQueries = 40;

enum class Arm { Ideal, Kill, Loss };

/// Every ledger field of `net`, in a fixed order.
void add_ledger(const net::Network& net, Fingerprint& fp) {
  const net::TrafficTally& t = net.traffic();
  for (const std::uint64_t n : t.by_kind) fp.add(n);
  fp.add(t.total);
  fp.add(t.lost);
  fp.add_bits(t.energy_j);
  for (net::NodeId id = 0; id < net.size(); ++id) {
    const net::Node& n = net.node(id);
    fp.add(n.tx_count);
    fp.add(n.rx_count);
    fp.add(n.retry_count);
    fp.add(n.drop_count);
    fp.add_bits(n.energy_spent_j);
  }
}

/// A mixed query stream from living sinks, with the kill plan (if any)
/// advanced before each query as the CLI does.
void run_queries(storage::DcsSystem& sys, net::Network& net,
                 std::uint64_t seed, net::FaultInjector* injector) {
  query::QueryGenerator qgen({.dims = 3}, seed * 211 + 3);
  Rng rng(seed * 17 + 11);
  for (std::size_t i = 0; i < kQueries; ++i) {
    if (injector != nullptr) injector->advance(static_cast<double>(i));
    net::NodeId sink = 0;
    do {
      sink = static_cast<net::NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(kNodes) - 1));
    } while (!net.alive(sink));
    switch (i % 5) {
      case 0: sys.execute(sink, qgen.exact_range()); break;
      case 1: sys.execute(sink, qgen.partial_range(1 + i % 2)); break;
      case 2: sys.execute(sink, qgen.skyline_query()); break;
      case 3: sys.execute(sink, qgen.knn_query(8)); break;
      default:
        sys.execute(sink, storage::AggregateQuery{
                              qgen.exact_range(), storage::AggregateKind::Sum,
                              i % 3});
    }
  }
}

std::uint64_t ledger_hash(SystemKind kind, Arm arm) {
  Fingerprint fp;
  for (const std::uint64_t seed : {1, 2, 3}) {
    TestbedConfig config;
    config.nodes = kNodes;
    config.seed = seed;
    if (arm == Arm::Loss) config.loss.loss_probability = 0.1;
    Testbed tb(config);
    tb.insert_workload();

    // Pool and DIM run on the testbed's own networks; GHT and central get
    // a network over the testbed's topology with the arm's channel model,
    // whose ledger keeps the insert traffic.
    std::unique_ptr<net::Network> own_net;
    std::unique_ptr<routing::Gpsr> own_gpsr;
    std::unique_ptr<storage::DcsSystem> own_sys;
    net::Network* net = nullptr;
    storage::DcsSystem* sys = nullptr;
    if (kind == SystemKind::Pool || kind == SystemKind::Dim) {
      net = &tb.network(kind);
      sys = kind == SystemKind::Pool
                ? static_cast<storage::DcsSystem*>(&tb.pool())
                : static_cast<storage::DcsSystem*>(&tb.dim());
    } else {
      own_net = std::make_unique<net::Network>(tb.topology(), config.sizes,
                                               sim::EnergyModel{}, config.loss,
                                               seed * 3 + 5);
      own_gpsr = std::make_unique<routing::Gpsr>(*own_net);
      if (kind == SystemKind::Ght)
        own_sys = std::make_unique<ght::GhtSystem>(*own_net, *own_gpsr, 3);
      else
        own_sys = storage::make_central_store(3, {}, own_net.get(),
                                              own_gpsr.get(), net::NodeId{0});
      for (const auto& e : tb.oracle().all()) own_sys->insert(e.source, e);
      net = own_net.get();
      sys = own_sys.get();
    }
    add_ledger(*net, fp);

    std::unique_ptr<net::FaultInjector> injector;
    if (arm == Arm::Kill) {
      sim::FaultPlan plan;
      std::string error;
      EXPECT_TRUE(sim::parse_fault_spec("kill:0.2@15;seed:" +
                                            std::to_string(seed),
                                        &plan, &error))
          << error;
      injector = std::make_unique<net::FaultInjector>(
          plan, std::vector<net::Network*>{net});
    }
    run_queries(*sys, *net, seed, injector.get());
    if (arm == Arm::Kill) {
      EXPECT_GT(net->dead_count(), 0u);
    }
    add_ledger(*net, fp);
  }
  return fp.hash();
}

/// Recorded before the network moved its neighbor tables to a flat
/// adjacency; charging a hop must not move a single bit of the ledger.
const std::map<std::string, std::uint64_t> kGolden = {
    {"pool/ideal", 0x7944e0c204d29890},
    {"pool/kill", 0xf3d2dafbbf0f7b51},
    {"pool/loss", 0x7a52d8a0413a7e80},
    {"dim/ideal", 0x131e3ca18865f7c0},
    {"dim/kill", 0xbc516d0a81f77b86},
    {"dim/loss", 0x8c3a92d5acea07da},
    {"ght/ideal", 0x9e0be00f6e31f878},
    {"ght/kill", 0x7fb825c05399a56c},
    {"ght/loss", 0x2ba8a85bbc113dd5},
    {"central/ideal", 0x25d8fa722f7fd62},
    {"central/kill", 0x8a52d6eef8ce986f},
    {"central/loss", 0x902ffa7b7fa2933},
};

void expect_golden(SystemKind kind) {
  for (const auto& [arm, name] : {std::pair{Arm::Ideal, "ideal"},
                                  std::pair{Arm::Kill, "kill"},
                                  std::pair{Arm::Loss, "loss"}}) {
    const std::string key = std::string(to_string(kind)) + "/" + name;
    const std::uint64_t got = ledger_hash(kind, arm);
    EXPECT_EQ(kGolden.at(key), got)
        << key << ": got 0x" << std::hex << got;
  }
}

TEST(GoldenLedger, Pool) { expect_golden(SystemKind::Pool); }
TEST(GoldenLedger, Dim) { expect_golden(SystemKind::Dim); }
TEST(GoldenLedger, Ght) { expect_golden(SystemKind::Ght); }
TEST(GoldenLedger, Central) { expect_golden(SystemKind::Central); }

}  // namespace
}  // namespace poolnet
