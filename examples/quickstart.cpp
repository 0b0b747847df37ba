// Quickstart: deploy a sensor network, bring up the Pool storage scheme,
// insert multi-dimensional events, and run every query type the paper
// supports. Walks the whole public API in ~100 lines.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "core/pool_system.h"
#include "net/deployment.h"
#include "net/network.h"
#include "query/workload.h"
#include "routing/gpsr.h"
#include "storage/range_query.h"

using namespace poolnet;

int main() {
  // 1. Deploy 400 sensors uniformly at the paper's density: radio range
  //    40 m, ~20 neighbors per node.
  const std::size_t kNodes = 400;
  const double side = net::field_side_for_density(kNodes, 40.0, 20.0);
  const Rect field{0.0, 0.0, side, side};
  Rng rng(2024);
  auto positions = net::deploy_uniform(kNodes, field, rng);
  net::Network network(std::move(positions), field, 40.0);
  std::printf("deployed %zu sensors on a %.0f m field (avg degree %.1f, %s)\n",
              network.size(), side, network.average_degree(),
              network.is_connected() ? "connected" : "DISCONNECTED");

  // 2. GPSR is the routing substrate; Pool builds on top of it.
  const routing::Gpsr gpsr(network);

  // 3. Bring up Pool for 3-dimensional events (temperature, humidity,
  //    light — all normalized to [0,1]). alpha = 5 m cells, l = 10.
  core::PoolConfig config;
  config.cell_size = 5.0;
  config.side = 10;
  core::PoolSystem pool(network, gpsr, /*dims=*/3, config);
  std::printf("pool layout: %zu pools of %ux%u cells, pivots",
              pool.layout().pool_count(), config.side, config.side);
  for (std::size_t p = 0; p < pool.layout().pool_count(); ++p) {
    const auto pc = pool.layout().pivot(p);
    std::printf(" C(%d,%d)", pc.x, pc.y);
  }
  std::printf("\n\n");

  // 4. Every sensor detects three events and stores them through Pool.
  query::EventGenerator events({.dims = 3}, /*seed=*/7);
  std::uint64_t insert_msgs = 0;
  for (net::NodeId n = 0; n < network.size(); ++n) {
    for (int i = 0; i < 3; ++i) {
      insert_msgs += pool.insert(n, events.next(n)).messages;
    }
  }
  std::printf("inserted %zu events with %llu messages (%.2f msgs/event)\n\n",
              pool.stored_count(),
              static_cast<unsigned long long>(insert_msgs),
              static_cast<double>(insert_msgs) /
                  static_cast<double>(pool.stored_count()));

  // 5. Queries. A sink node (any sensor) issues them; costs are message
  //    counts over GPSR paths, the paper's metric.
  const net::NodeId sink = network.nearest_node(field.center());
  const auto report = [&](const char* label, const storage::RangeQuery& q) {
    const auto r = pool.execute(sink, q);
    std::printf("%-28s %-32s -> %3zu events, %4llu msgs "
                "(%llu query + %llu reply), %zu cells visited\n",
                label, storage::to_string(q.type()), r.events.size(),
                static_cast<unsigned long long>(r.messages),
                static_cast<unsigned long long>(r.query_messages),
                static_cast<unsigned long long>(r.reply_messages),
                r.index_nodes_visited);
  };

  // Exact-match range query: all three attributes bounded.
  report("hot+humid+bright corner:",
         storage::RangeQuery({{0.7, 0.9}, {0.6, 0.8}, {0.5, 1.0}}));

  // Partial-match range query: the paper's specialty. '*' dimensions are
  // passed via the specified-mask constructor.
  {
    storage::RangeQuery::Bounds b{{0, 0}, {0, 0}, {0.8, 0.84}};
    FixedVec<bool, storage::kMaxDims> spec{false, false, true};
    report("very bright, rest *:", storage::RangeQuery(b, spec));
  }

  // Exact-match point query.
  {
    const auto probe = events.next(0);  // a fresh event nobody stored
    storage::RangeQuery::Bounds b;
    for (std::size_t d = 0; d < 3; ++d)
      b.push_back({probe.values[d], probe.values[d]});
    report("point probe (miss):", storage::RangeQuery(b));
  }

  // Partial-match point query.
  {
    storage::RangeQuery::Bounds b{{0.5, 0.5}, {0, 0}, {0, 0}};
    FixedVec<bool, storage::kMaxDims> spec{true, false, false};
    report("temp exactly 0.5, rest *:", storage::RangeQuery(b, spec));
  }

  std::printf("\ntotal network traffic: %llu messages, %.3f J radio energy\n",
              static_cast<unsigned long long>(network.traffic().total),
              network.traffic().energy_j);
  return 0;
}
