// The layer replay every traced pass runs, on its own workload's stack and
// statements.
//
// The untraced path of a workload crosses only some layers (the serve
// workloads cross all of them, but inside another process), so the traced
// pass replays the statements the workload issued through each layer's
// public entry point in turn, with a span around every call:
//
//   server   parse_query, then encode_events on the answer
//   engine   epochs of `epoch` queries: submit each, flush, take each
//   system   DcsSystem::execute per query, by class, with the message
//            ledger and the columnar scan counters diffed around it
//   storage  the same queries on the BruteForceStore oracle (pure scan)
//   routing  cold Gpsr::route_to_node from the sink to seeded nodes
#pragma once

#include <string>
#include <vector>

#include "bench.h"
#include "engine/query_engine.h"
#include "net/network.h"
#include "routing/router.h"
#include "storage/brute_force_store.h"
#include "storage/dcs_system.h"
#include "trace.h"

namespace poolbench {

struct LayerStack {
  poolnet::storage::DcsSystem& system;
  poolnet::engine::QueryEngine& engine;  ///< over `system`
  poolnet::net::Network& network;        ///< the ledger `system` charges
  poolnet::storage::BruteForceStore& oracle;
  const poolnet::routing::Router& gpsr;  ///< uncached router of the deployment
  poolnet::net::NodeId sink;
};

/// Replays a prefix of `statements` (SELECT text) through every layer,
/// stopping once `budget_s` has passed and every query class has been
/// seen a few times, and writes the per-layer figures into out.metrics.
/// Returns the median of one request's replayed layer work, in ms: parse,
/// submit, take and encode, plus its share of the epoch's flush.
double replay_layers(const LayerStack& stack,
                     const std::vector<std::string>& statements,
                     std::size_t epoch, std::uint64_t seed, double budget_s,
                     Tracer& tracer, Outcome& out);

/// Span name of one system-layer call: "system.range", "system.skyline"
/// or "system.knn".
const char* system_span(poolnet::storage::QueryClass cls);

}  // namespace poolbench
