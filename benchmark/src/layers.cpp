#include "layers.h"

#include <algorithm>
#include <array>

#include "common/rng.h"
#include "server/query_language.h"
#include "server/wire.h"
#include "statements.h"

namespace poolbench {

using namespace poolnet;

namespace {

constexpr std::size_t kMaxReplayed = 2000;
constexpr std::size_t kMinPerClass = 3;
constexpr std::size_t kRouteProbes = 2000;

}  // namespace

const char* system_span(storage::QueryClass cls) {
  switch (cls) {
    case storage::QueryClass::Range: return "system.range";
    case storage::QueryClass::Skyline: return "system.skyline";
    case storage::QueryClass::KNearest: return "system.knn";
  }
  return "system.range";
}

double replay_layers(const LayerStack& stack,
                     const std::vector<std::string>& statements,
                     std::size_t epoch, std::uint64_t seed, double budget_s,
                     Tracer& tracer, Outcome& out) {
  auto& m = out.metrics;
  const std::size_t dims = stack.system.dims();
  epoch = std::max<std::size_t>(1, epoch);

  // Server text layer and engine epochs.
  std::vector<storage::QueryRequest> parsed;
  std::vector<double> work_ms;
  std::array<std::size_t, 3> per_class{};
  double reply_bytes = 0.0;
  double epoch_engine_ns = 0.0;
  std::size_t epochs = 0;
  const engine::EngineStats e0 = stack.engine.stats();
  const auto start = Clock::now();
  const auto covered = [&] {
    return std::all_of(per_class.begin(), per_class.end(),
                       [](std::size_t c) { return c >= kMinPerClass; });
  };
  const std::size_t cap = std::min(statements.size(), kMaxReplayed);
  while (parsed.size() < cap &&
         (seconds_between(start, Clock::now()) < budget_s || !covered())) {
    const std::size_t first = parsed.size();
    const std::size_t g = std::min(epoch, cap - first);
    std::vector<double> req_ns(g, 0.0);
    std::vector<engine::QueryEngine::Ticket> tickets;
    double engine_ns = 0.0;
    const int ep = tracer.begin("engine.epoch", first);
    for (std::size_t j = 0; j < g; ++j) {
      const std::size_t i = first + j;
      std::string error;
      storage::QueryRequest q = placeholder_request();
      const int ps = tracer.begin("server.parse", i, ep);
      const bool ok = server::parse_query(statements[i], dims, &q, &error);
      req_ns[j] += tracer.end(ps);
      if (!ok) {
        tracer.end(ep);
        out.fail("replay cannot parse '" + statements[i] + "': " + error);
        return 0.0;
      }
      ++per_class[static_cast<std::size_t>(q.cls())];
      const int ss = tracer.begin("engine.submit", i, ep);
      tickets.push_back(stack.engine.submit(stack.sink, q));
      const double submit_ns = tracer.end(ss);
      req_ns[j] += submit_ns;
      engine_ns += submit_ns;
      parsed.push_back(std::move(q));
    }
    const int fs = tracer.begin("engine.flush", first, ep);
    stack.engine.flush();
    const double flush_ns = tracer.end(fs);
    engine_ns += flush_ns;
    for (std::size_t j = 0; j < g; ++j) {
      const std::size_t i = first + j;
      const int ts = tracer.begin("engine.take", i, ep);
      const storage::QueryReceipt r = stack.engine.take(tickets[j]);
      const double take_ns = tracer.end(ts);
      req_ns[j] += take_ns;
      engine_ns += take_ns;
      const int es = tracer.begin("server.encode", i, ep);
      reply_bytes += static_cast<double>(server::encode_events(r.events).size());
      req_ns[j] += tracer.end(es);
      work_ms.push_back((req_ns[j] + flush_ns / static_cast<double>(g)) / 1e6);
    }
    tracer.end(ep);
    epoch_engine_ns += engine_ns;
    ++epochs;
  }
  const std::size_t n = parsed.size();
  if (n == 0) {
    out.fail("layer replay had no statements");
    return 0.0;
  }
  const double nq = static_cast<double>(n);
  const engine::EngineStats e1 = stack.engine.stats();
  const auto unique = e1.unique_cell_visits - e0.unique_cell_visits;
  const auto messages = e1.messages - e0.messages;
  const auto saved = e1.messages_saved - e0.messages_saved;
  m["server.parse_us"] = tracer.stat("server.parse").mean_self_us();
  m["server.encode_us"] = tracer.stat("server.encode").mean_self_us();
  m["server.reply_bytes"] = reply_bytes / nq;
  m["engine.epoch_ms"] = epoch_engine_ns / static_cast<double>(epochs) / 1e6;
  m["engine.dedup_ratio"] =
      unique > 0 ? static_cast<double>(e1.serial_cell_visits -
                                       e0.serial_cell_visits) /
                       static_cast<double>(unique)
                 : 1.0;
  m["engine.msgs_saved_ratio"] =
      messages + saved > 0
          ? static_cast<double>(saved) / static_cast<double>(messages + saved)
          : 0.0;

  // System layer: the same queries straight into DcsSystem::execute, with
  // the network ledger and the scan counters diffed around them.
  const storage::column::ScanStats none;
  const storage::column::ScanStats* scan = stack.system.scan_stats();
  const storage::column::ScanStats s0 = scan ? *scan : none;
  const net::TrafficTally t0 = stack.network.traffic();
  std::vector<std::uint64_t> tx0;
  for (const net::Node& node : stack.network.nodes())
    tx0.push_back(node.tx_count);
  double visits = 0.0, query_msgs = 0.0, reply_msgs = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const int s = tracer.begin(system_span(parsed[i].cls()), i);
    const storage::QueryReceipt r = stack.system.execute(stack.sink, parsed[i]);
    tracer.end(s);
    visits += static_cast<double>(r.index_nodes_visited);
    query_msgs += static_cast<double>(r.query_messages);
    reply_msgs += static_cast<double>(r.reply_messages);
  }
  const net::TrafficTally dt = stack.network.traffic() - t0;
  const storage::column::ScanStats s1 = scan ? *scan : none;
  std::uint64_t max_tx = 0;
  for (std::size_t i = 0; i < tx0.size(); ++i)
    max_tx = std::max(max_tx, stack.network.nodes()[i].tx_count - tx0[i]);
  m["system.range_ms"] = tracer.stat("system.range").mean_self_ms();
  m["system.skyline_ms"] = tracer.stat("system.skyline").mean_self_ms();
  m["system.knn_ms"] = tracer.stat("system.knn").mean_self_ms();
  m["system.visits_per_query"] = visits / nq;
  m["system.query_msgs_per_query"] = query_msgs / nq;
  m["system.reply_msgs_per_query"] = reply_msgs / nq;
  m["net.energy_mj_per_query"] = dt.energy_j * 1e3 / nq;
  m["net.max_node_tx_share"] =
      dt.total > 0 ? static_cast<double>(max_tx) / static_cast<double>(dt.total)
                   : 0.0;
  m["storage.rows_scanned_per_query"] =
      static_cast<double>(s1.rows_scanned - s0.rows_scanned) / nq;
  m["storage.blocks_skipped_per_query"] =
      static_cast<double>(s1.blocks_skipped - s0.blocks_skipped) / nq;
  m["storage.bytes_touched_per_query"] =
      static_cast<double>(s1.bytes_touched - s0.bytes_touched) / nq;
  m["storage.live_events"] = static_cast<double>(stack.system.stored_count());

  // Storage alone: the oracle answers the same queries by scanning its
  // column store, with no network or index in the way.
  for (std::size_t i = 0; i < n; ++i) {
    const int s = tracer.begin("storage.scan", i);
    stack.oracle.execute(stack.sink, parsed[i]);
    tracer.end(s);
  }
  m["storage.scan_ms"] = tracer.stat("storage.scan").mean_self_ms();

  // Routing: cold GPSR routes from the sink (the raw router never caches).
  Rng rng(seed ^ 0x5eed0e7a11u);
  const auto nodes = static_cast<std::int64_t>(stack.network.size());
  for (std::size_t k = 0; k < kRouteProbes; ++k) {
    const auto dst = static_cast<net::NodeId>(rng.uniform_int(0, nodes - 1));
    const int s = tracer.begin("routing.route_to_node", k);
    const routing::RouteResult route = stack.gpsr.route_to_node(stack.sink, dst);
    tracer.end(s);
    if (route.delivered != dst) out.fail("cold route missed its destination");
  }
  m["routing.route_us"] = tracer.stat("routing.route_to_node").mean_self_us();

  return median(std::move(work_ms));
}

}  // namespace poolbench
