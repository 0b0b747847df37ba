#include "cli/runner.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>

#include "bench_support/experiment.h"
#include "bench_support/parallel.h"
#include "bench_support/telemetry_bridge.h"
#include "common/error.h"
#include "net/fault_injector.h"
#include "query/query_gen.h"
#include "sim/stats.h"

namespace poolnet::cli {

const char* to_string(QueryFlavor f) {
  switch (f) {
    case QueryFlavor::Exact: return "exact";
    case QueryFlavor::OnePartial: return "1-partial";
    case QueryFlavor::TwoPartial: return "2-partial";
    case QueryFlavor::Point: return "point";
  }
  return "?";
}

bool parse_systems(const std::string& list,
                   std::vector<benchsup::SystemKind>* out, std::string* error) {
  std::vector<benchsup::SystemKind> kinds;
  const auto add = [&](benchsup::SystemKind kind) {
    if (std::find(kinds.begin(), kinds.end(), kind) != kinds.end()) {
      *error = std::string("--systems: '") + benchsup::to_string(kind) +
               "' listed twice";
      return false;
    }
    kinds.push_back(kind);
    return true;
  };
  std::size_t start = 0;
  for (;;) {
    const auto comma = list.find(',', start);
    const std::string token = list.substr(start, comma - start);
    if (token == "all") {
      for (const auto kind : benchsup::kAllSystemKinds)
        if (!add(kind)) return false;
    } else {
      benchsup::SystemKind kind;
      if (!benchsup::parse_system_kind(token, &kind, error)) {
        *error = "--systems: " + *error;
        return false;
      }
      if (!add(kind)) return false;
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  *out = std::move(kinds);
  return true;
}

namespace {

struct Accumulator {
  sim::RunningStat messages, query_messages, reply_messages, results,
      visited;
  double insert_msgs = 0.0;
  std::size_t events = 0;
  std::size_t mismatches = 0;
  sim::RecallStat recall;
  std::uint64_t retries = 0;
  std::uint64_t failovers = 0;
  std::uint64_t events_lost = 0;
};

storage::RangeQuery make_query(query::QueryGenerator& gen, QueryFlavor f) {
  switch (f) {
    case QueryFlavor::Exact: return gen.exact_range();
    case QueryFlavor::OnePartial: return gen.partial_range(1);
    case QueryFlavor::TwoPartial: return gen.partial_range(2);
    case QueryFlavor::Point: return gen.exact_point();
  }
  return gen.exact_range();
}

storage::QueryRequest make_request(query::QueryGenerator& gen,
                                   const CliConfig& config) {
  // Range keeps the historical flavor-driven draw (same RNG stream as
  // pre-QueryRequest builds); the other classes use the shared mix.
  if (config.query_class == query::QueryClassMix::Range)
    return make_query(gen, config.flavor);
  return gen.next(config.query_class);
}

void record(Accumulator& acc, const storage::QueryReceipt& r,
            std::size_t oracle_count, bool faults_on) {
  acc.messages.add(static_cast<double>(r.messages));
  acc.query_messages.add(static_cast<double>(r.query_messages));
  acc.reply_messages.add(static_cast<double>(r.reply_messages));
  acc.results.add(static_cast<double>(r.events.size()));
  acc.visited.add(static_cast<double>(r.index_nodes_visited));
  acc.recall.add(r.events.size(), oracle_count);
  // Under injected failures the oracle still counts destroyed events, so
  // a shortfall is expected degradation (reported as recall), not a
  // correctness violation.
  if (!faults_on && r.events.size() != oracle_count) ++acc.mismatches;
}

void merge(Accumulator& into, const Accumulator& from) {
  into.messages.merge(from.messages);
  into.query_messages.merge(from.query_messages);
  into.reply_messages.merge(from.reply_messages);
  into.results.merge(from.results);
  into.visited.merge(from.visited);
  into.insert_msgs += from.insert_msgs;
  into.events += from.events;
  into.mismatches += from.mismatches;
  into.recall.merge(from.recall);
  into.retries += from.retries;
  into.failovers += from.failovers;
  into.events_lost += from.events_lost;
}

/// Everything one deployment produces: the per-system aggregates, the
/// scraped telemetry Snapshot (empty when metrics are off), and the
/// systems' describe() lines (captured once, from deployment 0).
struct DeploymentOut {
  std::map<benchsup::SystemKind, Accumulator> acc;
  obs::Snapshot snap;
  std::vector<std::string> describes;  ///< config.systems order
};

/// One deployment, start to finish: the unit of parallelism. Each call
/// owns every bit of mutable state it touches (testbed, RNGs), so
/// deployments can run on any thread; results merge in deployment order,
/// making the aggregates independent of the thread count.
DeploymentOut run_deployment(const CliConfig& config, std::size_t dep) {
  using benchsup::SystemKind;
  DeploymentOut out;
  std::map<SystemKind, Accumulator>& acc = out.acc;

  benchsup::TestbedConfig tb_config;
  tb_config.nodes = config.nodes;
  tb_config.dims = config.dims;
  tb_config.events_per_node = config.events_per_node;
  tb_config.seed = config.seed + dep;
  tb_config.pool = config.pool;
  tb_config.workload.dist = config.workload;
  tb_config.route_cache = config.route_cache;
  tb_config.trace_capacity = config.telemetry.trace_capacity;
  benchsup::Testbed tb(tb_config);
  const auto events = tb.insert_workload();

  // Every query flows through a per-system QueryEngine. With batching and
  // the cache off the engine executes each submit immediately — the exact
  // call sequence of the direct loop — so default runs are unchanged;
  // with --batch/--qcache the engine merges and caches per its config.
  std::map<SystemKind, std::unique_ptr<engine::QueryEngine>> engines;
  // Query latency in hops (forwarding legs on ideal links), one histogram
  // per system in the testbed registry.
  std::map<SystemKind, obs::MetricsRegistry::Histogram> latency;
  for (const auto s : config.systems) {
    storage::DcsSystem& sys = tb.deploy(s, config.store);
    acc[s].insert_msgs = static_cast<double>(tb.insert_traffic(s).total);
    acc[s].events = events;
    const std::string prefix = to_string(s);
    engines[s] = std::make_unique<engine::QueryEngine>(
        sys, config.engine, &tb.metrics(), prefix + ".engine");
    latency[s] =
        tb.metrics().histogram(prefix + ".query.latency_hops", 4.0, 64);
    out.describes.push_back(sys.describe());
  }

  // Live failure injection: the plan's action times are query indices,
  // advanced just before each query is issued. Every network (including
  // GHT's copy) sees the same kills, so the systems stay in one world.
  const bool faults_on = config.faults.enabled();
  std::unique_ptr<net::FaultInjector> injector;
  if (faults_on) {
    std::vector<net::Network*> nets{&tb.pool_network(), &tb.dim_network()};
    if (tb.deployed(SystemKind::Ght))
      nets.push_back(&tb.network(SystemKind::Ght));
    // Central's copy is deliberately exempt: the baseline models a
    // reliable backhaul to the base station and has no failover to
    // exercise, so injecting kills there would only crash routing.
    injector = std::make_unique<net::FaultInjector>(config.faults, nets);
  }

  struct Issued {
    std::size_t oracle_count;
    std::map<SystemKind, engine::QueryEngine::Ticket> tickets;
  };
  std::vector<Issued> issued;
  issued.reserve(config.queries);

  query::QueryGenerator qgen(
      {.dims = config.dims, .dist = config.size_dist},
      config.seed * 1000003 + dep * 101 + 7);
  Rng sink_rng(config.seed * 31 + dep * 13 + 1);
  std::vector<storage::Event> oracle_scratch;  // reused across queries
  for (std::size_t i = 0; i < config.queries; ++i) {
    if (injector) injector->advance(static_cast<double>(i));
    const storage::QueryRequest q = make_request(qgen, config);
    auto sink = tb.random_node(sink_rng);
    if (injector) {
      // A dead sink cannot issue anything; redraw (bounded, in case a
      // blackout leaves almost nobody standing). Extra draws only happen
      // on a redraw, so fault-free runs consume the identical stream.
      for (std::size_t tries = 0;
           !tb.pool_network().alive(sink) && tries < 1000; ++tries)
        sink = tb.random_node(sink_rng);
    }
    Issued row;
    oracle_scratch.clear();
    // The oracle answer: a box scan for ranges, the canonical local
    // kernel over all stored events for skyline/k-NN.
    if (q.cls() == storage::QueryClass::Range) {
      tb.oracle().matching_into(q.range(), oracle_scratch);
    } else {
      tb.oracle().matching_into(storage::full_space_query(config.dims),
                                oracle_scratch);
      if (q.cls() == storage::QueryClass::Skyline)
        storage::skyline_filter(q.skyline(), oracle_scratch);
      else
        storage::knn_filter(q.k_nearest(), oracle_scratch);
    }
    row.oracle_count = oracle_scratch.size();
    for (const auto s : config.systems)
      row.tickets[s] = engines[s]->submit(sink, q);
    issued.push_back(std::move(row));
  }
  for (const auto s : config.systems) engines[s]->flush();
  for (const Issued& row : issued) {
    for (const auto s : config.systems) {
      const storage::QueryReceipt r = engines[s]->take(row.tickets.at(s));
      latency[s].add(static_cast<double>(r.query_messages));
      record(acc[s], r, row.oracle_count, faults_on);
    }
  }
  // Deployment-local systems start with zeroed fault counters, so the
  // final totals are exactly this run's fault activity.
  for (const auto s : config.systems) {
    const storage::FaultStats& f = engines[s]->system().fault_stats();
    acc[s].retries += f.retries;
    acc[s].failovers += f.failovers;
    acc[s].events_lost += f.events_lost;
  }

  if (config.telemetry.wants_metrics()) out.snap = benchsup::scrape_testbed(tb);
  return out;
}

}  // namespace

std::vector<CliResult> run_experiment(const CliConfig& config,
                                      std::ostream& out) {
  if (config.systems.empty())
    throw ConfigError("run_experiment: no systems selected");
  if (config.flavor != QueryFlavor::Exact &&
      config.flavor != QueryFlavor::Point && config.dims < 2)
    throw ConfigError("run_experiment: partial queries need dims >= 2");

  const auto per_dep = benchsup::parallel_map<DeploymentOut>(
      config.deployments, config.threads,
      [&config](std::size_t dep) { return run_deployment(config, dep); });

  std::map<benchsup::SystemKind, Accumulator> acc;
  // Merge aggregates AND snapshots in deployment order — the float sums
  // are then bit-identical at any --threads value.
  obs::Snapshot snap;
  for (const auto& dep_out : per_dep) {
    for (const auto& [s, a] : dep_out.acc) merge(acc[s], a);
    if (config.telemetry.wants_metrics()) snap += dep_out.snap;
  }

  std::vector<CliResult> results;
  for (const auto s : config.systems) {
    const Accumulator& a = acc[s];
    CliResult r;
    r.system = s;
    r.mean_messages = a.messages.mean();
    r.mean_query_messages = a.query_messages.mean();
    r.mean_reply_messages = a.reply_messages.mean();
    r.mean_results = a.results.mean();
    r.mean_nodes_visited = a.visited.mean();
    r.insert_messages_per_event =
        a.events ? a.insert_msgs / static_cast<double>(a.events) : 0.0;
    r.mismatches = a.mismatches;
    r.recall = a.recall.weighted();
    r.retries = a.retries;
    r.failovers = a.failovers;
    r.events_lost = a.events_lost;
    results.push_back(r);
  }

  const bool faults_on = config.faults.enabled();
  out << "poolnet experiment: " << config.nodes << " nodes, " << config.dims
      << "-d events, " << config.queries << " " << to_string(config.flavor)
      << " queries x " << config.deployments << " deployment(s), seed "
      << config.seed << (faults_on ? ", faults on" : "") << "\n";
  // Scheme parameters come from DcsSystem::describe() — the runner never
  // hard-codes per-system strings.
  out << "systems: ";
  for (std::size_t i = 0; i < per_dep.front().describes.size(); ++i) {
    if (i > 0) out << "; ";
    out << per_dep.front().describes[i];
  }
  out << "\n\n";
  std::vector<std::string> headers{"system", "msgs/query", "query msgs",
                                   "reply msgs", "results", "nodes visited",
                                   "insert msgs/event", "mismatches"};
  // Degradation accounting rides along only when failures were injected,
  // keeping fault-free output byte-identical.
  if (faults_on)
    headers.insert(headers.end(),
                   {"recall", "retries", "failovers", "events lost"});
  benchsup::TablePrinter table(std::move(headers));
  for (const auto& r : results) {
    std::vector<std::string> row{
        to_string(r.system), benchsup::fmt(r.mean_messages),
        benchsup::fmt(r.mean_query_messages),
        benchsup::fmt(r.mean_reply_messages), benchsup::fmt(r.mean_results),
        benchsup::fmt(r.mean_nodes_visited),
        benchsup::fmt(r.insert_messages_per_event, 2),
        std::to_string(r.mismatches)};
    if (faults_on) {
      row.insert(row.end(), {benchsup::fmt(r.recall, 3),
                             std::to_string(r.retries),
                             std::to_string(r.failovers),
                             std::to_string(r.events_lost)});
    }
    table.add_row(std::move(row));
  }
  table.print(out);

  if (config.telemetry.wants_metrics())
    obs::emit_snapshot(config.telemetry, snap, out);

  if (!config.csv_path.empty()) append_csv(config.csv_path, config, results);
  return results;
}

void append_csv(const std::string& path, const CliConfig& config,
                const std::vector<CliResult>& results) {
  const bool fresh = !std::filesystem::exists(path);
  const bool faults_on = config.faults.enabled();
  std::ofstream out(path, std::ios::app);
  if (!out) throw ConfigError("append_csv: cannot open " + path);
  if (fresh) {
    out << "system,nodes,dims,events_per_node,queries,flavor,size_dist,"
           "workload,seed,deployments,mean_messages,mean_query_messages,"
           "mean_reply_messages,mean_results,mean_nodes_visited,"
           "insert_messages_per_event,mismatches";
    if (faults_on) out << ",recall,retries,failovers,events_lost";
    out << '\n';
  }
  for (const auto& r : results) {
    out << to_string(r.system) << ',' << config.nodes << ',' << config.dims
        << ',' << config.events_per_node << ',' << config.queries << ','
        << to_string(config.flavor) << ','
        << query::to_string(config.size_dist) << ','
        << query::to_string(config.workload) << ',' << config.seed << ','
        << config.deployments << ',' << r.mean_messages << ','
        << r.mean_query_messages << ',' << r.mean_reply_messages << ','
        << r.mean_results << ',' << r.mean_nodes_visited << ','
        << r.insert_messages_per_event << ',' << r.mismatches;
    if (faults_on) {
      out << ',' << r.recall << ',' << r.retries << ',' << r.failovers << ','
          << r.events_lost;
    }
    out << '\n';
  }
}

}  // namespace poolnet::cli
