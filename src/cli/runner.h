// The poolnet CLI experiment runner: one configurable experiment —
// deploy, insert, query — over any subset of the four DCS systems, with
// a text report and optional CSV export for plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "bench_support/testbed.h"
#include "engine/query_engine.h"
#include "obs/telemetry.h"
#include "query/query_gen.h"
#include "sim/fault_plan.h"
#include "storage/store_config.h"

namespace poolnet::cli {

enum class QueryFlavor { Exact, OnePartial, TwoPartial, Point };

const char* to_string(QueryFlavor f);

/// Parses a --systems list: comma-separated system names, where "all"
/// stands for all four in report order. Returns false and sets `error`
/// on an unknown or empty name, or on a system listed twice.
bool parse_systems(const std::string& list,
                   std::vector<benchsup::SystemKind>* out, std::string* error);

struct CliConfig {
  std::vector<benchsup::SystemKind> systems;  // which systems to run
  std::size_t nodes = 900;
  std::size_t dims = 3;
  std::size_t events_per_node = 3;
  std::size_t queries = 50;
  QueryFlavor flavor = QueryFlavor::Exact;

  /// Which query class the workload draws (--query-class). Range uses
  /// `flavor`; skyline/knn/mix draw from the class generators and check
  /// results against the local brute-force kernels.
  query::QueryClassMix query_class = query::QueryClassMix::Range;
  query::RangeSizeDistribution size_dist =
      query::RangeSizeDistribution::Exponential;
  query::ValueDistribution workload = query::ValueDistribution::Uniform;
  std::uint64_t seed = 1;
  std::size_t deployments = 1;  // averaged over this many seeds
  core::PoolConfig pool;
  std::string csv_path;  // empty = no CSV
  std::size_t threads = 1;  // deployments run in parallel when > 1
  routing::RouteCacheConfig route_cache;  // Pool's route cache (default on)

  /// Query-engine serving layer (batching + result cache). The default —
  /// batching off, cache off — routes every query through the engine
  /// unbatched, which is bit-identical to calling the systems directly.
  engine::QueryEngineConfig engine;

  /// Live failure plan, injected into every selected system's network as
  /// the query phase progresses (action times are query indices). The
  /// default (disabled) leaves every run bit-identical to a build without
  /// fault support.
  sim::FaultPlan faults;

  /// Unified telemetry surface: --metrics json|csv[:path] emits the
  /// merged registry Snapshot (route caches, engines, per-node network
  /// accounting, hotspot/energy reports); --trace N attaches hop-trace
  /// rings to every network. Off by default at zero hot-path cost.
  obs::TelemetryConfig telemetry;

  /// Engine behind the central baseline (--store): the flat in-memory
  /// vector or the paged out-of-core store. Ignored unless the run
  /// includes SystemKind::Central.
  storage::StoreConfig store;
};

/// One result row (per system).
struct CliResult {
  benchsup::SystemKind system;
  double mean_messages = 0.0;
  double mean_query_messages = 0.0;
  double mean_reply_messages = 0.0;
  double mean_results = 0.0;
  double mean_nodes_visited = 0.0;
  double insert_messages_per_event = 0.0;
  std::size_t mismatches = 0;  ///< result sets differing from the oracle

  /// Answered events / oracle events over the whole run (1.0 fault-free;
  /// under --faults this is the survivability headline number).
  double recall = 1.0;
  std::uint64_t retries = 0;      ///< reliable-leg retransmission rounds
  std::uint64_t failovers = 0;    ///< index/owner/home re-elections
  std::uint64_t events_lost = 0;  ///< stored events destroyed or dropped
};

/// Runs the experiment, prints a table to `out`, appends CSV when
/// configured, and returns the per-system rows (test hook).
std::vector<CliResult> run_experiment(const CliConfig& config,
                                      std::ostream& out);

/// Appends `results` to the CSV at `path`, writing a header when the
/// file does not exist yet.
void append_csv(const std::string& path, const CliConfig& config,
                const std::vector<CliResult>& results);

}  // namespace poolnet::cli
