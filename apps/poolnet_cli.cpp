// poolnet_cli — run a configurable DCS experiment from the command line.
//
//   $ poolnet_cli --nodes 900 --query-type 1-partial --systems pool,dim
//   $ poolnet_cli --nodes 1500 --seeds 5 --csv results.csv
//
// Every run cross-checks all result sets against a brute-force oracle;
// nonzero mismatches (a bug) make the exit status nonzero. A flag or
// configuration the run cannot honour exits 2.
#include <cstdio>
#include <iostream>

#include "bench_support/parallel.h"
#include "cli/args.h"
#include "cli/runner.h"
#include "common/error.h"

using namespace poolnet;

int main(int argc, char** argv) {
  cli::ArgParser parser(
      "poolnet_cli",
      "run a Pool/DIM/GHT/central sensor-network storage experiment");
  parser.add_option("systems", "pool,dim",
                    "comma-separated: pool, dim, ght, central, or all");
  parser.add_option("nodes", "900", "network size (sensors)");
  parser.add_option("dims", "3", "event dimensionality k");
  parser.add_option("events-per-node", "3", "workload volume");
  parser.add_option("queries", "50", "queries per deployment");
  parser.add_option("query-type", "exact",
                    "exact, 1-partial, 2-partial or point");
  parser.add_option("query-class", "range",
                    "query class: range, skyline, knn or mix");
  parser.add_option("size-dist", "exponential",
                    "range size distribution: uniform or exponential");
  parser.add_option("workload", "uniform",
                    "event values: uniform, gaussian or hotspot");
  parser.add_option("seed", "1", "master random seed");
  parser.add_option("seeds", "1", "number of deployments to average");
  parser.add_option("pool-side", "10", "Pool side length l (cells)");
  parser.add_option("cell-size", "5.0", "Pool cell size alpha (meters)");
  parser.add_flag("sharing", "enable Pool workload sharing (Section 4.2)");
  parser.add_option("share-threshold", "32",
                    "events per node before delegation");
  parser.add_option("replicas", "0",
                    "resilience mirrors per event (0..dims-1)");
  parser.add_option("csv", "", "append results to this CSV file");
  parser.add_option("threads", "0",
                    "parallel deployments (0 = hardware concurrency, "
                    "1 = serial)");
  parser.add_option("route-cache", "on",
                    "Pool's route memoization: on, off or lru:<bytes> "
                    "(byte-bounded, k/m/g suffixes ok)");
  cli::add_engine_options(parser);
  cli::add_fault_options(parser);
  cli::add_telemetry_options(parser);
  cli::add_store_options(parser);

  std::string error;
  if (!parser.parse(argc, argv, &error)) {
    std::fprintf(stderr, "error: %s\n\n%s", error.c_str(),
                 parser.help().c_str());
    return 2;
  }
  if (parser.help_requested()) {
    std::fputs(parser.help().c_str(), stdout);
    return 0;
  }

  cli::CliConfig config;
  if (!cli::parse_systems(parser.option("systems"), &config.systems,
                          &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }

  const auto nodes = parser.int_option("nodes", 10, 100000, &error);
  const auto dims = parser.int_option("dims", 1, 8, &error);
  const auto epn = parser.int_option("events-per-node", 0, 1000, &error);
  const auto queries = parser.int_option("queries", 1, 100000, &error);
  const auto seed = parser.int_option("seed", 0, INT64_MAX, &error);
  const auto seeds = parser.int_option("seeds", 1, 1000, &error);
  const auto pool_side = parser.int_option("pool-side", 1, 64, &error);
  const auto cell_size = parser.double_option("cell-size", 0.5, 1000, &error);
  const auto threshold =
      parser.int_option("share-threshold", 1, 1 << 20, &error);
  const auto replicas = parser.int_option("replicas", 0, 7, &error);
  const auto threads = parser.int_option("threads", 0, 1024, &error);
  const auto qtype = parser.choice_option(
      "query-type", {"exact", "1-partial", "2-partial", "point"}, &error);
  const auto sdist =
      parser.choice_option("size-dist", {"uniform", "exponential"}, &error);
  const auto wl = parser.choice_option(
      "workload", {"uniform", "gaussian", "hotspot", "exponential"}, &error);
  if (!nodes || !dims || !epn || !queries || !seed || !seeds || !pool_side ||
      !cell_size || !threshold || !replicas || !threads || !qtype || !sdist ||
      !wl) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  if (!routing::parse_route_cache_spec(parser.option("route-cache"),
                                       &config.route_cache, &error)) {
    std::fprintf(stderr, "error: --route-cache: %s\n", error.c_str());
    return 2;
  }
  if (!cli::parse_engine_options(parser, &config.engine, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  if (!cli::parse_fault_options(parser, &config.faults, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  if (!cli::parse_telemetry_options(parser, &config.telemetry, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  if (!cli::parse_store_options(parser, &config.store, &error)) {
    std::fprintf(stderr, "error: --store: %s\n", error.c_str());
    return 2;
  }
  if (!query::parse_query_class(parser.option("query-class"),
                                &config.query_class, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }

  config.nodes = static_cast<std::size_t>(*nodes);
  config.dims = static_cast<std::size_t>(*dims);
  config.events_per_node = static_cast<std::size_t>(*epn);
  config.queries = static_cast<std::size_t>(*queries);
  config.seed = static_cast<std::uint64_t>(*seed);
  config.deployments = static_cast<std::size_t>(*seeds);
  config.pool.side = static_cast<std::uint32_t>(*pool_side);
  config.pool.cell_size = *cell_size;
  config.pool.workload_sharing = parser.flag("sharing");
  config.pool.share_threshold = static_cast<std::uint32_t>(*threshold);
  config.pool.replicas = static_cast<std::uint32_t>(*replicas);
  config.csv_path = parser.option("csv");
  config.threads = *threads == 0 ? benchsup::default_threads()
                                 : static_cast<std::size_t>(*threads);

  config.flavor = *qtype == "exact"       ? cli::QueryFlavor::Exact
                  : *qtype == "1-partial" ? cli::QueryFlavor::OnePartial
                  : *qtype == "2-partial" ? cli::QueryFlavor::TwoPartial
                                          : cli::QueryFlavor::Point;
  config.size_dist = *sdist == "uniform"
                         ? query::RangeSizeDistribution::Uniform
                         : query::RangeSizeDistribution::Exponential;
  config.workload = *wl == "uniform"    ? query::ValueDistribution::Uniform
                    : *wl == "gaussian" ? query::ValueDistribution::Gaussian
                    : *wl == "hotspot"  ? query::ValueDistribution::Hotspot
                                        : query::ValueDistribution::Exponential;

  try {
    const auto results = cli::run_experiment(config, std::cout);
    // With live failures the oracle intentionally over-counts (it still
    // holds destroyed events); degradation is reported as recall instead
    // of failing the run.
    for (const auto& r : results) {
      if (!config.faults.enabled() && r.mismatches != 0) {
        std::fprintf(stderr,
                     "CORRECTNESS VIOLATION: %s mismatched the oracle on "
                     "%zu queries\n",
                     benchsup::to_string(r.system), r.mismatches);
        return 1;
      }
    }
  } catch (const ConfigError& ex) {
    // e.g. a --faults node id past the deployment, known only once the
    // fault plan meets a network.
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 2;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }
  return 0;
}
