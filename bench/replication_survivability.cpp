// Extension experiment: resilience mirrors (paper reference [7]'s idea
// grafted onto Pool). How much data survives random index-node failures
// as the replica count and the failure fraction vary, and what do the
// mirrors cost at insert time?
//
// Two halves: the STATIC table asks "what data would a failure destroy"
// via PoolSystem::survivability (no protocol runs); the ONLINE table
// kills the same fractions live at the query-phase midpoint and measures
// the recall the ack/retry + failover machinery actually delivers.
#include <algorithm>
#include <cstdio>
#include <sstream>

#include "bench_support/experiment.h"
#include "bench_support/parallel.h"
#include "cli/runner.h"
#include "common/error.h"

using namespace poolnet;
using namespace poolnet::benchsup;

namespace {
struct SeedRun {
  double insert_per_event = 0;
  std::size_t primaries = 0, recovered = 0, lost = 0, total = 0;
};
}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv);
  print_banner("Replication survivability (extension, cf. paper ref [7])",
               "900 nodes; uniform workload; random node failures; events "
               "lost / recovered by rotated-pool mirrors.");

  constexpr int kSeeds = 3;

  const std::vector<std::uint32_t> replica_counts = {0u, 1u, 2u};
  const std::vector<double> fail_fracs = {0.05, 0.10, 0.20};
  struct Job {
    std::size_t group;
    std::uint32_t replicas;
    double fail_frac;
    int seed;
  };
  std::vector<Job> grid;
  std::size_t group = 0;
  for (const std::uint32_t replicas : replica_counts) {
    for (const double fail_frac : fail_fracs) {
      for (int seed = 1; seed <= kSeeds; ++seed)
        grid.push_back({group, replicas, fail_frac, seed});
      ++group;
    }
  }

  const auto runs = parallel_map<SeedRun>(
      grid.size(), opts.threads, [&grid, &opts](std::size_t i) {
        const Job& j = grid[i];
        TestbedConfig config;
        config.nodes = 900;
        config.seed = static_cast<std::uint64_t>(j.seed);
        config.pool.replicas = j.replicas;
        config.route_cache = opts.route_cache;
        Testbed tb(config);
        const auto events = tb.insert_workload();
        SeedRun out;
        out.insert_per_event =
            static_cast<double>(tb.pool_insert_traffic().total) /
            static_cast<double>(events);

        Rng rng(static_cast<std::uint64_t>(j.seed) * 77 + j.replicas);
        std::vector<net::NodeId> dead;
        const auto want =
            static_cast<std::size_t>(j.fail_frac * config.nodes);
        while (dead.size() < want) {
          const auto n = static_cast<net::NodeId>(rng.uniform_int(
              0, static_cast<std::int64_t>(config.nodes) - 1));
          if (std::find(dead.begin(), dead.end(), n) == dead.end())
            dead.push_back(n);
        }
        const auto report = tb.pool().survivability(dead);
        out.primaries = report.primaries_lost;
        out.recovered = report.recovered;
        out.lost = report.lost;
        out.total = report.total_events;
        return out;
      });

  TablePrinter table({"replicas", "fail %", "insert msgs/event",
                      "primaries lost", "recovered", "lost", "lost %"});
  group = 0;
  for (const std::uint32_t replicas : replica_counts) {
    for (const double fail_frac : fail_fracs) {
      double insert_per_event = 0;
      std::size_t primaries = 0, recovered = 0, lost = 0, total = 0;
      for (std::size_t i = 0; i < grid.size(); ++i) {
        if (grid[i].group != group) continue;
        insert_per_event += runs[i].insert_per_event;
        primaries += runs[i].primaries;
        recovered += runs[i].recovered;
        lost += runs[i].lost;
        total += runs[i].total;
      }
      table.add_row(
          {std::to_string(replicas), fmt(fail_frac * 100, 0),
           fmt(insert_per_event / kSeeds, 2), std::to_string(primaries),
           std::to_string(recovered), std::to_string(lost),
           fmt(100.0 * static_cast<double>(lost) / static_cast<double>(total),
               2)});
      ++group;
    }
  }
  table.print();
  std::printf(
      "\nExpected shape: without mirrors every lost primary is lost data; "
      "one rotated-pool mirror rescues most of it, two nearly all, at a "
      "proportional insert-message cost.\n");

  // --- online mode: kill the fraction mid-run, measure delivered recall --
  std::printf(
      "\nOnline survivability: %d%% / %d%% / %d%% of nodes killed at the "
      "query-phase midpoint; recall = answered / oracle events.\n\n",
      5, 10, 20);

  struct OnlineJob {
    double fail_frac;
    std::uint32_t replicas;
  };
  std::vector<OnlineJob> online_jobs;
  for (const double frac : fail_fracs) {
    online_jobs.push_back({frac, 0});
    online_jobs.push_back({frac, 1});  // Pool-only: mirrors vs the same cut
  }

  struct OnlineRun {
    std::vector<cli::CliResult> rows;
  };
  const auto online = parallel_map<OnlineRun>(
      online_jobs.size(), opts.threads, [&online_jobs](std::size_t i) {
        const OnlineJob& j = online_jobs[i];
        cli::CliConfig config;
        config.systems =
            j.replicas == 0
                ? std::vector<SystemKind>{SystemKind::Pool, SystemKind::Dim,
                                          SystemKind::Ght}
                : std::vector<SystemKind>{SystemKind::Pool};
        config.nodes = 300;
        config.events_per_node = 5;
        config.queries = 60;
        config.flavor = cli::QueryFlavor::OnePartial;
        config.deployments = 2;
        config.threads = 1;
        config.pool.replicas = j.replicas;
        std::string err;
        const std::string spec =
            "kill:" + std::to_string(j.fail_frac) + "@30";
        if (!sim::parse_fault_spec(spec, &config.faults, &err))
          throw ConfigError("online survivability: " + err);
        std::ostringstream sink;  // per-run table discarded; merged below
        return OnlineRun{cli::run_experiment(config, sink)};
      });

  TablePrinter online_table(
      {"killed %", "system", "replicas", "recall", "retries", "failovers",
       "events lost"});
  for (std::size_t i = 0; i < online_jobs.size(); ++i) {
    const OnlineJob& j = online_jobs[i];
    for (const cli::CliResult& r : online[i].rows) {
      online_table.add_row({fmt(j.fail_frac * 100, 0),
                            to_string(r.system),
                            std::to_string(j.replicas), fmt(r.recall, 3),
                            std::to_string(r.retries),
                            std::to_string(r.failovers),
                            std::to_string(r.events_lost)});
    }
  }
  online_table.print();
  std::printf(
      "\nExpected shape: recall stays near 1 for small cuts, degrades "
      "gracefully as the cut grows, and Pool with one mirror recovers most "
      "of the gap by restoring from surviving replicas at failover time.\n");
  return 0;
}
