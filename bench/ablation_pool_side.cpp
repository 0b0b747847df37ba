// Ablation: sensitivity of Pool to the pool side length l (DESIGN.md §4).
//
// Smaller l means fewer, coarser cells — less pruning but shorter intra-
// pool forwarding; larger l sharpens pruning but multiplies subquery legs.
// The paper fixes l = 10 without discussion; this bench maps the tradeoff.
#include <cstdio>

#include "bench_support/experiment.h"
#include "bench_support/parallel.h"
#include "query/query_gen.h"

using namespace poolnet;
using namespace poolnet::benchsup;

namespace {
struct SeedRun {
  sim::RunningStat exact_msgs, exact_cells, part_msgs, part_cells, results;
  std::size_t mismatches = 0;
};
}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv);
  print_banner("Ablation — pool side length l",
               "900 nodes; 3-d queries (exact uniform-size and 1-partial); "
               "Pool message cost and pruning as l varies.");

  constexpr int kSeeds = 3;
  constexpr int kQueries = 60;

  const std::vector<std::uint32_t> sides = {4u, 6u, 8u, 10u, 12u, 16u, 20u};
  struct Job {
    std::size_t group;
    std::uint32_t side;
    int seed;
  };
  std::vector<Job> grid;
  for (std::size_t g = 0; g < sides.size(); ++g)
    for (int seed = 1; seed <= kSeeds; ++seed) grid.push_back({g, sides[g], seed});

  const auto runs = parallel_map<SeedRun>(
      grid.size(), opts.threads, [&grid, &opts](std::size_t i) {
        const auto [group, side, seed] = grid[i];
        (void)group;
        TestbedConfig config;
        config.nodes = 900;
        config.seed = static_cast<std::uint64_t>(seed);
        config.pool.side = side;
        config.route_cache = opts.route_cache;
        Testbed tb(config);
        tb.insert_workload();

        query::QueryGenerator qgen(
            {.dims = 3}, static_cast<std::uint64_t>(seed) * 41 + side);
        Rng sink_rng(static_cast<std::uint64_t>(seed) * 43 + side);
        SeedRun out;
        for (int q = 0; q < kQueries; ++q) {
          const auto qe = qgen.exact_range();
          const auto sink = tb.random_node(sink_rng);
          const auto re = tb.pool().execute(sink, qe);
          out.exact_msgs.add(static_cast<double>(re.messages));
          out.exact_cells.add(static_cast<double>(re.index_nodes_visited));
          out.results.add(static_cast<double>(re.events.size()));
          if (re.events.size() != tb.oracle().matching(qe).size())
            ++out.mismatches;

          const auto qp = qgen.partial_range(1);
          const auto rp = tb.pool().execute(sink, qp);
          out.part_msgs.add(static_cast<double>(rp.messages));
          out.part_cells.add(static_cast<double>(rp.index_nodes_visited));
        }
        return out;
      });

  TablePrinter table({"l", "exact msgs", "exact cells", "1-partial msgs",
                      "1-partial cells", "exact results"});
  for (std::size_t g = 0; g < sides.size(); ++g) {
    SeedRun total;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (grid[i].group != g) continue;
      total.exact_msgs.merge(runs[i].exact_msgs);
      total.exact_cells.merge(runs[i].exact_cells);
      total.part_msgs.merge(runs[i].part_msgs);
      total.part_cells.merge(runs[i].part_cells);
      total.results.merge(runs[i].results);
      total.mismatches += runs[i].mismatches;
    }
    if (total.mismatches != 0) {
      std::fprintf(stderr, "CORRECTNESS VIOLATION at l=%u\n", sides[g]);
      return 1;
    }
    table.add_row({std::to_string(sides[g]), fmt(total.exact_msgs.mean()),
                   fmt(total.exact_cells.mean()), fmt(total.part_msgs.mean()),
                   fmt(total.part_cells.mean()), fmt(total.results.mean())});
  }
  table.print();
  std::printf(
      "\nExpected shape: under the per-node reply convention, message cost "
      "rises with l (more cells answer) while the visited FRACTION of the "
      "l*l grid falls (pruning sharpens) and per-node storage granularity "
      "improves; the paper's l = 10 balances messaging against per-cell "
      "load concentration.\n");
  return 0;
}
