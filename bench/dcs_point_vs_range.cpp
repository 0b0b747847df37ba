// The introduction's taxonomy, quantified: three DCS generations on one
// deployment. GHT (exact-match point queries only; ranges flood), DIM
// (multi-d ranges via k-d zones), Pool (this paper). One table per query
// class, plus aggregates.
#include <cstdio>

#include "bench_support/experiment.h"
#include "bench_support/parallel.h"
#include "query/query_gen.h"

using namespace poolnet;
using namespace poolnet::benchsup;

int main(int argc, char** argv) {
  // Single-deployment serial comparison: --threads is accepted for CLI
  // uniformity but there is nothing to parallelize here.
  const BenchOptions opts = parse_bench_options(argc, argv);
  print_banner("DCS generations — GHT vs DIM vs Pool",
               "900 nodes; point, range, partial and aggregate queries; "
               "mean messages per query (GHT floods non-point queries).");

  TestbedConfig config;
  config.nodes = 900;
  config.seed = 3;
  config.route_cache = opts.route_cache;
  Testbed tb(config);
  tb.insert_workload();

  storage::DcsSystem& ght = tb.deploy(SystemKind::Ght);

  query::QueryGenerator qgen(
      {.dims = 3, .dist = query::RangeSizeDistribution::Exponential,
       .exp_mean = 0.1},
      17);
  Rng sink_rng(19);
  Rng pick_rng(23);
  const auto& stored = tb.oracle().all();

  struct Row {
    const char* flavor;
    sim::RunningStat pool, dim, ght_cost;
    bool exact = true;
  };
  std::vector<Row> rows(4);
  rows[0].flavor = "exact point (stored value)";
  rows[1].flavor = "exact range (exp sizes)";
  rows[2].flavor = "1-partial range";
  rows[3].flavor = "AVG aggregate over range";

  constexpr int kQueries = 40;
  for (int i = 0; i < kQueries; ++i) {
    const auto sink = tb.random_node(sink_rng);

    // Point queries target stored events so every system returns them.
    const auto& target = stored[static_cast<std::size_t>(pick_rng.uniform_int(
        0, static_cast<std::int64_t>(stored.size()) - 1))];
    storage::RangeQuery::Bounds pb;
    for (std::size_t d = 0; d < 3; ++d)
      pb.push_back({target.values[d], target.values[d]});
    const storage::RangeQuery point_q(pb);
    const storage::RangeQuery range_q = qgen.exact_range();
    const storage::RangeQuery partial_q = qgen.partial_range(1);

    const auto run_all = [&](Row& row, const storage::RangeQuery& q) {
      const auto want = tb.oracle().matching(q).size();
      const auto pr = tb.pool().execute(sink, q);
      const auto dr = tb.dim().execute(sink, q);
      const auto gr = ght.execute(sink, q);
      row.pool.add(static_cast<double>(pr.messages));
      row.dim.add(static_cast<double>(dr.messages));
      row.ght_cost.add(static_cast<double>(gr.messages));
      if (pr.events.size() != want || dr.events.size() != want ||
          gr.events.size() != want)
        row.exact = false;
    };
    run_all(rows[0], point_q);
    run_all(rows[1], range_q);
    run_all(rows[2], partial_q);

    const storage::AggregateQuery average{
        range_q, storage::AggregateKind::Average, 0};
    const auto pa = tb.pool().execute(sink, average);
    const auto da = tb.dim().execute(sink, average);
    const auto ga = ght.execute(sink, average);
    rows[3].pool.add(static_cast<double>(pa.messages));
    rows[3].dim.add(static_cast<double>(da.messages));
    rows[3].ght_cost.add(static_cast<double>(ga.messages));
    if (pa.aggregate.count != da.aggregate.count ||
        pa.aggregate.count != ga.aggregate.count)
      rows[3].exact = false;
  }

  TablePrinter table({"query class", "Pool msgs", "DIM msgs", "GHT msgs",
                      "GHT/Pool", "all exact"});
  for (const auto& row : rows) {
    table.add_row({row.flavor, fmt(row.pool.mean()), fmt(row.dim.mean()),
                   fmt(row.ght_cost.mean()),
                   fmt(row.ght_cost.mean() / row.pool.mean(), 1),
                   row.exact ? "yes" : "NO"});
  }
  table.print();
  std::printf(
      "\nExpected shape: GHT is competitive only on exact-match point\n"
      "queries; any range or aggregate forces it to flood all 900 nodes.\n"
      "DIM handles ranges but trails Pool, especially on partial match.\n");
  return 0;
}
