// query_classes — Pool vs DIM vs GHT message cost per query class.
//
// One deployment per seed, the same workload in every system, then a
// batch of range, skyline and k-NN queries executed through the unified
// DcsSystem::execute() surface. Reports mean messages and storage-node
// visits per class per system, cross-checks every result set against the
// canonical local kernels over the oracle (results_identical), and pins
// the tentpole's pruning claim: Pool's dominance-pruned skyline and
// shell-bounded k-NN must not visit more storage nodes than GHT's flood
// baseline. Writes the `query_classes` bench section
// (BENCH_query_classes.json; scripts/merge_perf_section.py folds it into
// BENCH_perf.json behind scripts/check_perf_regression.py). With the
// default options the output is an exact ledger: ctest's
// query_classes_ledger compares it byte for byte with the committed file.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_support/experiment.h"
#include "bench_support/testbed.h"
#include "cli/args.h"
#include "query/query_gen.h"
#include "sim/stats.h"
#include "storage/query_request.h"

using namespace poolnet;

namespace {

struct ClassStats {
  sim::RunningStat messages;
  sim::RunningStat visits;
  sim::RunningStat results;
};

struct ClassRow {
  ClassStats pool, dim, ght;
  std::size_t mismatches = 0;  ///< result sets differing from the kernel
};

/// The canonical answer: the local kernel over everything the oracle
/// holds (the same reduction every system performs at its sink).
std::vector<storage::Event> reference(const storage::BruteForceStore& oracle,
                                      const storage::QueryRequest& request) {
  std::vector<storage::Event> all = oracle.all();
  switch (request.cls()) {
    case storage::QueryClass::Skyline:
      storage::skyline_filter(request.skyline(), all);
      break;
    case storage::QueryClass::KNearest:
      storage::knn_filter(request.k_nearest(), all);
      break;
    case storage::QueryClass::Aggregate:  // a value, not events
      all.clear();
      break;
    case storage::QueryClass::Range: {
      std::vector<storage::Event> matching;
      for (storage::Event& e : all)
        if (request.range().matches(e)) matching.push_back(std::move(e));
      all = std::move(matching);
      break;
    }
  }
  return all;
}

void record(ClassStats& stats, const storage::QueryReceipt& receipt) {
  stats.messages.add(static_cast<double>(receipt.messages));
  stats.visits.add(static_cast<double>(receipt.index_nodes_visited));
  stats.results.add(static_cast<double>(receipt.events.size()));
}

/// Range results come back in cell/zone visit order (only skyline and
/// k-NN define a canonical order), so compare range sets id-sorted.
bool matches_reference(const storage::QueryRequest& request,
                       std::vector<storage::Event> got,
                       std::vector<storage::Event> want) {
  if (request.cls() == storage::QueryClass::Range) {
    const auto by_id = [](const storage::Event& a, const storage::Event& b) {
      return a.id < b.id;
    };
    std::sort(got.begin(), got.end(), by_id);
    std::sort(want.begin(), want.end(), by_id);
  }
  return got == want;
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser parser("query_classes",
                        "Pool vs DIM vs GHT message cost per query class");
  parser.add_option("nodes", "300", "network size (sensors)");
  parser.add_option("dims", "3", "event dimensionality k");
  parser.add_option("queries", "20", "queries per class per seed");
  parser.add_option("seeds", "2", "deployments to average");
  parser.add_option("seed", "1", "master random seed");
  parser.add_option("json", "BENCH_query_classes.json",
                    "bench section output path");

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
  const auto nodes = parser.int_option("nodes", 10, 100000, &error);
  const auto dims = parser.int_option("dims", 2, 8, &error);
  const auto queries = parser.int_option("queries", 1, 100000, &error);
  const auto seeds = parser.int_option("seeds", 1, 1000, &error);
  const auto seed0 = parser.int_option("seed", 0, INT64_MAX, &error);
  if (!nodes || !dims || !queries || !seeds || !seed0) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  const auto k = static_cast<std::size_t>(*dims);

  benchsup::print_banner(
      "Query classes — range vs skyline vs k-NN",
      "Same workload in Pool, DIM and GHT; every result set checked "
      "against the canonical kernels over the oracle.");

  const std::vector<std::string> kClasses = {"range", "skyline", "knn"};
  std::vector<ClassRow> rows(kClasses.size());

  for (std::int64_t s = 0; s < *seeds; ++s) {
    const auto seed = static_cast<std::uint64_t>(*seed0 + s);
    benchsup::TestbedConfig config;
    config.nodes = static_cast<std::size_t>(*nodes);
    config.dims = k;
    config.seed = seed;
    benchsup::Testbed tb(config);
    tb.insert_workload();

    storage::DcsSystem& ght = tb.deploy(benchsup::SystemKind::Ght);

    Rng sink_rng(seed * 5 + 13);
    for (std::size_t c = 0; c < kClasses.size(); ++c) {
      query::QueryClassMix mix;
      std::string parse_err;
      query::parse_query_class(kClasses[c], &mix, &parse_err);
      query::QueryGenerator gen({.dims = k}, seed * 31 + c);
      for (std::int64_t i = 0; i < *queries; ++i) {
        const storage::QueryRequest request = gen.next(mix);
        const net::NodeId sink = tb.random_node(sink_rng);
        const std::vector<storage::Event> want =
            reference(tb.oracle(), request);

        const storage::QueryReceipt pr = tb.pool().execute(sink, request);
        const storage::QueryReceipt dr = tb.dim().execute(sink, request);
        const storage::QueryReceipt gr = ght.execute(sink, request);
        record(rows[c].pool, pr);
        record(rows[c].dim, dr);
        record(rows[c].ght, gr);
        if (!matches_reference(request, pr.events, want)) ++rows[c].mismatches;
        if (!matches_reference(request, dr.events, want)) ++rows[c].mismatches;
        if (!matches_reference(request, gr.events, want)) ++rows[c].mismatches;
      }
    }
  }

  std::size_t mismatches = 0;
  benchsup::TablePrinter table({"class", "system", "msgs/query", "visits",
                                "results"});
  for (std::size_t c = 0; c < kClasses.size(); ++c) {
    const ClassRow& row = rows[c];
    mismatches += row.mismatches;
    const auto add = [&](const char* name, const ClassStats& st) {
      table.add_row({kClasses[c], name, benchsup::fmt(st.messages.mean()),
                     benchsup::fmt(st.visits.mean()),
                     benchsup::fmt(st.results.mean())});
    };
    add("pool", row.pool);
    add("dim", row.dim);
    add("ght", row.ght);
  }
  table.print();

  const bool identical = mismatches == 0;
  // The pruning claim, per non-range class: Pool's distributed pruning
  // must not visit more storage nodes than the GHT flood baseline.
  const bool skyline_pruned =
      rows[1].pool.visits.mean() <= rows[1].ght.visits.mean();
  const bool knn_pruned =
      rows[2].pool.visits.mean() <= rows[2].ght.visits.mean();
  std::printf(
      "\nresults identical: %s; Pool visits <= flood: skyline %s, knn %s\n",
      identical ? "yes" : "NO", skyline_pruned ? "yes" : "NO",
      knn_pruned ? "yes" : "NO");

  const std::string json_path = parser.option("json");
  if (FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"query_classes\": {\n");
    std::fprintf(f, "    \"nodes\": %lld,\n",
                 static_cast<long long>(*nodes));
    std::fprintf(f, "    \"dims\": %zu,\n", k);
    std::fprintf(f, "    \"queries_per_class\": %lld,\n",
                 static_cast<long long>(*queries * *seeds));
    std::fprintf(f, "    \"results_identical\": %s,\n",
                 identical ? "true" : "false");
    std::fprintf(f, "    \"skyline_pool_visits_leq_flood\": %s,\n",
                 skyline_pruned ? "true" : "false");
    std::fprintf(f, "    \"knn_pool_visits_leq_flood\": %s,\n",
                 knn_pruned ? "true" : "false");
    std::fprintf(f, "    \"classes\": [\n");
    for (std::size_t c = 0; c < kClasses.size(); ++c) {
      const ClassRow& row = rows[c];
      const auto emit = [f](const char* name, const ClassStats& st,
                            const char* tail) {
        std::fprintf(f,
                     "        \"%s\": {\"messages\": %.2f, \"visits\": %.2f, "
                     "\"results\": %.2f}%s\n",
                     name, st.messages.mean(), st.visits.mean(),
                     st.results.mean(), tail);
      };
      std::fprintf(f, "      {\"class\": \"%s\",\n", kClasses[c].c_str());
      emit("pool", row.pool, ",");
      emit("dim", row.dim, ",");
      emit("ght", row.ght, "");
      std::fprintf(f, "      }%s\n", c + 1 < kClasses.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
    return 1;
  }

  if (!identical) {
    std::fprintf(stderr,
                 "query_classes: FAIL — %zu result sets diverged\n",
                 mismatches);
    return 1;
  }
  if (!skyline_pruned || !knn_pruned) {
    std::fprintf(stderr, "query_classes: FAIL — Pool pruning visited more "
                         "nodes than the flood baseline\n");
    return 1;
  }
  std::printf("query_classes: PASS\n");
  return 0;
}
