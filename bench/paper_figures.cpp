// paper_figures [--threads N] [--route-cache on|off|lru:<bytes>] [--json F]
//
// Every figure and ablation of EXPERIMENTS.md as a table spec: its group
// axis (one table row and one ledger row per group), its seeds, a
// per-(group, seed) job that deploys a Testbed and returns integer Sums,
// and a formatter. main() runs every job of every figure on one
// parallel_map, merges each group's seeds in submission order, exits 1 on
// any oracle mismatch, prints the tables, writes the ledger to F and exits
// 1 if a DESIGN.md §6 shape fails on the full-scale data. The ledger holds
// per-seed integer sums only, so every compiler and sanitizer writes the
// same bytes; float columns (energy, Gini, recall) are printed only.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_support/experiment.h"
#include "bench_support/parallel.h"
#include "cli/args.h"
#include "cli/runner.h"
#include "common/error.h"
#include "obs/report.h"
#include "query/query_gen.h"

using namespace poolnet;
using namespace poolnet::benchsup;

namespace {

/// One job's output: integer sums in ledger order, plus the float-only
/// columns that the tables print and the ledger leaves out.
struct Sums {
  std::vector<std::pair<std::string, std::uint64_t>> ints;
  std::map<std::string, double> reals;

  /// Adds `v` to `key`, appending the key on first use.
  void add(const std::string& key, std::uint64_t v) {
    for (auto& [k, total] : ints) {
      if (k == key) {
        total += v;
        return;
      }
    }
    ints.emplace_back(key, v);
  }
  std::uint64_t get(const std::string& key) const {
    for (const auto& [k, v] : ints)
      if (k == key) return v;
    throw ConfigError("paper_figures: no sum named '" + key + "'");
  }
};

/// One table group: its label and its seeds' Sums in submission order.
struct Group {
  std::string label;
  std::vector<Sums> seeds;

  std::uint64_t sum(const std::string& key) const {
    std::uint64_t total = 0;
    for (const Sums& s : seeds) total += s.get(key);
    return total;
  }
  double real(const std::string& key) const {
    double total = 0;
    for (const Sums& s : seeds) total += s.reals.at(key);
    return total;
  }
  /// `key` per query of the batch recorded under `prefix`.
  double mean(const std::string& key, const std::string& prefix = "") const {
    return static_cast<double>(sum(prefix + key)) /
           static_cast<double>(sum(prefix + "queries"));
  }
  /// Mean over seeds of each seed's own key/per ratio.
  double seed_mean(const std::string& key, const std::string& per) const {
    double total = 0;
    for (const Sums& s : seeds) {
      total +=
          static_cast<double>(s.get(key)) / static_cast<double>(s.get(per));
    }
    return total / static_cast<double>(seeds.size());
  }
  /// DIM/Pool message ratio of the batch under `prefix`.
  double ratio(const std::string& prefix = "") const {
    return mean("dim.messages", prefix) / mean("pool.messages", prefix);
  }
};

struct Figure {
  std::string id;  ///< table and ledger key
  std::string title, settings;
  std::vector<std::string> groups;  ///< group labels, ledger row keys
  std::vector<std::uint64_t> seeds;
  std::function<Sums(std::size_t group, std::uint64_t seed)> job;
  std::vector<std::string> headers;
  std::function<void(std::size_t group, const Group&, TablePrinter&)> format;
};

struct Options {
  std::size_t threads = 0;
  routing::RouteCacheConfig route_cache;
  std::string json;
};

Options parse_options(int argc, char** argv) {
  cli::ArgParser parser(argv[0], "every paper figure and ablation, one ledger");
  parser.add_option("threads", "0", "worker threads (0 = all cores)");
  parser.add_option("route-cache", "on",
                    "Pool's route cache: on, off or lru:<bytes> "
                    "(byte-bounded)");
  parser.add_option("json", "", "write the integer ledger to this path");
  Options opts;
  std::string error;
  std::optional<std::int64_t> threads;
  const bool ok = parser.parse(argc, argv, &error) &&
                  (threads = parser.int_option("threads", 0, 1024, &error)) &&
                  parse_route_cache_spec(parser.option("route-cache"),
                                         &opts.route_cache, &error);
  if (parser.help_requested() || !ok) {
    if (!ok) std::fprintf(stderr, "%s: %s\n\n", argv[0], error.c_str());
    std::fputs(parser.help().c_str(), ok ? stdout : stderr);
    std::exit(ok ? 0 : 2);
  }
  opts.threads = *threads > 0 ? static_cast<std::size_t>(*threads)
                              : default_threads();
  opts.json = parser.option("json");
  return opts;
}

template <typename T, typename Label>
std::vector<std::string> labels(const std::vector<T>& axis, Label label) {
  std::vector<std::string> out;
  for (const T& v : axis) out.push_back(label(v));
  return out;
}

std::string str(std::uint64_t v) { return std::to_string(v); }

/// The paper's 900-node deployment at `seed`.
TestbedConfig testbed(std::uint64_t seed, const routing::RouteCacheConfig& rc) {
  TestbedConfig config;
  config.seed = seed;
  config.route_cache = rc;
  return config;
}

/// Records a paired batch under `prefix`: queries, then per system the
/// message, visit and result sums, then the oracle mismatches.
void put_paired(Sums& s, const std::string& prefix, const PairedRun& run) {
  s.add(prefix + "queries", run.queries);
  for (const auto& [name, stats] :
       {std::pair{"pool.", &run.pool}, std::pair{"dim.", &run.dim}}) {
    const std::string p = prefix + name;
    s.add(p + "messages", stats->messages.sum);
    s.add(p + "query_messages", stats->query_messages.sum);
    s.add(p + "reply_messages", stats->reply_messages.sum);
    s.add(p + "visits", stats->index_nodes.sum);
    s.add(p + "results", stats->results.sum);
    s.reals[p + "energy_mj"] = stats->energy_mj.sum();
  }
  s.add(prefix + "mismatches", run.pool_mismatches + run.dim_mismatches);
}

using Draw =
    std::function<storage::RangeQuery(query::QueryGenerator&, std::size_t)>;

/// A Pool-vs-DIM sweep over one knob. Group g deploys a testbed that
/// `tweak` (if any) sets to keys[g], seeds one generator with seed*qgen_mul +
/// keys[g], and runs `queries` queries of each draw in turn, the i-th
/// from sink seed seed*sink_mul + sink_add + i, under the draw's prefix.
struct Sweep {
  std::vector<std::size_t> keys;
  std::function<void(TestbedConfig&, query::QueryGenConfig&, std::size_t)>
      tweak;
  std::uint64_t qgen_mul = 0, sink_mul = 0, sink_add = 0;
  std::size_t queries = 0;
  std::vector<std::pair<std::string, Draw>> draws;
  routing::RouteCacheConfig route_cache;

  Sums operator()(std::size_t g, std::uint64_t seed) const {
    TestbedConfig config = testbed(seed, route_cache);
    query::QueryGenConfig qcfg;
    if (tweak) tweak(config, qcfg, keys[g]);
    Testbed tb(config);
    tb.insert_workload();
    query::QueryGenerator qgen(qcfg, seed * qgen_mul + keys[g]);
    Sums s;
    for (std::size_t i = 0; i < draws.size(); ++i) {
      const Draw& draw = draws[i].second;
      const auto batch =
          generate_queries(queries, [&] { return draw(qgen, keys[g]); });
      put_paired(s, draws[i].first,
                 run_paired_queries(tb, batch,
                                    seed * sink_mul + sink_add + i));
    }
    return s;
  }
};

const Draw exact = [](query::QueryGenerator& q, std::size_t) {
  return q.exact_range();
};

void exponential(query::QueryGenConfig& q) {
  q.dist = query::RangeSizeDistribution::Exponential;
  q.exp_mean = 0.1;
}

/// A Pool-vs-DIM row: the label, Pool, DIM, DIM/Pool, `extra` cells and
/// results per query.
auto paired_row(std::function<std::vector<std::string>(const Group&)> extra) {
  return [extra](std::size_t, const Group& r, TablePrinter& t) {
    std::vector<std::string> cells = {r.label, fmt(r.mean("pool.messages")),
                                      fmt(r.mean("dim.messages")),
                                      fmt(r.ratio(), 2)};
    for (const std::string& c : extra(r)) cells.push_back(c);
    cells.push_back(fmt(r.mean("pool.results")));
    t.add_row(std::move(cells));
  };
}

/// Figs 6(a)/6(b): exact match versus network size.
Figure exact_vs_size(std::string id, std::string title, std::string settings,
                     bool uniform, std::uint64_t qgen_mul,
                     std::uint64_t sink_mul, std::uint64_t sink_add,
                     const routing::RouteCacheConfig& rc) {
  std::vector<std::size_t> sizes;
  for (std::size_t nodes = 300; nodes <= 2700; nodes += 300)
    sizes.push_back(nodes);
  const auto tweak = [uniform](TestbedConfig& c, query::QueryGenConfig& q,
                               std::size_t nodes) {
    c.nodes = nodes;
    if (!uniform) exponential(q);
  };
  return {std::move(id), std::move(title), std::move(settings),
          labels(sizes, str), {1, 2, 3},
          Sweep{sizes, tweak, qgen_mul, sink_mul, sink_add, 60,
                {{"", exact}}, rc},
          {"nodes", "Pool msgs", "DIM msgs", "DIM/Pool", "Pool cells",
           "DIM zones", "results/query"},
          paired_row([](const Group& r) {
            return std::vector<std::string>{fmt(r.mean("pool.visits")),
                                            fmt(r.mean("dim.visits"))};
          })};
}

/// The knob ablations' row: the label, exact Pool and DIM [and their
/// ratio], then 1-partial Pool, DIM and ratio.
std::vector<std::string> exact_and_partial(const Group& r, bool exact_ratio) {
  std::vector<std::string> cells = {r.label,
                                    fmt(r.mean("pool.messages", "exact.")),
                                    fmt(r.mean("dim.messages", "exact."))};
  if (exact_ratio) cells.push_back(fmt(r.ratio("exact."), 2));
  cells.push_back(fmt(r.mean("pool.messages", "partial.")));
  cells.push_back(fmt(r.mean("dim.messages", "partial.")));
  cells.push_back(fmt(r.ratio("partial."), 2));
  return cells;
}

std::vector<Figure> make_figures(const routing::RouteCacheConfig& rc) {
  std::vector<Figure> figs;
  figs.push_back(exact_vs_size(
      "fig6a_exact_uniform", "Figure 6(a) — exact match, uniform range sizes",
      "Mean messages per 3-d exact-match range query; range sizes ~ U[0,1]; "
      "3 events/node; radio 40 m; alpha=5, l=10.",
      true, 101, 7, 1, rc));
  figs.push_back(exact_vs_size(
      "fig6b_exact_exponential",
      "Figure 6(b) — exact match, exponential range sizes",
      "As Fig 6(a), but range sizes ~ Exp(0.1) truncated to [0,1].",
      false, 131, 11, 3, rc));

  figs.push_back(
      {"fig7a_partial_count",
       "Figure 7(a) — partial match, number of unspecified dims",
       "Mean messages per 3-d m-partial range query at 900 nodes; specified "
       "dims sized U[0, 0.25]; uniform events.",
       {"1-partial", "2-partial"}, {1, 2, 3, 4, 5},
       Sweep{{1, 2}, nullptr, 17, 19, 5, 80,
             {{"", [](query::QueryGenerator& q, std::size_t m) {
                 return q.partial_range(m);
               }}},
             rc},
       {"m-partial", "Pool msgs", "DIM msgs", "DIM/Pool", "DIM overhead",
        "results/query"},
       paired_row([](const Group& r) {
         return std::vector<std::string>{
             "+" + fmt((r.ratio() - 1.0) * 100.0, 0) + "%"};
       })});

  figs.push_back(
      {"fig7b_partial_position", "Figure 7(b) — 1@n-partial match position",
       "Mean messages per 3-d 1@n-partial range query at 900 nodes; n picks "
       "the unspecified dimension (paper's 1@1..1@3).",
       {"1@1-partial", "1@2-partial", "1@3-partial"}, {1, 2, 3, 4, 5},
       Sweep{{0, 1, 2}, nullptr, 23, 29, 7, 80,
             {{"", [](query::QueryGenerator& q, std::size_t n) {
                 return q.partial_at(n);
               }}},
             rc},
       {"position", "Pool msgs", "DIM msgs", "DIM/Pool", "results/query"},
       paired_row([](const Group&) { return std::vector<std::string>{}; })});

  const std::vector<std::size_t> insert_sizes = {300, 900, 1500, 2100, 2700};
  figs.push_back(
      {"insertion_cost", "Insertion cost (Section 5.2 claim)",
       "Mean per-hop messages to insert one 3-d event; 3 events per node; "
       "uniform values; both systems use GPSR unicast.",
       labels(insert_sizes, str), {1, 2, 3},
       [insert_sizes, rc](std::size_t g, std::uint64_t seed) {
         TestbedConfig config = testbed(seed, rc);
         config.nodes = insert_sizes[g];
         Testbed tb(config);
         Sums s;
         s.add("events", tb.insert_workload());
         s.add("pool.insert_messages", tb.pool_insert_traffic().total);
         s.add("dim.insert_messages", tb.dim_insert_traffic().total);
         s.reals["pool.insert_energy_j"] = tb.pool_insert_traffic().energy_j;
         s.reals["dim.insert_energy_j"] = tb.dim_insert_traffic().energy_j;
         return s;
       },
       {"nodes", "Pool msgs/event", "DIM msgs/event", "Pool/DIM",
        "Pool energy (mJ/event)", "DIM energy (mJ/event)"},
       [](std::size_t, const Group& r, TablePrinter& t) {
         const double n = static_cast<double>(r.sum("events"));
         const double pool = static_cast<double>(r.sum("pool.insert_messages"));
         const double dim = static_cast<double>(r.sum("dim.insert_messages"));
         t.add_row({r.label, fmt(pool / n, 2), fmt(dim / n, 2),
                    fmt(pool / dim, 2),
                    fmt(r.real("pool.insert_energy_j") / n * 1e3, 3),
                    fmt(r.real("dim.insert_energy_j") / n * 1e3, 3)});
       }});

  // Section 4.2: a Gaussian burst hammers a few cells of one pool;
  // delegation bounds the hottest node's resident load.
  const std::vector<std::uint32_t> thresholds = {0, 32, 64, 128};
  figs.push_back(
      {"hotspot_sharing", "Hotspot workload sharing (Section 4.2)",
       "900 nodes; 80% of events Gaussian(0.85, 0.03) on every attribute; "
       "Pool with and without workload sharing.",
       {"sharing off", "sharing on (T=32)", "sharing on (T=64)",
        "sharing on (T=128)"},
       {1, 2, 3},
       [thresholds, rc](std::size_t g, std::uint64_t seed) {
         TestbedConfig config = testbed(seed, rc);
         config.workload = {.dist = query::ValueDistribution::Hotspot,
                            .center = 0.85, .spread = 0.03,
                            .hotspot_fraction = 0.8};
         config.pool.workload_sharing = thresholds[g] != 0;
         config.pool.share_threshold = thresholds[g];
         Testbed tb(config);
         tb.insert_workload();
         std::vector<std::uint64_t> loads;
         for (const auto& node : tb.pool_network().nodes())
           loads.push_back(node.stored_events);
         const obs::LoadReport load = obs::load_report(loads);
         Sums s;
         s.add("max_load", load.max_load);
         s.add("p99_load", static_cast<std::uint64_t>(load.p99_load));
         s.add("insert_messages", tb.pool_insert_traffic().total);
         s.reals["gini"] = load.gini;
         // Queries over the hot region, where delegation is exercised.
         std::vector<storage::RangeQuery> queries;
         Rng rng(seed * 5 + 2);
         for (int i = 0; i < 40; ++i) {
           const double lo = rng.uniform(0.7, 0.9);
           const double hi = std::min(1.0, lo + 0.1);
           queries.push_back(storage::RangeQuery({{lo, hi}, {lo, hi}, {0, 1}}));
         }
         put_paired(s, "", run_paired_queries(tb, queries, seed * 7 + 3));
         return s;
       },
       {"configuration", "max node load", "p99 load", "gini", "insert msgs",
        "hot-query msgs", "exact results"},
       [](std::size_t, const Group& r, TablePrinter& t) {
         std::uint64_t max_load = 0;
         for (const Sums& s : r.seeds)
           max_load = std::max(max_load, s.get("max_load"));
         const auto n = static_cast<double>(r.seeds.size());
         t.add_row({r.label, str(max_load),
                    fmt(static_cast<double>(r.sum("p99_load")) / n),
                    fmt(r.real("gini") / n, 3),
                    str(r.sum("insert_messages") / r.seeds.size()),
                    fmt(r.seed_mean("pool.messages", "queries")),
                    r.sum("mismatches") == 0 ? "yes" : "NO"});
       }});

  // Pool side length l: fewer, coarser cells versus sharper pruning.
  const std::vector<std::uint32_t> sides = {4, 6, 8, 10, 12, 16, 20};
  figs.push_back(
      {"ablation_pool_side", "Ablation — pool side length l",
       "900 nodes; 3-d queries (exact uniform-size and 1-partial); Pool "
       "message cost and pruning as l varies.",
       labels(sides, str), {1, 2, 3},
       [sides, rc](std::size_t g, std::uint64_t seed) {
         TestbedConfig config = testbed(seed, rc);
         config.pool.side = sides[g];
         Testbed tb(config);
         tb.insert_workload();
         query::QueryGenerator qgen({}, seed * 41 + sides[g]);
         Rng sink_rng(seed * 43 + sides[g]);
         Sums s;
         for (int q = 0; q < 60; ++q) {
           const auto qe = qgen.exact_range();
           const auto sink = tb.random_node(sink_rng);
           const auto re = tb.pool().execute(sink, qe);
           s.add("queries", 1);
           s.add("exact.messages", re.messages);
           s.add("exact.visits", re.index_nodes_visited);
           s.add("results", re.events.size());
           s.add("mismatches",
                 re.events.size() != tb.oracle().matching(qe).size());
           const auto rp = tb.pool().execute(sink, qgen.partial_range(1));
           s.add("partial.messages", rp.messages);
           s.add("partial.visits", rp.index_nodes_visited);
         }
         return s;
       },
       {"l", "exact msgs", "exact cells", "1-partial msgs", "1-partial cells",
        "exact results"},
       [](std::size_t, const Group& r, TablePrinter& t) {
         t.add_row({r.label, fmt(r.mean("exact.messages")),
                    fmt(r.mean("exact.visits")),
                    fmt(r.mean("partial.messages")),
                    fmt(r.mean("partial.visits")), fmt(r.mean("results"))});
       }});

  // Knob ablations: one exact and one 1-partial batch per (knob, seed),
  // both from a single generator stream.
  const std::vector<std::pair<std::string, Draw>> both = {
      {"exact.", exact},
      {"partial.", [](query::QueryGenerator& q, std::size_t) {
         return q.partial_range(1);
       }}};
  const std::vector<std::size_t> all_dims = {2, 3, 4, 5, 6};
  figs.push_back(
      {"ablation_dims", "Ablation — event dimensionality k",
       "900 nodes; exact (exp sizes) and 1-partial queries; both systems as "
       "k varies (paper: k=3 only).",
       labels(all_dims, str), {1, 2, 3},
       Sweep{all_dims,
             [](TestbedConfig& c, query::QueryGenConfig& q, std::size_t k) {
               c.dims = q.dims = k;
               exponential(q);
             },
             47, 3, 11, 50, both, rc},
       {"k", "exact Pool", "exact DIM", "1-part Pool", "1-part DIM",
        "1-part DIM/Pool"},
       [](std::size_t, const Group& r, TablePrinter& t) {
         t.add_row(exact_and_partial(r, false));
       }});

  // pack = 0 is the default "one reply per answering node" convention.
  const std::vector<std::size_t> packs = {0, 1, 2, 4, 8, 16};
  figs.push_back(
      {"ablation_reply_packing",
       "Ablation — reply packing (events per reply message)",
       "900 nodes; exact uniform-size and 1-partial queries; the DIM/Pool "
       "ratio under different packing factors.",
       {"inf", "1", "2", "4", "8", "16"}, {1, 2, 3},
       Sweep{packs,
             [](TestbedConfig& c, query::QueryGenConfig&, std::size_t pack) {
               c.sizes.events_per_message = static_cast<std::uint32_t>(pack);
             },
             53, 5, 21, 50, both, rc},
       {"pack", "exact Pool", "exact DIM", "exact ratio", "1-part Pool",
        "1-part DIM", "1-part ratio"},
       [](std::size_t, const Group& r, TablePrinter& t) {
         t.add_row(exact_and_partial(r, true));
       }});

  const std::vector<std::size_t> loss_pct = {0, 10, 20, 30, 50};
  figs.push_back(
      {"ablation_link_loss", "Ablation — per-hop link loss",
       "900 nodes; exact (exp sizes) and 1-partial queries; frame loss "
       "probability swept; ARQ retransmissions charged.",
       labels(loss_pct, str), {1, 2, 3},
       Sweep{loss_pct,
             [](TestbedConfig& c, query::QueryGenConfig& q, std::size_t pct) {
               c.loss.loss_probability = static_cast<double>(pct) / 100;
               exponential(q);
             },
             59, 7, 31, 50, both, rc},
       {"loss %", "exact Pool", "exact DIM", "1-part Pool", "1-part DIM",
        "1-part DIM/Pool", "energy Pool (mJ)"},
       [](std::size_t, const Group& r, TablePrinter& t) {
         auto cells = exact_and_partial(r, false);
         cells.push_back(fmt(r.real("partial.pool.energy_mj") /
                                 static_cast<double>(r.sum("partial.queries")),
                             2));
         t.add_row(std::move(cells));
       }});

  // The introduction's taxonomy on one deployment: GHT (exact-match
  // points only; ranges flood), DIM (k-d zones) and Pool.
  const std::vector<std::pair<std::string, std::string>> classes = {
      {"point", "exact point (stored value)"},
      {"range", "exact range (exp sizes)"},
      {"partial", "1-partial range"},
      {"average", "AVG aggregate over range"}};
  figs.push_back(
      {"dcs_point_vs_range", "DCS generations — GHT vs DIM vs Pool",
       "900 nodes; point, range, partial and aggregate queries; mean "
       "messages per query (GHT floods non-point queries).",
       {"900"}, {3},
       [rc](std::size_t, std::uint64_t seed) {
         Testbed tb(testbed(seed, rc));
         tb.insert_workload();
         const std::pair<std::string, storage::DcsSystem*> systems[] = {
             {"pool", &tb.pool()}, {"dim", &tb.dim()},
             {"ght", &tb.deploy(SystemKind::Ght)}};
         query::QueryGenConfig qcfg;
         exponential(qcfg);
         query::QueryGenerator qgen(qcfg, 17);
         Rng sink_rng(19), pick_rng(23);
         const auto& stored = tb.oracle().all();
         constexpr int kQueries = 40;
         Sums s;
         s.add("queries", kQueries);
         // A range must return the oracle's `want` events; an aggregate
         // (no `want`) must count what Pool counts.
         const auto run = [&](const std::string& cls, net::NodeId sink,
                              const storage::QueryRequest& request,
                              std::optional<std::uint64_t> want) {
           const bool aggregate = !want;
           for (const auto& [name, system] : systems) {
             const auto r = system->execute(sink, request);
             s.add(cls + "." + name + ".messages", r.messages);
             const std::uint64_t got =
                 aggregate ? r.aggregate.count : r.events.size();
             if (!want) want = got;
             s.add(cls + ".mismatches", got != *want);
           }
         };
         for (int i = 0; i < kQueries; ++i) {
           const auto sink = tb.random_node(sink_rng);
           // Point queries target stored events so every system finds them.
           const auto& target = stored[static_cast<std::size_t>(
               pick_rng.uniform_int(
                   0, static_cast<std::int64_t>(stored.size()) - 1))];
           storage::RangeQuery::Bounds point;
           for (const double v : target.values) point.push_back({v, v});
           const storage::RangeQuery point_q(point);
           const storage::RangeQuery range_q = qgen.exact_range();
           const storage::RangeQuery partial_q = qgen.partial_range(1);
           for (const auto& [cls, q] : {std::pair{"point", &point_q},
                                        std::pair{"range", &range_q},
                                        std::pair{"partial", &partial_q}})
             run(cls, sink, *q, tb.oracle().matching(*q).size());
           run("average", sink,
               storage::AggregateQuery{range_q,
                                       storage::AggregateKind::Average, 0},
               std::nullopt);
         }
         return s;
       },
       {"query class", "Pool msgs", "DIM msgs", "GHT msgs", "GHT/Pool",
        "all exact"},
       [classes](std::size_t, const Group& r, TablePrinter& t) {
         for (const auto& [cls, label] : classes) {
           const double pool = r.mean(cls + ".pool.messages");
           const double ght = r.mean(cls + ".ght.messages");
           t.add_row({label, fmt(pool), fmt(r.mean(cls + ".dim.messages")),
                      fmt(ght), fmt(ght / pool, 1),
                      r.sum(cls + ".mismatches") == 0 ? "yes" : "NO"});
         }
       }});

  // Replication survivability (extension, cf. paper ref [7]). Static:
  // what data a failure would destroy, with no protocol run.
  const std::vector<double> fail_fracs = {0.05, 0.10, 0.20};
  struct Cut {
    std::uint32_t replicas;
    double fail_frac;
    std::vector<SystemKind> systems;  ///< online table only
  };
  const auto cut_label = [](const Cut& c) {
    return fmt(c.fail_frac * 100, 0) + "%, " + str(c.replicas) + " replicas";
  };
  std::vector<Cut> cuts;
  for (const std::uint32_t replicas : {0u, 1u, 2u})
    for (const double frac : fail_fracs) cuts.push_back({replicas, frac, {}});
  figs.push_back(
      {"replication_survivability",
       "Replication survivability (extension, cf. paper ref [7])",
       "900 nodes; uniform workload; random node failures; events lost / "
       "recovered by rotated-pool mirrors.",
       labels(cuts, cut_label), {1, 2, 3},
       [cuts, rc](std::size_t g, std::uint64_t seed) {
         TestbedConfig config = testbed(seed, rc);
         config.pool.replicas = cuts[g].replicas;
         Testbed tb(config);
         Sums s;
         s.add("events", tb.insert_workload());
         s.add("insert_messages", tb.pool_insert_traffic().total);
         Rng rng(seed * 77 + cuts[g].replicas);
         std::vector<net::NodeId> dead;
         const auto want =
             static_cast<std::size_t>(cuts[g].fail_frac * config.nodes);
         while (dead.size() < want) {
           const auto n = static_cast<net::NodeId>(rng.uniform_int(
               0, static_cast<std::int64_t>(config.nodes) - 1));
           if (std::find(dead.begin(), dead.end(), n) == dead.end())
             dead.push_back(n);
         }
         const auto report = tb.pool().survivability(dead);
         s.add("primaries_lost", report.primaries_lost);
         s.add("recovered", report.recovered);
         s.add("lost", report.lost);
         s.add("total", report.total_events);
         return s;
       },
       {"replicas", "fail %", "insert msgs/event", "primaries lost",
        "recovered", "lost", "lost %"},
       [cuts](std::size_t g, const Group& r, TablePrinter& t) {
         t.add_row({str(cuts[g].replicas), fmt(cuts[g].fail_frac * 100, 0),
                    fmt(r.seed_mean("insert_messages", "events"), 2),
                    str(r.sum("primaries_lost")), str(r.sum("recovered")),
                    str(r.sum("lost")),
                    fmt(100.0 * static_cast<double>(r.sum("lost")) /
                            static_cast<double>(r.sum("total")),
                        2)});
       }});

  // Online: the same fractions killed live at the query-phase midpoint,
  // and the recall the ack/retry + failover machinery actually delivers.
  // Each cut runs Pool, DIM and GHT bare, then Pool with one mirror.
  std::vector<Cut> live;
  for (const double frac : fail_fracs) {
    live.push_back(
        {0, frac, {SystemKind::Pool, SystemKind::Dim, SystemKind::Ght}});
    live.push_back({1, frac, {SystemKind::Pool}});
  }
  figs.push_back(
      {"replication_online", "Online survivability",
       "5% / 10% / 20% of nodes killed at the query-phase midpoint; recall = "
       "answered / oracle events.",
       labels(live, cut_label), {1},
       [live, rc](std::size_t g, std::uint64_t seed) {
         cli::CliConfig config;
         config.systems = live[g].systems;
         config.nodes = 300;
         config.events_per_node = 5;
         config.queries = 60;
         config.flavor = cli::QueryFlavor::OnePartial;
         config.seed = seed;
         config.deployments = 2;
         config.pool.replicas = live[g].replicas;
         config.route_cache = rc;
         std::string err;
         if (!sim::parse_fault_spec(
                 "kill:" + std::to_string(live[g].fail_frac) + "@30",
                 &config.faults, &err))
           throw ConfigError("online survivability: " + err);
         std::ostringstream discard;  // the CLI's own table
         Sums s;
         for (const cli::CliResult& r : cli::run_experiment(config, discard)) {
           const std::string p = std::string(to_string(r.system)) + ".";
           s.add(p + "retries", r.retries);
           s.add(p + "failovers", r.failovers);
           s.add(p + "events_lost", r.events_lost);
           s.reals[p + "recall"] = r.recall;
         }
         return s;
       },
       {"killed %", "system", "replicas", "recall", "retries", "failovers",
        "events lost"},
       [live](std::size_t g, const Group& r, TablePrinter& t) {
         for (const SystemKind kind : live[g].systems) {
           const std::string p = std::string(to_string(kind)) + ".";
           t.add_row({fmt(live[g].fail_frac * 100, 0), to_string(kind),
                      str(live[g].replicas), fmt(r.real(p + "recall"), 3),
                      str(r.sum(p + "retries")), str(r.sum(p + "failovers")),
                      str(r.sum(p + "events_lost"))});
         }
       }});
  return figs;
}

/// The DESIGN.md §6 shape criteria on the full-scale groups of each
/// figure (by id). Returns one line per failed criterion.
std::vector<std::string> shape_failures(
    const std::map<std::string, std::vector<Group>>& by_id) {
  std::vector<std::string> out;
  const auto expect = [&out](bool ok, const std::string& what) {
    if (!ok) out.push_back(what);
  };
  const auto msgs = [&by_id](const std::string& fig, std::size_t g,
                             const std::string& sys) {
    return by_id.at(fig)[g].mean(sys + ".messages");
  };
  const std::string f6a = "fig6a_exact_uniform";
  const std::string f6b = "fig6b_exact_exponential";
  const std::string f7a = "fig7a_partial_count", f7b = "fig7b_partial_position";
  const std::size_t last = by_id.at(f6a).size() - 1;
  for (const std::string& f : {f6a, f6b}) {
    expect(msgs(f, last, "dim") / msgs(f, 0, "dim") >
               msgs(f, last, "pool") / msgs(f, 0, "pool"),
           f + ": DIM's 2700/300 growth exceeds Pool's");
  }
  for (const std::string sys : {"pool", "dim"}) {
    for (std::size_t g = 0; g <= last; ++g) {
      expect(msgs(f6a, g, sys) > msgs(f6b, g, sys),
             "fig6: uniform costs " + sys + " more than exponential at " +
                 by_id.at(f6a)[g].label);
    }
    expect(msgs(f7a, 1, sys) > msgs(f7a, 0, sys),
           f7a + ": " + sys + " costs more at 2-partial");
  }
  expect(by_id.at(f7a)[1].ratio() > by_id.at(f7a)[0].ratio(),
         f7a + ": DIM/Pool widens from 1-partial to 2-partial");

  std::vector<double> pool;
  for (std::size_t g = 0; g < by_id.at(f7b).size(); ++g) {
    pool.push_back(msgs(f7b, g, "pool"));
    const std::string at = " at " + by_id.at(f7b)[g].label;
    expect(pool[g] < msgs(f7b, g, "dim"), f7b + ": Pool beats DIM" + at);
    if (g > 0) {
      expect(msgs(f7b, g, "dim") < msgs(f7b, g - 1, "dim"),
             f7b + ": DIM strictly decreases" + at);
    }
  }
  const auto [lo, hi] = std::minmax_element(pool.begin(), pool.end());
  expect(*hi / *lo <= 1.05, f7b + ": Pool's max/min across positions <= 1.05");

  for (const Group& g : by_id.at("insertion_cost")) {
    const double r = static_cast<double>(g.sum("pool.insert_messages")) /
                     static_cast<double>(g.sum("dim.insert_messages"));
    expect(r >= 0.8 && r <= 1.2,
           "insertion_cost: Pool/DIM within [0.8, 1.2] at " + g.label);
  }
  return out;
}

/// One job: a seed of one group of one figure.
struct Task {
  const Figure* fig;
  std::size_t group;
  std::uint64_t seed;
  /// "figure/group/seed", the ledger key.
  std::string key() const {
    return fig->id + "/" + fig->groups[group] + "/" + str(seed);
  }
};

/// {"figure/group/seed": {sum: value, ...}, ...}, integers only.
void write_ledger(const std::string& path, const std::vector<Task>& tasks,
                  const std::vector<Sums>& sums) {
  std::ofstream out(path);
  out << "{\n";
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    out << "  \"" << tasks[i].key() << "\": {";
    for (std::size_t k = 0; k < sums[i].ints.size(); ++k) {
      out << (k ? ", \"" : "\"") << sums[i].ints[k].first
          << "\": " << sums[i].ints[k].second;
    }
    out << (i + 1 < tasks.size() ? "},\n" : "}\n");
  }
  out << "}\n";
  if (!out) throw ConfigError("paper_figures: cannot write " + path);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_options(argc, argv);
  const std::vector<Figure> figs = make_figures(opts.route_cache);
  std::vector<Task> tasks;
  for (const Figure& f : figs)
    for (std::size_t g = 0; g < f.groups.size(); ++g)
      for (const std::uint64_t seed : f.seeds)
        tasks.push_back({&f, g, seed});
  const auto sums =
      parallel_map<Sums>(tasks.size(), opts.threads, [&](std::size_t i) {
        return tasks[i].fig->job(tasks[i].group, tasks[i].seed);
      });

  for (std::size_t i = 0; i < tasks.size(); ++i) {
    for (const auto& [key, v] : sums[i].ints) {
      if (v != 0 && key.ends_with("mismatches")) {
        std::fprintf(stderr, "CORRECTNESS VIOLATION at %s (%s)\n",
                     tasks[i].key().c_str(), key.c_str());
        return 1;
      }
    }
  }

  std::map<std::string, std::vector<Group>> by_id;
  for (const Figure& f : figs)
    for (const std::string& label : f.groups)
      by_id[f.id].push_back({label, {}});
  for (std::size_t i = 0; i < tasks.size(); ++i)
    by_id[tasks[i].fig->id][tasks[i].group].seeds.push_back(sums[i]);
  for (const Figure& f : figs) {
    print_banner(f.title, f.settings);
    TablePrinter table(f.headers);
    for (std::size_t g = 0; g < f.groups.size(); ++g)
      f.format(g, by_id[f.id][g], table);
    table.print();
  }

  if (!opts.json.empty()) write_ledger(opts.json, tasks, sums);
  const auto failures = shape_failures(by_id);
  for (const auto& what : failures)
    std::fprintf(stderr, "SHAPE VIOLATION: %s\n", what.c_str());
  return failures.empty() ? 0 : 1;
}
