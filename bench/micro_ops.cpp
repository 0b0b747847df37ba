// Microbenchmarks (google-benchmark) of the per-node primitives.
//
// Theorem 3.1's selling point is that cell location is "simply an
// arithmetic computation" — these benches put numbers on it next to DIM's
// per-event tree walk and to one GPSR routing step.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_support/testbed.h"
#include "common/rng.h"
#include "core/pool_geometry.h"
#include "engine/result_cache.h"
#include "net/spatial_index.h"
#include "query/query_gen.h"
#include "query/workload.h"
#include "storage/column/column_store.h"
#include "storage/query_request.h"

namespace {

using namespace poolnet;

benchsup::Testbed& shared_testbed() {
  static benchsup::Testbed tb = [] {
    benchsup::TestbedConfig config;
    config.nodes = 900;
    config.seed = 1;
    benchsup::Testbed t(config);
    t.insert_workload();
    return t;
  }();
  return tb;
}

void BM_TestbedDeployAll(benchmark::State& state) {
  // Set-up of one 2700-node deployment with all four systems and no data:
  // the topology (spatial index, neighbor rows, planar graph) and each
  // system's ledger, router and index structures.
  benchsup::TestbedConfig config;
  config.nodes = 2700;
  config.events_per_node = 0;
  for (auto _ : state) {
    benchsup::Testbed tb(config);
    for (const benchsup::SystemKind kind : benchsup::kAllSystemKinds)
      benchmark::DoNotOptimize(&tb.deploy(kind));
  }
}
BENCHMARK(BM_TestbedDeployAll)->Unit(benchmark::kMillisecond);

void BM_PoolCellForValues(benchmark::State& state) {
  Rng rng(1);
  double a = rng.uniform(), b = rng.uniform();
  if (a < b) std::swap(a, b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::cell_for_values(a, b, 10));
  }
}
BENCHMARK(BM_PoolCellForValues);

void BM_PoolDerivedRanges(benchmark::State& state) {
  query::QueryGenerator qgen({.dims = 3}, 2);
  const auto q = qgen.exact_range();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::derived_ranges(q, 1));
  }
}
BENCHMARK(BM_PoolDerivedRanges);

void BM_PoolRelevantCells(benchmark::State& state) {
  query::QueryGenerator qgen({.dims = 3}, 3);
  const auto q = qgen.partial_range(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::relevant_cells(q, 0, 10));
  }
}
BENCHMARK(BM_PoolRelevantCells);

void BM_DimLeafForEvent(benchmark::State& state) {
  auto& tb = shared_testbed();
  query::EventGenerator gen({.dims = 3}, 4);
  const auto e = gen.next(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tb.dim().tree().leaf_for_event(e));
  }
}
BENCHMARK(BM_DimLeafForEvent);

void BM_DimLeavesOverlapping(benchmark::State& state) {
  auto& tb = shared_testbed();
  query::QueryGenerator qgen({.dims = 3}, 5);
  const auto q = qgen.partial_range(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tb.dim().tree().leaves_overlapping(q));
  }
}
BENCHMARK(BM_DimLeavesOverlapping);

void BM_GpsrRouteAcrossField(benchmark::State& state) {
  // Cold cross-field routes from one corner to 16 distinct nodes along the
  // far edge, in turn. Gpsr memoizes greedy hops only for a destination
  // that recurs within its last 8 unmemoized routes, so cycling through
  // 16 keeps every iteration a full greedy/perimeter computation.
  auto& tb = shared_testbed();
  const auto& network = tb.pool_network();
  const auto src = network.nearest_node({0, 0});
  std::vector<net::NodeId> dsts;
  for (int i = 0; i <= 64 && dsts.size() < 16; ++i) {
    const auto dst = network.nearest_node(
        {network.field().max_x, network.field().max_y * (1.0 - i / 64.0)});
    if (std::find(dsts.begin(), dsts.end(), dst) == dsts.end())
      dsts.push_back(dst);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tb.pool_gpsr().route_to_node(src, dsts[i++ % dsts.size()]));
  }
}
BENCHMARK(BM_GpsrRouteAcrossField);

void BM_GpsrGreedyRoutes(benchmark::State& state) {
  // Routes between seeded random node pairs, like the inserts' legs to
  // hashed homes. The destinations walk a random permutation of every
  // node, so none recurs within the memo's 8-route window and each greedy
  // hop is a full neighbor scan. `hop_time` is the time per hop.
  auto& tb = shared_testbed();
  const auto n = static_cast<net::NodeId>(tb.pool_network().size());
  Rng rng(31);
  std::vector<net::NodeId> dsts(n);
  for (net::NodeId i = 0; i < n; ++i) dsts[i] = i;
  for (net::NodeId i = n - 1; i > 0; --i)
    std::swap(dsts[i], dsts[static_cast<std::size_t>(rng.uniform_int(0, i))]);
  std::vector<net::NodeId> srcs(n);
  for (auto& src : srcs) src = tb.random_node(rng);
  routing::RouteResult scratch;
  std::size_t i = 0;
  std::size_t hops = 0;
  for (auto _ : state) {
    tb.pool_gpsr().route_to_node_into(srcs[i], dsts[i], scratch);
    hops += scratch.hops();
    i = (i + 1) % n;
    benchmark::DoNotOptimize(scratch.path.data());
  }
  state.counters["hop_time"] = benchmark::Counter(
      static_cast<double>(hops),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_GpsrGreedyRoutes);

void BM_TransmitPath(benchmark::State& state) {
  // The per-hop ledger every routed message pays: one fixed cross-field
  // GPSR path on the paper's largest (2700-node) deployment, charged hop
  // by hop through Network::transmit_path (link check, ARQ, counters,
  // energy). `hop_time` is the time per charged hop.
  static benchsup::Testbed tb = [] {
    benchsup::TestbedConfig config;
    config.nodes = 2700;
    config.seed = 1;
    return benchsup::Testbed(config);
  }();
  net::Network& network = tb.pool_network();
  const auto path =
      tb.pool_gpsr()
          .route_to_node(network.nearest_node({0, 0}),
                         network.nearest_node({network.field().max_x,
                                               network.field().max_y}))
          .path;
  const auto bits = network.sizes().query_bits(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        network.transmit_path(path, net::MessageKind::Query, bits));
  }
  state.counters["hops"] = static_cast<double>(path.size() - 1);
  state.counters["hop_time"] = benchmark::Counter(
      static_cast<double>(path.size() - 1),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_TransmitPath);

void BM_CachedRouteAcrossField(benchmark::State& state) {
  // Same cross-field route through a RouteCache: after the second miss
  // (admission stores a route on its second sighting) every iteration is
  // a hash lookup plus a RouteResult copy. (max_hops = 0
  // stores everything — the default declines long routes, which would
  // leave this bench measuring recomputation.)
  auto& tb = shared_testbed();
  routing::RouteCacheConfig cfg;
  cfg.max_hops = 0;
  const routing::RouteCache cache(tb.pool_gpsr(), cfg);
  const auto src = tb.pool_network().nearest_node({0, 0});
  const auto dst = tb.pool_network().nearest_node(
      {tb.pool_network().field().max_x, tb.pool_network().field().max_y});
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.route_to_node(src, dst));
  }
}
BENCHMARK(BM_CachedRouteAcrossField);

void BM_CachedRouteIntoScratch(benchmark::State& state) {
  // The scratch-handle form of the same cached route: after the second
  // miss every iteration is a hash lookup plus a capacity-reusing
  // copy-assign into the warm out-parameter — no allocation at all. The
  // argument is the byte budget (0 = unbounded): a budgeted hit takes the
  // same flat path and also sets the route's clock reference bit.
  auto& tb = shared_testbed();
  routing::RouteCacheConfig cfg;
  cfg.max_hops = 0;
  cfg.max_bytes = static_cast<std::size_t>(state.range(0));
  const routing::RouteCache cache(tb.pool_gpsr(), cfg);
  const auto src = tb.pool_network().nearest_node({0, 0});
  const auto dst = tb.pool_network().nearest_node(
      {tb.pool_network().field().max_x, tb.pool_network().field().max_y});
  routing::RouteResult scratch;
  for (auto _ : state) {
    cache.route_to_node_into(src, dst, scratch);
    benchmark::DoNotOptimize(scratch.path.data());
  }
}
BENCHMARK(BM_CachedRouteIntoScratch)->Arg(0)->Arg(1 << 20);

void BM_WithinScanReturning(benchmark::State& state) {
  // Radius scan materializing a fresh result vector per call.
  auto& net = shared_testbed().pool_network();
  const Point center{net.field().width() / 2, net.field().height() / 2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.nodes_within(center, 80.0));
  }
}
BENCHMARK(BM_WithinScanReturning);

void BM_WithinScanIntoScratch(benchmark::State& state) {
  // The out-parameter form over the same index: the scratch vector's
  // capacity survives across calls, so a warm scan never allocates.
  auto& net = shared_testbed().pool_network();
  std::vector<Point> points;
  for (net::NodeId n = 0; n < net.size(); ++n)
    points.push_back(net.position(n));
  net::SpatialIndex index(points, net.field(), 40.0);
  const Point center{net.field().width() / 2, net.field().height() / 2};
  std::vector<std::size_t> scratch;
  for (auto _ : state) {
    index.within(center, 80.0, scratch, /*sorted=*/false);
    benchmark::DoNotOptimize(scratch.data());
  }
}
BENCHMARK(BM_WithinScanIntoScratch);

void BM_PoolInsert(benchmark::State& state) {
  benchsup::TestbedConfig config;
  config.nodes = 300;
  config.seed = 7;
  benchsup::Testbed tb(config);
  query::EventGenerator gen({.dims = 3}, 8);
  for (auto _ : state) {
    const auto e = gen.next(0);
    benchmark::DoNotOptimize(tb.pool().insert(0, e));
  }
}
BENCHMARK(BM_PoolInsert);

void BM_PoolQueryExact(benchmark::State& state) {
  auto& tb = shared_testbed();
  query::QueryGenerator qgen(
      {.dims = 3, .dist = query::RangeSizeDistribution::Exponential,
       .exp_mean = 0.1},
      9);
  for (auto _ : state) {
    const auto q = qgen.exact_range();
    benchmark::DoNotOptimize(tb.pool().execute(0, q));
  }
}
BENCHMARK(BM_PoolQueryExact);

void BM_DimQueryExact(benchmark::State& state) {
  auto& tb = shared_testbed();
  query::QueryGenerator qgen(
      {.dims = 3, .dist = query::RangeSizeDistribution::Exponential,
       .exp_mean = 0.1},
      9);
  for (auto _ : state) {
    const auto q = qgen.exact_range();
    benchmark::DoNotOptimize(tb.dim().execute(0, q));
  }
}
BENCHMARK(BM_DimQueryExact);

/// The skyline on each of the 7 nonempty masks over 3 attributes, in turn.
storage::SkylineQuery rotating_skyline(unsigned& mask) {
  mask = mask % 7 + 1;
  FixedVec<bool, storage::kMaxDims> attrs;
  for (std::size_t d = 0; d < 3; ++d) attrs.push_back((mask >> d) & 1u);
  return storage::SkylineQuery(3, attrs);
}

void BM_PoolSkyline(benchmark::State& state) {
  // One skyline walk from sink 0: the mask's visit order, the pruned cell
  // visits and their replies.
  auto& tb = shared_testbed();
  unsigned mask = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(tb.pool().execute(0, rotating_skyline(mask)));
}
BENCHMARK(BM_PoolSkyline);

void BM_DimSkyline(benchmark::State& state) {
  auto& tb = shared_testbed();
  unsigned mask = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(tb.dim().execute(0, rotating_skyline(mask)));
}
BENCHMARK(BM_DimSkyline);

void BM_ResultCacheInvalidate(benchmark::State& state) {
  // One engine insert's cache work at store_churn's steady state: 530
  // cached 3-D exponential-size rectangles stabbed by a uniform point.
  // Whatever an insert erases is replaced by as many fresh rectangles,
  // so the cache stays at 530 entries. A fixed iteration count keeps the
  // call sequence, and so the entry mix, the same in every run.
  constexpr std::size_t kEntries = 530;
  engine::ResultCache cache({.enabled = true});
  query::QueryGenerator qgen(
      {.dims = 3, .dist = query::RangeSizeDistribution::Exponential}, 11);
  query::EventGenerator points({.dims = 3}, 12);
  while (cache.size() < kEntries) cache.store(qgen.exact_range(), {}, 0);
  std::size_t erased = 0;
  for (auto _ : state) {
    const std::size_t n = cache.invalidate_containing(points.next(0).values);
    for (std::size_t i = 0; i < n; ++i) cache.store(qgen.exact_range(), {}, 0);
    erased += n;
  }
  state.counters["erased_per_insert"] = benchmark::Counter(
      static_cast<double>(erased), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ResultCacheInvalidate)->Iterations(200000);

// ----------------------------------------------------------- scan section
//
// The columnar scan-kernel arms (DESIGN.md §14): filter a 1M-event store
// at ~1%/10%/50% nominal selectivity through three implementations —
//
//   aos     the pre-PR path: std::vector<Event> + RangeQuery::matches
//   soa     the branch-free column kernel with zone maps disabled
//   kernel  the production path: zone-map veto + column kernel
//
// Values follow a smooth per-dimension random walk, the sensor-stream
// shape (consecutive readings correlate), so blocks are value-clustered
// and zone maps have something to veto. All three arms must produce the
// identical match list; the best-of-N wall times feed the `scan` section
// that scripts/merge_perf_section.py folds into BENCH_perf.json and
// scripts/check_perf_regression.py gates (kernel >= 2x aos at 1%).

void append_json_arm(std::string& out, double selectivity,
                     std::size_t matched, double aos_ms, double soa_ms,
                     double kernel_ms, std::uint64_t blocks_skipped,
                     std::uint64_t blocks_total, bool identical) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "    {\"selectivity\": %.2f, \"matched\": %zu, \"aos_ms\": %.3f, "
      "\"soa_ms\": %.3f, \"kernel_ms\": %.3f, \"speedup_soa\": %.3f, "
      "\"speedup_kernel\": %.3f, \"blocks_skipped\": %llu, "
      "\"blocks_total\": %llu, \"results_identical\": %s}",
      selectivity, matched, aos_ms, soa_ms, kernel_ms, aos_ms / soa_ms,
      aos_ms / kernel_ms, static_cast<unsigned long long>(blocks_skipped),
      static_cast<unsigned long long>(blocks_total),
      identical ? "true" : "false");
  out += buf;
}

int run_scan_section(const char* path) {
  constexpr std::size_t kEvents = 1'000'000;
  constexpr std::size_t kDims = 3;
  constexpr int kReps = 5;
  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };

  // Smooth random-walk workload: each attribute drifts by at most 2% per
  // event, reflecting off the domain walls.
  std::printf("micro_ops: generating %zu clustered events...\n", kEvents);
  Rng rng(4242);
  std::vector<storage::Event> aos;
  aos.reserve(kEvents);
  storage::column::ColumnStore soa(kDims);
  double walk[kDims] = {0.3, 0.5, 0.7};
  for (std::size_t i = 0; i < kEvents; ++i) {
    storage::Event e;
    e.id = i;
    e.source = static_cast<net::NodeId>(i % 997);
    e.detected_at = static_cast<double>(i);
    for (double& w : walk) {
      w += rng.uniform(-0.02, 0.02);
      if (w < 0.0) w = -w;
      if (w > 1.0) w = 2.0 - w;
      e.values.push_back(w);
    }
    aos.push_back(e);
    soa.append(e);
  }

  std::string arms_json;
  double speedup_1pct = 0.0;
  bool all_identical = true;
  const double selectivities[] = {0.01, 0.10, 0.50};
  for (const double sel : selectivities) {
    // A box of volume `sel` centered mid-domain, clamped to [0,1].
    const double width = std::pow(sel, 1.0 / kDims);
    storage::RangeQuery::Bounds bounds;
    for (std::size_t d = 0; d < kDims; ++d) {
      const double lo = std::max(0.0, 0.5 - width / 2);
      bounds.push_back({lo, std::min(1.0, lo + width)});
    }
    const storage::RangeQuery q(bounds);

    std::vector<std::uint64_t> aos_ids, soa_ids, kernel_ids;
    double aos_ms = 1e300, soa_ms = 1e300, kernel_ms = 1e300;
    storage::column::ScanStats stats;
    soa.set_stats(&stats);
    for (int rep = 0; rep < kReps; ++rep) {
      aos_ids.clear();
      auto t0 = Clock::now();
      for (const auto& e : aos) {
        if (q.matches(e)) aos_ids.push_back(e.id);
      }
      aos_ms = std::min(aos_ms, ms_since(t0));

      soa_ids.clear();
      t0 = Clock::now();
      soa.scan(
          q, false, [&](std::size_t row) { soa_ids.push_back(soa.id_at(row)); },
          /*use_zone_maps=*/false);
      soa_ms = std::min(soa_ms, ms_since(t0));

      kernel_ids.clear();
      stats = {};
      t0 = Clock::now();
      soa.scan(q, false, [&](std::size_t row) {
        kernel_ids.push_back(soa.id_at(row));
      });
      kernel_ms = std::min(kernel_ms, ms_since(t0));
    }
    soa.set_stats(nullptr);

    const bool identical = aos_ids == soa_ids && aos_ids == kernel_ids;
    all_identical = all_identical && identical;
    if (sel == 0.01) speedup_1pct = aos_ms / kernel_ms;
    const auto blocks_total = static_cast<std::uint64_t>(
        (kEvents + storage::column::kBlockRows - 1) /
        storage::column::kBlockRows);
    if (!arms_json.empty()) arms_json += ",\n";
    append_json_arm(arms_json, sel, aos_ids.size(), aos_ms, soa_ms, kernel_ms,
                    stats.blocks_skipped, blocks_total, identical);
    std::printf(
        "micro_ops: sel %.0f%% -> %zu matched; aos %.2f ms, soa %.2f ms, "
        "kernel %.2f ms (%.1fx), %llu/%llu blocks skipped%s\n",
        sel * 100, aos_ids.size(), aos_ms, soa_ms, kernel_ms,
        aos_ms / kernel_ms,
        static_cast<unsigned long long>(stats.blocks_skipped),
        static_cast<unsigned long long>(blocks_total),
        identical ? "" : "  [MISMATCH]");
  }

  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path);
    return 1;
  }
  std::fprintf(f,
               "{\n  \"scan\": {\n  \"events\": %zu,\n  \"dims\": %zu,\n"
               "  \"arms\": [\n%s\n  ],\n  \"speedup_1pct\": %.3f,\n"
               "  \"results_identical\": %s\n}\n}\n",
               kEvents, kDims, arms_json.c_str(), speedup_1pct,
               all_identical ? "true" : "false");
  std::fclose(f);
  std::printf("micro_ops: wrote %s\n", path);
  return all_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // `--scan-json PATH` runs the scan-kernel section instead of the
  // google-benchmark suite (bench_smoke.sh's BENCH_scan.json producer).
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scan-json") == 0 && i + 1 < argc)
      return run_scan_section(argv[i + 1]);
    if (std::strncmp(argv[i], "--scan-json=", 12) == 0)
      return run_scan_section(argv[i] + 12);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
