// Performance smoke test: a downsized Figure 6(a) sweep run four ways —
// every combination of {serial, parallel} × {cache off, cache on} — so the
// reported speedups compare like for like: speedup_cache flips ONLY the
// cache (both arms serial), speedup_parallel flips ONLY the thread count
// (both arms uncached), and the headline speedup is the combined
// configuration against the plain serial baseline. All four arms must
// produce IDENTICAL message statistics. Emits BENCH_perf.json for CI
// trend tracking (scripts/check_perf_regression.py gates on it).
//
// --scale additionally runs the deployment-scaling tier: Pool-only
// testbeds at 1k/10k/100k nodes measuring sustained insert throughput
// (events/sec) and peak RSS, proving the pooled/SoA hot paths hold up at
// two orders of magnitude beyond the paper's 2700-node ceiling.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "bench_support/experiment.h"
#include "bench_support/parallel.h"
#include "bench_support/telemetry_bridge.h"
#include "core/pool_system.h"
#include "engine/query_engine.h"
#include "net/deployment.h"
#include "obs/telemetry.h"
#include "query/query_gen.h"
#include "query/workload.h"
#include "routing/gpsr.h"
#include "routing/route_cache.h"
#include "storage/brute_force_store.h"
#include "storage/paged/paged_store.h"

using namespace poolnet;
using namespace poolnet::benchsup;

namespace {

constexpr int kSeeds = 2;
constexpr int kQueriesPerSeed = 30;
const std::vector<std::size_t> kSizes = {300, 600, 900};

struct SweepOutcome {
  std::vector<PairedRun> totals;
  double wall_ms = 0;
  double pool_hit_rate = 0;  ///< mean over testbeds; 0 when cache off
};

struct SeedRun {
  PairedRun run;
  routing::RouteCacheStats pool_cache;
};

SweepOutcome run_sweep(std::size_t threads,
                       const routing::RouteCacheConfig& route_cache) {
  struct Job {
    std::size_t group;
    std::size_t nodes;
    int seed;
  };
  std::vector<Job> grid;
  for (std::size_t g = 0; g < kSizes.size(); ++g)
    for (int seed = 1; seed <= kSeeds; ++seed)
      grid.push_back({g, kSizes[g], seed});

  const auto start = std::chrono::steady_clock::now();
  const auto runs = parallel_map<SeedRun>(
      grid.size(), threads, [&grid, &route_cache](std::size_t i) {
        const Job& j = grid[i];
        TestbedConfig config;
        config.nodes = j.nodes;
        config.seed = static_cast<std::uint64_t>(j.seed);
        config.route_cache = route_cache;
        Testbed tb(config);
        tb.insert_workload();
        query::QueryGenerator qgen(
            {.dims = 3, .dist = query::RangeSizeDistribution::Uniform},
            static_cast<std::uint64_t>(j.seed) * 101 + j.nodes);
        const auto queries = generate_queries(
            kQueriesPerSeed, [&] { return qgen.exact_range(); });
        SeedRun out;
        out.run = run_paired_queries(tb, queries, j.seed * 7 + 1);
        if (const auto* c = tb.route_cache(SystemKind::Pool))
          out.pool_cache = c->stats();
        return out;
      });
  const auto end = std::chrono::steady_clock::now();

  SweepOutcome out;
  out.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  out.totals.resize(kSizes.size());
  double pool_hits = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    merge_into(out.totals[grid[i].group], runs[i].run);
    pool_hits += runs[i].pool_cache.hit_rate();
  }
  out.pool_hit_rate = pool_hits / static_cast<double>(grid.size());
  return out;
}

/// Deployment-scaling tier (--scale): a Pool-ONLY testbed — one network,
/// one GPSR, a pooled route cache — inserting one event per node. No DIM
/// twin, no oracle: at 100k nodes those would triple the footprint
/// without adding information about the hot paths under test.
struct ScaleTier {
  std::size_t nodes = 0;
  double build_ms = 0;
  double insert_ms = 0;
  double events_per_sec = 0;
  std::uint64_t insert_messages = 0;
  long peak_rss_kb = 0;  ///< this tier's own footprint (see run_forked)
  bool ok = false;
};

long peak_rss_kb_now() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
    return static_cast<long>(ru.ru_maxrss / 1024);  // bytes on macOS
#else
    return ru.ru_maxrss;  // kilobytes on Linux
#endif
  }
#endif
  return 0;
}

/// Current (not peak) resident size, for the pre-tier baseline snapshot.
/// Falls back to the peak where /proc is unavailable.
long current_rss_kb() {
#if defined(__linux__)
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    long size = 0, resident = 0;
    const int n = std::fscanf(f, "%ld %ld", &size, &resident);
    std::fclose(f);
    if (n == 2)
      return resident * static_cast<long>(sysconf(_SC_PAGESIZE) / 1024);
  }
#endif
  return peak_rss_kb_now();
}

/// Runs `fn` in a forked child and ships its trivially-copyable result
/// back over a pipe. ru_maxrss is a PROCESS-WIDE high-water mark, so
/// measuring successive tiers in one process lets every tier inherit its
/// predecessors' footprint — the accounting bug this bench shipped with.
/// A fresh child starts from a clean baseline; each tier additionally
/// subtracts the RSS it inherited across fork (COW pages of the parent),
/// so peak_rss_kb is that tier's own allocations. Falls back to in-process
/// execution (still baseline-corrected, but peaks no longer isolate)
/// where fork is unavailable.
template <typename T, typename Fn>
T run_forked(Fn&& fn) {
  static_assert(std::is_trivially_copyable_v<T>,
                "forked results cross a pipe as raw bytes");
#if defined(__unix__) || defined(__APPLE__)
  int fds[2];
  if (pipe(fds) != 0) return fn();
  std::fflush(nullptr);  // don't let the child replay buffered output
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return fn();
  }
  if (pid == 0) {
    close(fds[0]);
    const T result = fn();
    const auto* p = reinterpret_cast<const unsigned char*>(&result);
    std::size_t off = 0;
    while (off < sizeof(T)) {
      const ssize_t n = write(fds[1], p + off, sizeof(T) - off);
      if (n <= 0) _exit(3);
      off += static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  T result{};
  auto* p = reinterpret_cast<unsigned char*>(&result);
  std::size_t off = 0;
  while (off < sizeof(T)) {
    const ssize_t n = read(fds[0], p + off, sizeof(T) - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (off != sizeof(T) || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    return T{};  // default ok=false marks the tier failed
  return result;
#else
  return fn();
#endif
}

ScaleTier run_scale_tier(std::size_t nodes) {
  ScaleTier out;
  out.nodes = nodes;
  const long rss_baseline = current_rss_kb();
  const double radio = 40.0;
  const double side = net::field_side_for_density(nodes, radio, 20.0);
  const Rect field{0.0, 0.0, side, side};

  const auto t0 = std::chrono::steady_clock::now();
  Rng master(1);
  std::unique_ptr<net::Network> network;
  for (int attempt = 0; attempt < 64 && !network; ++attempt) {
    Rng deploy = master.split();
    const auto positions = net::deploy_uniform(nodes, field, deploy);
    auto candidate = std::make_unique<net::Network>(
        positions, field, radio, net::MessageSizes{}, sim::EnergyModel{},
        net::LinkLossModel{}, 7);
    if (candidate->is_connected()) network = std::move(candidate);
  }
  if (!network) return out;  // ok stays false

  routing::Gpsr gpsr(*network);
  core::PoolConfig pool_config;
  routing::RouteCache cache(gpsr, {}, nullptr, "scale.route_cache");
  core::PoolSystem pool(*network, cache, 3, pool_config);
  const auto t1 = std::chrono::steady_clock::now();

  query::WorkloadConfig wc;
  wc.dims = 3;
  query::EventGenerator gen(wc, 99);
  network->reset_traffic();
  std::size_t inserted = 0;
  for (net::NodeId n = 0; n < network->size(); ++n) {
    pool.insert(n, gen.next(n));
    ++inserted;
  }
  const auto t2 = std::chrono::steady_clock::now();

  out.build_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.insert_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
  out.events_per_sec =
      out.insert_ms > 0
          ? static_cast<double>(inserted) / (out.insert_ms / 1000.0)
          : 0;
  out.insert_messages = network->traffic().total;
  out.peak_rss_kb = std::max(0L, peak_rss_kb_now() - rss_baseline);
  out.ok = true;
  return out;
}

/// Store-scale churn arm (--scale): insert+expire churn from 100k event
/// sources through a central store — the flat in-memory vector vs the
/// paged out-of-core store with a buffer pool a small fraction of the
/// working set. Pure storage, no network: the question is whether the
/// pager holds a bounded footprint at flat-store-like throughput while
/// answering queries identically.
struct StoreChurn {
  double churn_ms = 0;   ///< inserts + periodic expiry, wall
  double query_ms = 0;   ///< the 32-query probe, wall
  double events_per_sec = 0;
  long peak_rss_kb = 0;  ///< churn-phase footprint (forked + baselined,
                         ///< captured before the probe materializes results)
  std::uint64_t inserted = 0;
  std::uint64_t expired = 0;
  std::uint64_t live = 0;          ///< stored_count() after churn
  std::uint64_t query_results = 0;
  std::uint64_t query_checksum = 0;  ///< Σ event ids over probe results
  double pager_hit_rate = 0;         ///< paged arm only
  std::uint64_t pager_evictions = 0;
  std::uint64_t file_pages = 0;
  bool conservation_ok = false;  ///< inserted == live + expired
  bool ok = false;
};

constexpr std::size_t kChurnSources = 100'000;
constexpr std::uint64_t kChurnInserts = 2'400'000;
constexpr std::uint64_t kChurnExpireEvery = 400'000;
constexpr std::uint64_t kChurnKeepLive = 800'000;
constexpr int kChurnQueries = 32;

StoreChurn run_store_churn(bool paged) {
  StoreChurn out;
  const long rss_baseline = current_rss_kb();

  std::unique_ptr<storage::DcsSystem> store;
  storage::PagedStore* pager = nullptr;
  if (paged) {
    storage::PagedStoreOptions po;
    po.pool_pages = 1024;  // 4 MB pool vs a ~50 MB working set
    po.page_bytes = 4096;
    po.backing = storage::PagedStoreOptions::Backing::File;
    auto p = std::make_unique<storage::PagedStore>(3, po);
    pager = p.get();
    store = std::move(p);
  } else {
    store = std::make_unique<storage::BruteForceStore>(3);
  }

  query::WorkloadConfig wc;
  wc.dims = 3;
  query::EventGenerator gen(wc, 4242);

  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kChurnInserts; ++i) {
    storage::Event e = gen.next(static_cast<net::NodeId>(i % kChurnSources));
    e.detected_at = static_cast<double>(i);
    store->insert(e.source, e);
    ++out.inserted;
    if ((i + 1) % kChurnExpireEvery == 0 && i + 1 > kChurnKeepLive) {
      out.expired +=
          store->expire_before(static_cast<double>(i + 1 - kChurnKeepLive));
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  // Capture RSS here: the bound under test is the insert+expire churn
  // footprint (flat's live vector vs the pager's fixed pool). The probe
  // below materializes result vectors of up to `live` events — tens of
  // MB that both arms pay identically and that says nothing about the
  // store's resident state.
  out.peak_rss_kb = std::max(0L, peak_rss_kb_now() - rss_baseline);

  // Identical probe queries in both arms (same generator, same seed):
  // the id checksum must agree bit-for-bit between flat and paged.
  query::QueryGenerator qgen(
      {.dims = 3, .dist = query::RangeSizeDistribution::Uniform}, 777);
  for (int q = 0; q < kChurnQueries; ++q) {
    const auto receipt = store->execute(0, qgen.exact_range());
    out.query_results += receipt.events.size();
    for (const auto& e : receipt.events) out.query_checksum += e.id;
  }
  const auto t2 = std::chrono::steady_clock::now();

  out.churn_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.query_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
  out.events_per_sec =
      out.churn_ms > 0
          ? static_cast<double>(out.inserted) / (out.churn_ms / 1000.0)
          : 0;
  out.live = store->stored_count();
  out.conservation_ok = out.inserted == out.live + out.expired;
  if (pager != nullptr) {
    const storage::PagerStats ps = pager->pager_stats();
    out.pager_hit_rate = ps.hit_rate();
    out.pager_evictions = ps.evictions;
    out.file_pages = pager->page_count();
  }
  out.ok = true;
  return out;
}

/// Query-engine probe for the CI trend file: one 300-node testbed serves
/// a 32-query half-overlapping workload three ways — serial, batched by
/// 16, and serial-with-cache replayed twice (so every repeat hits).
struct EngineProbe {
  std::uint64_t serial_messages = 0;
  std::uint64_t batched_messages = 0;
  double message_savings = 0;  ///< fraction of serial traffic avoided
  double dedup_ratio = 1;
  double cache_hit_rate = 0;
};

EngineProbe run_engine_probe() {
  TestbedConfig config;
  config.nodes = 300;
  config.seed = 1;
  Testbed tb(config);
  tb.insert_workload();
  Rng sink_rng(17);
  const net::NodeId sink = tb.random_node(sink_rng);

  query::QueryGenerator qgen(
      {.dims = 3, .dist = query::RangeSizeDistribution::Exponential}, 57);
  std::vector<storage::RangeQuery> templates;
  for (int i = 0; i < 4; ++i) templates.push_back(qgen.exact_range());
  Rng pick(23);
  std::vector<storage::RangeQuery> queries;
  for (int i = 0; i < 32; ++i) {
    const auto fresh = qgen.exact_range();
    const auto slot = static_cast<std::size_t>(pick.uniform_int(0, 3));
    queries.push_back(pick.uniform() < 0.5 ? templates[slot] : fresh);
  }

  EngineProbe out;
  {
    engine::QueryEngine serial(tb.pool(), {});
    for (const auto& q : queries) serial.take(serial.submit(sink, q));
    out.serial_messages = serial.stats().messages;
  }
  {
    engine::QueryEngineConfig cfg;
    cfg.batch_size = 16;
    cfg.batch_deadline = std::uint64_t{1} << 40;
    engine::QueryEngine batched(tb.pool(), cfg);
    std::vector<engine::QueryEngine::Ticket> tickets;
    for (const auto& q : queries) tickets.push_back(batched.submit(sink, q));
    batched.flush();
    for (const auto t : tickets) batched.take(t);
    out.batched_messages = batched.stats().messages;
    out.dedup_ratio = batched.stats().overall_dedup_ratio();
  }
  if (out.serial_messages > 0) {
    out.message_savings =
        1.0 - static_cast<double>(out.batched_messages) /
                  static_cast<double>(out.serial_messages);
  }
  {
    engine::QueryEngineConfig cfg;
    cfg.cache.enabled = true;
    engine::QueryEngine cached(tb.pool(), cfg);
    for (int round = 0; round < 2; ++round)
      for (const auto& q : queries) cached.take(cached.submit(sink, q));
    out.cache_hit_rate = cached.cache_stats().hit_rate();
  }
  return out;
}

/// Fig-6(b)-style hotspot probe for the CI trend file: one testbed under
/// exponential event values, scraped through the telemetry bridge. The
/// paper's imbalance claim — DIM concentrates storage on few zone owners
/// while Pool stays flat — shows up as DIM index-node Gini and max load
/// both above Pool's.
struct HotspotProbe {
  double pool_gini = 0, dim_gini = 0;          ///< over index nodes
  double pool_max_load = 0, dim_max_load = 0;
  double pool_energy_j = 0, dim_energy_j = 0;
  std::uint64_t pool_net_messages = 0, dim_net_messages = 0;
  obs::Snapshot snap;
};

HotspotProbe run_hotspot_probe() {
  TestbedConfig config;
  config.nodes = 300;
  config.seed = 5;
  config.workload.dist = query::ValueDistribution::Exponential;
  Testbed tb(config);
  tb.insert_workload();

  HotspotProbe out;
  out.snap = scrape_testbed(tb);
  // insert_workload() captures and then clears the traffic ledgers, so
  // fold the captured insert tallies back into the snapshot.
  out.snap.counters["pool.net.messages"] += tb.pool_insert_traffic().total;
  out.snap.counters["dim.net.messages"] += tb.dim_insert_traffic().total;
  out.snap.gauges["pool.net.energy_j"] += tb.pool_insert_traffic().energy_j;
  out.snap.gauges["dim.net.energy_j"] += tb.dim_insert_traffic().energy_j;
  out.pool_gini = out.snap.gauges["pool.storage.load.gini_loaded"];
  out.dim_gini = out.snap.gauges["dim.storage.load.gini_loaded"];
  out.pool_max_load = out.snap.gauges["pool.storage.load.max"];
  out.dim_max_load = out.snap.gauges["dim.storage.load.max"];
  out.pool_energy_j = out.snap.gauges["pool.net.energy_j"];
  out.dim_energy_j = out.snap.gauges["dim.net.energy_j"];
  out.pool_net_messages = out.snap.counters["pool.net.messages"];
  out.dim_net_messages = out.snap.counters["dim.net.messages"];
  return out;
}

bool stats_equal(const PairedRun& a, const PairedRun& b) {
  const auto same = [](const SystemQueryStats& x, const SystemQueryStats& y) {
    return x.messages.mean() == y.messages.mean() &&
           x.messages.count() == y.messages.count() &&
           x.query_messages.mean() == y.query_messages.mean() &&
           x.reply_messages.mean() == y.reply_messages.mean() &&
           x.index_nodes.mean() == y.index_nodes.mean() &&
           x.results.mean() == y.results.mean();
  };
  return same(a.pool, b.pool) && same(a.dim, b.dim) &&
         a.queries == b.queries && a.pool_mismatches == b.pool_mismatches &&
         a.dim_mismatches == b.dim_mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off --scale before the shared option table sees it (it is
  // specific to this bench).
  bool want_scale = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--scale") {
      want_scale = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  const BenchOptions opts =
      parse_bench_options(static_cast<int>(args.size()), args.data());
  print_banner("Performance smoke — {serial,parallel} x {cache off,on}",
               "Downsized Fig-6(a) sweep (300..900 nodes, 2 seeds); message "
               "stats must be identical across all four configurations.");

  routing::RouteCacheConfig off;
  off.enabled = false;
  routing::RouteCacheConfig on = opts.route_cache;
  on.enabled = true;

  const auto serial_uncached = run_sweep(1, off);
  const auto serial_cached = run_sweep(1, on);
  const auto parallel_uncached = run_sweep(opts.threads, off);
  const auto parallel_cached = run_sweep(opts.threads, on);

  bool identical = true;
  for (std::size_t g = 0; g < kSizes.size(); ++g) {
    if (!stats_equal(serial_uncached.totals[g], serial_cached.totals[g]) ||
        !stats_equal(serial_uncached.totals[g], parallel_uncached.totals[g]) ||
        !stats_equal(serial_uncached.totals[g], parallel_cached.totals[g])) {
      identical = false;
    }
  }

  const auto ratio = [](double base, double arm) {
    return arm > 0 ? base / arm : 0;
  };
  const double speedup_cache =
      ratio(serial_uncached.wall_ms, serial_cached.wall_ms);
  const double speedup_parallel =
      ratio(serial_uncached.wall_ms, parallel_uncached.wall_ms);
  const double speedup =
      ratio(serial_uncached.wall_ms, parallel_cached.wall_ms);

  TablePrinter table({"configuration", "wall ms", "Pool hit rate"});
  const std::string xt = "x" + std::to_string(opts.threads);
  table.add_row({"serial, cache off", fmt(serial_uncached.wall_ms, 1), "-"});
  table.add_row({"serial, cache on", fmt(serial_cached.wall_ms, 1),
                 fmt(serial_cached.pool_hit_rate, 3)});
  table.add_row({"parallel " + xt + ", cache off",
                 fmt(parallel_uncached.wall_ms, 1), "-"});
  table.add_row({"parallel " + xt + ", cache on",
                 fmt(parallel_cached.wall_ms, 1),
                 fmt(parallel_cached.pool_hit_rate, 3)});
  table.print();
  std::printf(
      "\nspeedup: cache %.2fx, parallel %.2fx (%zu threads), combined "
      "%.2fx; stats identical: %s\n",
      speedup_cache, speedup_parallel, opts.threads, speedup,
      identical ? "yes" : "NO");

  std::vector<ScaleTier> tiers;
  StoreChurn churn_flat, churn_paged;
  if (want_scale) {
    std::printf("\nscale tier (Pool-only, 1 event/node, forked per tier):\n");
    TablePrinter scale_table(
        {"nodes", "build ms", "insert ms", "events/sec", "tier RSS MB"});
    for (const std::size_t n : {std::size_t{1000}, std::size_t{10000},
                                std::size_t{100000}}) {
      // Each tier runs in its own forked child so peak_rss_kb is that
      // tier's footprint, not the process high-water across all tiers.
      const ScaleTier tier =
          run_forked<ScaleTier>([n] { return run_scale_tier(n); });
      if (!tier.ok) {
        std::printf("  %zu nodes: no connected deployment drawn, skipped\n",
                    n);
        continue;
      }
      scale_table.add_row({std::to_string(tier.nodes), fmt(tier.build_ms, 0),
                           fmt(tier.insert_ms, 0),
                           fmt(tier.events_per_sec, 0),
                           fmt(tier.peak_rss_kb / 1024.0, 1)});
      tiers.push_back(tier);
    }
    scale_table.print();

    std::printf(
        "\nstore churn (%zu sources, %llu inserts, %llu live, forked "
        "per arm):\n",
        kChurnSources, static_cast<unsigned long long>(kChurnInserts),
        static_cast<unsigned long long>(kChurnKeepLive));
    churn_flat = run_forked<StoreChurn>([] { return run_store_churn(false); });
    churn_paged = run_forked<StoreChurn>([] { return run_store_churn(true); });
    TablePrinter churn_table({"store", "churn ms", "query ms", "events/sec",
                              "arm RSS MB", "hit rate", "conserved"});
    const auto churn_row = [&](const char* name, const StoreChurn& c) {
      churn_table.add_row(
          {name, fmt(c.churn_ms, 0), fmt(c.query_ms, 0),
           fmt(c.events_per_sec, 0), fmt(c.peak_rss_kb / 1024.0, 1),
           c.pager_evictions > 0 ? fmt(c.pager_hit_rate, 4) : std::string("-"),
           c.conservation_ok ? "yes" : "NO"});
    };
    if (churn_flat.ok) churn_row("flat", churn_flat);
    if (churn_paged.ok) churn_row("paged", churn_paged);
    churn_table.print();
    if (churn_flat.ok && churn_paged.ok) {
      const bool same = churn_flat.query_checksum == churn_paged.query_checksum &&
                        churn_flat.query_results == churn_paged.query_results &&
                        churn_flat.live == churn_paged.live;
      std::printf(
          "store churn: results %s (checksum %llu, %llu events), paged RSS "
          "%.1f%% of flat\n",
          same ? "identical" : "DIVERGED",
          static_cast<unsigned long long>(churn_flat.query_checksum),
          static_cast<unsigned long long>(churn_flat.query_results),
          churn_flat.peak_rss_kb > 0
              ? 100.0 * static_cast<double>(churn_paged.peak_rss_kb) /
                    static_cast<double>(churn_flat.peak_rss_kb)
              : 0.0);
    }
  }

  const EngineProbe probe = run_engine_probe();
  std::printf(
      "query engine: %llu serial msgs -> %llu batched (%.1f%% saved, "
      "dedup %.2f, cache hit rate %.3f)\n",
      static_cast<unsigned long long>(probe.serial_messages),
      static_cast<unsigned long long>(probe.batched_messages),
      100.0 * probe.message_savings, probe.dedup_ratio,
      probe.cache_hit_rate);

  const HotspotProbe hotspot = run_hotspot_probe();
  std::printf(
      "hotspot probe (exponential events): Pool gini %.3f max %d | "
      "DIM gini %.3f max %d\n",
      hotspot.pool_gini, static_cast<int>(hotspot.pool_max_load),
      hotspot.dim_gini, static_cast<int>(hotspot.dim_max_load));
  if (opts.telemetry.wants_metrics()) {
    obs::emit_snapshot(opts.telemetry, hotspot.snap, std::cout);
  }

  const double msgs_per_query = serial_uncached.totals.back().pool.messages.mean();
  std::FILE* f = std::fopen("BENCH_perf.json", "w");
  if (f) {
    std::fprintf(
        f,
        "{\n"
        "  \"bench\": \"perf_smoke\",\n"
        "  \"threads\": %zu,\n"
        "  \"serial_uncached_ms\": %.1f,\n"
        "  \"serial_cached_ms\": %.1f,\n"
        "  \"parallel_uncached_ms\": %.1f,\n"
        "  \"parallel_cached_ms\": %.1f,\n"
        "  \"speedup_cache\": %.3f,\n"
        "  \"speedup_parallel\": %.3f,\n"
        "  \"speedup\": %.3f,\n"
        "  \"pool_cache_hit_rate\": %.4f,\n"
        "  \"pool_messages_per_query_900\": %.2f,\n"
        "  \"stats_identical\": %s,\n",
        opts.threads, serial_uncached.wall_ms, serial_cached.wall_ms,
        parallel_uncached.wall_ms, parallel_cached.wall_ms, speedup_cache,
        speedup_parallel, speedup, parallel_cached.pool_hit_rate,
        msgs_per_query,
        identical ? "true" : "false");
    if (!tiers.empty()) {
      const ScaleTier& top = tiers.back();
      std::fprintf(f,
                   "  \"events_per_sec\": %.1f,\n"
                   "  \"scale\": [\n",
                   top.events_per_sec);
      for (std::size_t i = 0; i < tiers.size(); ++i) {
        const ScaleTier& t = tiers[i];
        std::fprintf(
            f,
            "    {\"nodes\": %zu, \"build_ms\": %.1f, \"insert_ms\": %.1f, "
            "\"events_per_sec\": %.1f, \"insert_messages\": %llu, "
            "\"peak_rss_kb\": %ld}%s\n",
            t.nodes, t.build_ms, t.insert_ms, t.events_per_sec,
            static_cast<unsigned long long>(t.insert_messages),
            t.peak_rss_kb, i + 1 < tiers.size() ? "," : "");
      }
      std::fprintf(f, "  ],\n");
    }
    if (churn_flat.ok && churn_paged.ok) {
      const auto emit_churn = [f](const char* name, const StoreChurn& c,
                                  bool last) {
        std::fprintf(
            f,
            "    \"%s\": {\"churn_ms\": %.1f, \"query_ms\": %.1f, "
            "\"events_per_sec\": %.1f, \"peak_rss_kb\": %ld, "
            "\"inserted\": %llu, \"expired\": %llu, \"live\": %llu, "
            "\"query_results\": %llu, \"query_checksum\": %llu, "
            "\"pager_hit_rate\": %.4f, \"pager_evictions\": %llu, "
            "\"file_pages\": %llu, \"conservation_ok\": %s}%s\n",
            name, c.churn_ms, c.query_ms, c.events_per_sec, c.peak_rss_kb,
            static_cast<unsigned long long>(c.inserted),
            static_cast<unsigned long long>(c.expired),
            static_cast<unsigned long long>(c.live),
            static_cast<unsigned long long>(c.query_results),
            static_cast<unsigned long long>(c.query_checksum),
            c.pager_hit_rate,
            static_cast<unsigned long long>(c.pager_evictions),
            static_cast<unsigned long long>(c.file_pages),
            c.conservation_ok ? "true" : "false", last ? "" : ",");
      };
      const bool same =
          churn_flat.query_checksum == churn_paged.query_checksum &&
          churn_flat.query_results == churn_paged.query_results &&
          churn_flat.live == churn_paged.live;
      std::fprintf(f, "  \"store_scale\": {\n");
      emit_churn("flat", churn_flat, false);
      emit_churn("paged", churn_paged, false);
      std::fprintf(f, "    \"results_identical\": %s\n  },\n",
                   same ? "true" : "false");
    }
    std::fprintf(
        f,
        "  \"query_engine\": {\n"
        "    \"serial_messages\": %llu,\n"
        "    \"batched_messages\": %llu,\n"
        "    \"message_savings\": %.4f,\n"
        "    \"dedup_ratio\": %.4f,\n"
        "    \"cache_hit_rate\": %.4f\n"
        "  },\n"
        "  \"metrics\": {\n"
        "    \"pool_storage_gini\": %.4f,\n"
        "    \"dim_storage_gini\": %.4f,\n"
        "    \"pool_max_load\": %.0f,\n"
        "    \"dim_max_load\": %.0f,\n"
        "    \"pool_insert_messages\": %llu,\n"
        "    \"dim_insert_messages\": %llu,\n"
        "    \"pool_energy_j\": %.6f,\n"
        "    \"dim_energy_j\": %.6f\n"
        "  }\n"
        "}\n",
        static_cast<unsigned long long>(probe.serial_messages),
        static_cast<unsigned long long>(probe.batched_messages),
        probe.message_savings, probe.dedup_ratio, probe.cache_hit_rate,
        hotspot.pool_gini, hotspot.dim_gini, hotspot.pool_max_load,
        hotspot.dim_max_load,
        static_cast<unsigned long long>(hotspot.pool_net_messages),
        static_cast<unsigned long long>(hotspot.dim_net_messages),
        hotspot.pool_energy_j, hotspot.dim_energy_j);
    std::fclose(f);
    std::printf("wrote BENCH_perf.json\n");
  }
  return identical ? 0 : 1;
}
