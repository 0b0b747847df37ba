// Hotspot demo: what happens to Pool when the environment misbehaves.
//
// A wildfire-style burst drives most readings into one small value region,
// hammering a handful of cells of one pool. This demo runs the identical
// burst against Pool with workload sharing OFF and ON (Section 4.2) and
// prints the per-node load distribution each way.
//
//   $ ./examples/hotspot_sharing_demo
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/pool_system.h"
#include "net/deployment.h"
#include "net/network.h"
#include "query/workload.h"
#include "routing/gpsr.h"

using namespace poolnet;

namespace {

struct RunResult {
  std::vector<std::uint64_t> loads;  // sorted ascending
  std::uint64_t insert_msgs = 0;
  std::size_t hot_answers = 0;
  std::uint64_t hot_query_msgs = 0;
};

RunResult run_burst(bool sharing) {
  const std::size_t kNodes = 600;
  const double side = net::field_side_for_density(kNodes, 40.0, 20.0);
  const Rect field{0.0, 0.0, side, side};
  Rng rng(4242);  // identical deployment and burst for both runs
  auto positions = net::deploy_uniform(kNodes, field, rng);
  net::Network network(std::move(positions), field, 40.0);
  const routing::Gpsr gpsr(network);

  core::PoolConfig config;
  config.workload_sharing = sharing;
  config.share_threshold = 24;
  core::PoolSystem pool(network, gpsr, 3, config);

  // The burst: 90% of 3000 events cluster around (0.9, 0.88, 0.15) —
  // "very hot, very dry, low pressure" — landing in a few cells of P1.
  query::WorkloadConfig wc;
  wc.dims = 3;
  wc.dist = query::ValueDistribution::Hotspot;
  wc.center = 0.9;
  wc.spread = 0.02;
  wc.hotspot_fraction = 0.9;
  query::EventGenerator gen(wc, 17);
  for (std::size_t i = 0; i < 3000; ++i) {
    const auto src = static_cast<net::NodeId>(i % kNodes);
    pool.insert(src, gen.next(src));
  }

  RunResult out;
  out.insert_msgs = network.traffic().total;
  for (const auto& node : network.nodes())
    out.loads.push_back(node.stored_events);
  std::sort(out.loads.begin(), out.loads.end());

  const storage::RangeQuery fire_zone({{0.8, 1.0}, {0.8, 1.0}, {0.0, 0.3}});
  const auto before = network.traffic().total;
  const auto r = pool.execute(0, fire_zone);
  out.hot_answers = r.events.size();
  out.hot_query_msgs = network.traffic().total - before;
  return out;
}

void print_histogram(const RunResult& r) {
  // Log-ish buckets of resident events per node.
  const std::pair<std::uint64_t, std::uint64_t> buckets[] = {
      {0, 0}, {1, 4}, {5, 9}, {10, 24}, {25, 49}, {50, 99}, {100, 1u << 31}};
  for (const auto& [lo, hi] : buckets) {
    std::size_t count = 0;
    for (const auto l : r.loads)
      if (l >= lo && l <= hi) ++count;
    char label[32];
    if (lo == 0 && hi == 0)
      std::snprintf(label, sizeof(label), "      0");
    else if (hi > 1000000)
      std::snprintf(label, sizeof(label), "   100+");
    else
      std::snprintf(label, sizeof(label), "%3llu-%-3llu",
                    static_cast<unsigned long long>(lo),
                    static_cast<unsigned long long>(hi));
    std::printf("  %s events : %4zu nodes %s\n", label, count,
                std::string(std::min<std::size_t>(count / 4, 60), '#').c_str());
  }
  std::printf("  max node load: %llu events\n",
              static_cast<unsigned long long>(r.loads.back()));
}

}  // namespace

int main() {
  std::printf("wildfire burst: 3000 events, 90%% clustered near "
              "(0.9, 0.88, 0.15)\n");
  for (const bool sharing : {false, true}) {
    const auto r = run_burst(sharing);
    std::printf("\n--- workload sharing %s ---\n", sharing ? "ON" : "OFF");
    print_histogram(r);
    std::printf("  insert traffic: %llu msgs; fire-zone query: %zu answers, "
                "%llu msgs\n",
                static_cast<unsigned long long>(r.insert_msgs), r.hot_answers,
                static_cast<unsigned long long>(r.hot_query_msgs));
  }
  std::printf(
      "\nWith sharing ON, the overloaded index nodes hand storage to their\n"
      "least-loaded neighbors once they hold 24 events: the worst-case node\n"
      "load collapses while queries keep returning the full answer set.\n");
  return 0;
}
