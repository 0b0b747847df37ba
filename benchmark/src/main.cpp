// poolbench — one run of one workload of the poolnet benchmark.
//
//   poolbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --poolnetd <path> [--deploy-seed <n>] [--out-dir <dir>]
//             [--smoke]
//
// Prints every metric with its unit on stderr, then the run as one JSON
// object on the last line of stdout:
//   {"correct": true, "attempted": N, "failed": F,
//    "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}
// An untraced run reports the end-to-end metrics, a traced run the
// per-layer ones; both sets are the tables below and match BENCHMARK.json.
// End-to-end timings are adjusted to the reference host speed (see
// HostSpeed in bench.h); the stderr table shows the raw value beside each
// figure. A failed correctness gate makes `correct` false and the exit
// code 1.
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "bench.h"
#include "cli/args.h"

using namespace poolbench;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"qps", "1/s"},
    {"p50_ms", "ms"},
    {"p99_ms", "ms"},
    {"msgs_per_query", "msgs/query"},
    {"inserts_per_s", "1/s"},
    {"msgs_per_insert", "msgs/insert"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"server.parse_us", "us"},
    {"server.encode_us", "us"},
    {"server.reply_bytes", "bytes"},
    {"server.occupancy", "queries/epoch"},
    {"server.wait_ms", "ms"},
    {"engine.epoch_ms", "ms"},
    {"engine.dedup_ratio", "ratio"},
    {"engine.msgs_saved_ratio", "ratio"},
    {"engine.cache_hit_rate", "ratio"},
    {"engine.invalidations_per_insert", "count/insert"},
    {"engine.insert_us", "us"},
    {"system.range_ms", "ms"},
    {"system.skyline_ms", "ms"},
    {"system.knn_ms", "ms"},
    {"system.visits_per_query", "visits/query"},
    {"system.query_msgs_per_query", "msgs/query"},
    {"system.reply_msgs_per_query", "msgs/query"},
    {"routing.cache_hit_rate", "ratio"},
    {"routing.route_us", "us"},
    {"net.energy_mj_per_query", "mJ/query"},
    {"net.max_node_tx_share", "ratio"},
    {"storage.rows_scanned_per_query", "rows/query"},
    {"storage.blocks_skipped_per_query", "blocks/query"},
    {"storage.bytes_touched_per_query", "bytes/query"},
    {"storage.scan_ms", "ms"},
    {"storage.live_events", "count"},
    {"bench_support.deploy_s", "s"},
    {"bench_support.preload_s", "s"},
    {"bench.gen_late_p99_ms", "ms"},
    {"bench.trace_overhead", "ratio"},
    {"bench.host_slowdown", "ratio"},
};

/// A host-bound end-to-end timing at the reference host speed: times
/// shrink and rates grow by the slowdown of the phase that measured them.
/// Everything else passes unchanged.
double host_adjusted(const MetricSpec& spec, double value, const Outcome& out) {
  const auto it = out.slowdown.find(spec.name);
  if (it == out.slowdown.end()) return value;
  const std::string unit = spec.unit;
  if (unit == "s" || unit == "ms") return value / it->second;
  if (unit == "1/s") return value * it->second;
  return value;
}

Outcome run(const Options& opt) {
  if (opt.workload == "serve_saturate" || opt.workload == "serve_trickle")
    return run_serve(opt);
  if (opt.workload == "sweep_pool" || opt.workload == "sweep_dim" ||
      opt.workload == "sweep_ght")
    return run_sweep(opt);
  return run_churn(opt);
}

}  // namespace

int main(int argc, char** argv) {
  poolnet::cli::ArgParser parser("poolbench",
                                 "one run of one poolnet benchmark workload");
  parser.add_option("workload", "",
                    "serve_saturate, serve_trickle, sweep_pool, sweep_dim, "
                    "sweep_ght or store_churn");
  parser.add_option("seed", "1", "workload seed");
  parser.add_option("deploy-seed", "1", "deployment and preload seed");
  parser.add_option("seconds", "15", "length of the measured phase");
  parser.add_option("trace", "0", "1 = per-layer traced pass");
  parser.add_option("poolnetd", "", "daemon binary (serve workloads)");
  parser.add_option("out-dir", ".", "directory for <workload>.trace.json");
  parser.add_flag("smoke", "300-node deployment");

  std::string error;
  if (!parser.parse(argc, argv, &error)) {
    std::fprintf(stderr, "error: %s\n\n%s", error.c_str(), parser.help().c_str());
    return 2;
  }
  if (parser.help_requested()) {
    std::fputs(parser.help().c_str(), stdout);
    return 0;
  }
  Options opt;
  const auto workload = parser.choice_option(
      "workload",
      {"serve_saturate", "serve_trickle", "sweep_pool", "sweep_dim",
       "sweep_ght", "store_churn"},
      &error);
  const auto seed = parser.int_option("seed", 0, INT64_MAX, &error);
  const auto deploy_seed = parser.int_option("deploy-seed", 0, INT64_MAX, &error);
  const auto seconds = parser.double_option("seconds", 0.5, 600.0, &error);
  const auto trace = parser.int_option("trace", 0, 1, &error);
  if (!workload || !seed || !deploy_seed || !seconds || !trace) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  opt.workload = *workload;
  opt.seed = static_cast<std::uint64_t>(*seed);
  opt.deploy_seed = static_cast<std::uint64_t>(*deploy_seed);
  opt.seconds = *seconds;
  opt.trace = *trace == 1;
  opt.smoke = parser.flag("smoke");
  opt.poolnetd = parser.option("poolnetd");
  opt.out_dir = parser.option("out-dir");
  if (opt.workload.rfind("serve_", 0) == 0 && opt.poolnetd.empty()) {
    std::fprintf(stderr, "error: serve workloads need --poolnetd\n");
    return 2;
  }

  Outcome out;
  try {
    out = run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "poolbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  if (opt.trace) out.metrics["bench.host_slowdown"] = out.host_slowdown;
  const MetricSpec* first = opt.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricSpec* last = opt.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  if (out.metrics.size() != static_cast<std::size_t>(last - first))
    out.fail("the workload reported " + std::to_string(out.metrics.size()) +
             " metrics, the table has " + std::to_string(last - first));
  std::fprintf(stderr,
               "%s (seed %llu, %s; host slowdown %.3f):\n  %-34s %14s %14s\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               opt.trace ? "traced, per layer" : "end to end",
               out.host_slowdown, "metric", "value", opt.trace ? "" : "raw");
  std::string metrics;
  for (const MetricSpec* s = first; s != last; ++s) {
    const auto it = out.metrics.find(s->name);
    const double raw = it == out.metrics.end() ? NAN : it->second;
    double value = opt.trace ? raw : host_adjusted(*s, raw, out);
    if (!std::isfinite(value)) {
      out.fail(std::string("metric ") + s->name + " was not measured");
      value = 0.0;
    }
    if (opt.trace)
      std::fprintf(stderr, "  %-34s %14.6g %s\n", s->name, value, s->unit);
    else
      std::fprintf(stderr, "  %-34s %14.6g %14.6g %s\n", s->name, value, raw,
                   s->unit);
    char buf[192];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  s == first ? "" : ", ", s->name, value, s->unit);
    metrics += buf;
  }
  for (const std::string& e : out.errors)
    std::fprintf(stderr, "poolbench: FAIL: %s\n", e.c_str());
  const bool correct = out.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  return correct ? 0 : 1;
}
