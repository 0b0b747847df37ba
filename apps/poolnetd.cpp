// poolnetd — serve a deployed Pool/DIM/GHT testbed over TCP.
//
//   $ poolnetd --system pool --nodes 300 --batch 16 --port 7632
//   poolnetd: pool over 300 nodes (900 events), engine batch=16
//   poolnetd: listening on 127.0.0.1:7632
//
// Clients speak the length-prefixed frame protocol of
// docs/wire_protocol.md; SIGTERM/SIGINT drains — every admitted query is
// answered before the process exits 0.
#include <pthread.h>
#include <signal.h>

#include <cstdio>
#include <iostream>

#include "bench_support/telemetry_bridge.h"
#include "cli/args.h"
#include "obs/telemetry.h"
#include "server/server.h"

using namespace poolnet;

int main(int argc, char** argv) {
  cli::ArgParser parser("poolnetd",
                        "serve a Pool/DIM/GHT/central deployment over TCP");
  parser.add_option("system", "pool",
                    "which DCS system: pool, dim, ght or central");
  parser.add_option("host", "127.0.0.1", "listen address");
  parser.add_option("port", "0", "listen port (0 = ephemeral)");
  parser.add_option("nodes", "300", "network size (sensors)");
  parser.add_option("dims", "3", "event dimensionality k");
  parser.add_option("events-per-node", "3", "workload preloaded per node");
  parser.add_option("seed", "1", "master random seed");
  parser.add_option("max-inflight", "16",
                    "admitted statements per client before rejection");
  parser.add_option("max-pending", "1024",
                    "admitted statements server-wide before rejection");
  parser.add_option("flush-interval-us", "2000",
                    "partial epochs flush after this idle time");
  cli::add_engine_options(parser);
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

  server::ServerConfig config;
  const auto port = parser.int_option("port", 0, 65535, &error);
  const auto nodes = parser.int_option("nodes", 10, 100000, &error);
  const auto dims = parser.int_option("dims", 1, 8, &error);
  const auto epn = parser.int_option("events-per-node", 0, 1000, &error);
  const auto seed = parser.int_option("seed", 0, INT64_MAX, &error);
  const auto inflight = parser.int_option("max-inflight", 1, 1 << 20, &error);
  const auto pending = parser.int_option("max-pending", 1, 1 << 24, &error);
  const auto flush_us =
      parser.int_option("flush-interval-us", 1, 10'000'000, &error);
  obs::TelemetryConfig telemetry;
  if (!port || !nodes || !dims || !epn || !seed || !inflight || !pending ||
      !flush_us ||
      !benchsup::parse_system_kind(parser.option("system"),
                                   &config.backend.system, &error) ||
      !cli::parse_engine_options(parser, &config.backend.engine, &error) ||
      !cli::parse_telemetry_options(parser, &telemetry, &error) ||
      !cli::parse_store_options(parser, &config.backend.store, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  config.host = parser.option("host");
  config.port = static_cast<std::uint16_t>(*port);
  config.backend.nodes = static_cast<std::size_t>(*nodes);
  config.backend.dims = static_cast<std::size_t>(*dims);
  config.backend.events_per_node = static_cast<std::size_t>(*epn);
  config.backend.seed = static_cast<std::uint64_t>(*seed);
  config.max_inflight_per_client = static_cast<std::size_t>(*inflight);
  config.max_pending_global = static_cast<std::size_t>(*pending);
  config.flush_interval_us = static_cast<std::uint64_t>(*flush_us);

  // The stop signals are blocked before any thread exists, so every
  // server thread inherits the mask and a signal stays pending until the
  // sigwait below takes it — whenever it arrives, it cannot be lost.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGTERM);
  sigaddset(&stop_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  try {
    server::Server server(config);
    server.start();
    std::printf("poolnetd: %s over %zu nodes (%llu events), engine batch=%zu\n",
                benchsup::to_string(config.backend.system),
                config.backend.nodes,
                static_cast<unsigned long long>(
                    server.backend().preloaded_events()),
                std::max<std::size_t>(1, config.backend.engine.batch_size));
    std::printf("poolnetd: listening on %s:%u\n", config.host.c_str(),
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    int signal_number = 0;
    sigwait(&stop_signals, &signal_number);

    std::printf("poolnetd: draining...\n");
    std::fflush(stdout);
    server.stop();

    const server::ServerStats stats = server.stats();
    std::printf(
        "poolnetd: served %llu connections, %llu queries, %llu inserts "
        "(%llu rejected, %llu parse errors) over %llu epochs\n",
        static_cast<unsigned long long>(stats.connections),
        static_cast<unsigned long long>(stats.queries_out),
        static_cast<unsigned long long>(stats.inserts),
        static_cast<unsigned long long>(stats.rejected),
        static_cast<unsigned long long>(stats.parse_errors),
        static_cast<unsigned long long>(stats.epochs));

    if (telemetry.wants_metrics()) {
      const obs::Snapshot snap =
          benchsup::scrape_testbed(server.backend().testbed());
      obs::emit_snapshot(telemetry, snap, std::cout);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "poolnetd: %s\n", e.what());
    return 1;
  }
}
