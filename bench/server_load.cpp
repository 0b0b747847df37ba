// server_load — closed-loop load generator for poolnetd.
//
// Two modes:
//
//  * In-process sweep (default): starts a Server in this process, drives
//    a connections x queries sweep (1, 8 and 64 concurrent connections),
//    verifies every RESULT body byte-for-byte against direct serial
//    execution on an identically-built backend, runs a deterministic
//    admission-rejection probe, and writes the `server` bench section
//    (BENCH_server.json; scripts/merge_perf_section.py folds it into
//    BENCH_perf.json behind scripts/check_perf_regression.py).
//
//  * --connect <host:port>: drives an EXTERNAL poolnetd (the CI smoke
//    path). The backend flags here must match the server's; the
//    byte-identity check then proves the whole wire stack — framing,
//    parsing, admission, epoch demux — preserves engine results across
//    processes.
//
// Queries only (no inserts), so the store is static and any reply
// interleaving must still be byte-identical to serial execution.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cli/args.h"
#include "common/rng.h"
#include "query/query_gen.h"
#include "server/client.h"
#include "server/query_language.h"
#include "server/server.h"

using namespace poolnet;

namespace {

/// Deterministic SELECT text: every dimension specified with probability
/// 0.75 (at least one always), widths in [0.05, 0.45].
std::string make_statement(Rng& rng, std::size_t dims) {
  std::string text = "SELECT";
  bool any = false;
  for (std::size_t d = 0; d < dims; ++d) {
    const bool last = d + 1 == dims;
    if (rng.uniform() > 0.75 && !(last && !any)) continue;
    const double width = rng.uniform(0.05, 0.45);
    const double lo = rng.uniform(0.0, 1.0 - width);
    char clause[96];
    std::snprintf(clause, sizeof(clause), "%s a%zu IN [%.6f, %.6f]",
                  any ? " AND" : " WHERE", d, lo, lo + width);
    text += clause;
    any = true;
  }
  return text;
}

/// Statement of the configured class. Range keeps the historical draw
/// above (same RNG stream as pre-QueryRequest builds); the other
/// classes round-trip generated requests through to_query_text so the
/// wire grammar itself is under load.
std::string make_class_statement(Rng& rng, query::QueryGenerator& gen,
                                 std::size_t dims,
                                 query::QueryClassMix mix) {
  if (mix == query::QueryClassMix::Range) return make_statement(rng, dims);
  return server::to_query_text(gen.next(mix));
}

struct Record {
  std::string statement;
  std::vector<std::uint8_t> body;
  double ms = 0.0;
};

/// One closed-loop connection: send, block for the reply, repeat.
void run_connection(const std::string& host, std::uint16_t port,
                    std::size_t queries, std::size_t dims,
                    query::QueryClassMix mix, std::uint64_t seed,
                    std::vector<Record>* out, std::string* error) {
  try {
    server::Client client;
    client.connect(host, port);
    Rng rng(seed);
    query::QueryGenerator gen({dims}, seed);
    out->reserve(queries);
    for (std::size_t i = 0; i < queries; ++i) {
      Record rec;
      rec.statement = make_class_statement(rng, gen, dims, mix);
      const auto t0 = std::chrono::steady_clock::now();
      const std::uint64_t id = client.send_query(rec.statement);
      server::Client::Reply reply = client.read_reply();
      const auto t1 = std::chrono::steady_clock::now();
      if (reply.request_id != id || reply.is_error) {
        *error = "connection seed " + std::to_string(seed) +
                 ": unexpected reply for '" + rec.statement + "'" +
                 (reply.is_error ? ": " + reply.message : "");
        return;
      }
      rec.body = std::move(reply.body);
      rec.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      out->push_back(std::move(rec));
    }
  } catch (const std::exception& e) {
    *error = e.what();
  }
}

struct PointResult {
  std::size_t connections = 0;
  std::size_t queries = 0;  ///< total completed across connections
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool receipts_identical = false;
};

double quantile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double idx = q * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(idx + 0.5)];
}

/// Replays every recorded statement through direct serial execution on
/// `direct` and compares the canonical event bytes.
bool verify_records(server::Backend& direct,
                    const std::vector<std::vector<Record>>& per_conn,
                    std::size_t dims) {
  for (const auto& records : per_conn) {
    for (const Record& rec : records) {
      storage::RangeQuery::Bounds one;
      one.push_back(ClosedInterval{0.0, 1.0});
      storage::QueryRequest query{storage::RangeQuery{one}};
      std::string error;
      if (!server::parse_query(rec.statement, dims, &query, &error)) {
        std::fprintf(stderr, "verify: cannot re-parse '%s': %s\n",
                     rec.statement.c_str(), error.c_str());
        return false;
      }
      const storage::QueryReceipt receipt =
          direct.system().execute(direct.sink(), query);
      const std::vector<std::uint8_t> expected =
          server::encode_events(receipt.events);
      if (expected != rec.body) {
        std::fprintf(stderr,
                     "verify: MISMATCH for '%s' (%zu direct bytes, %zu "
                     "server bytes)\n",
                     rec.statement.c_str(), expected.size(), rec.body.size());
        return false;
      }
    }
  }
  return true;
}

PointResult run_point(const std::string& host, std::uint16_t port,
                      std::size_t connections, std::size_t queries_per_conn,
                      std::size_t dims, query::QueryClassMix mix,
                      std::uint64_t seed, server::Backend& direct) {
  std::vector<std::vector<Record>> per_conn(connections);
  std::vector<std::string> errors(connections);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back(run_connection, host, port, queries_per_conn, dims,
                         mix, seed * 1000 + c, &per_conn[c], &errors[c]);
  }
  for (auto& t : threads) t.join();
  const auto t1 = std::chrono::steady_clock::now();

  PointResult point;
  point.connections = connections;
  for (const auto& e : errors) {
    if (!e.empty()) {
      std::fprintf(stderr, "connection failed: %s\n", e.c_str());
      return point;  // receipts_identical stays false
    }
  }

  std::vector<double> lat;
  for (const auto& records : per_conn) {
    point.queries += records.size();
    for (const Record& r : records) lat.push_back(r.ms);
  }
  std::sort(lat.begin(), lat.end());
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  point.qps = secs > 0 ? static_cast<double>(point.queries) / secs : 0.0;
  point.p50_ms = quantile(lat, 0.50);
  point.p99_ms = quantile(lat, 0.99);
  point.receipts_identical = verify_records(direct, per_conn, dims);
  return point;
}

struct RejectionProbe {
  std::size_t sent = 0;
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  bool deterministic = false;  ///< rejected == sent - max_inflight
};

/// Pipelines more statements than the per-client window against a server
/// whose epoch cannot fill from one client (epoch size 32 > window 16),
/// so exactly sent - window statements must bounce with TooManyInFlight.
RejectionProbe run_rejection_probe(const server::BackendConfig& backend) {
  server::ServerConfig config;
  config.backend = backend;
  config.backend.engine.batch_size = 32;
  config.backend.engine.cache.enabled = false;
  config.max_inflight_per_client = 16;
  config.flush_interval_us = 200000;  // partial epoch flushes once we stop
  server::Server srv(config);
  srv.start();

  RejectionProbe probe;
  probe.sent = 40;
  {
    server::Client client;
    client.connect("127.0.0.1", srv.port());
    std::vector<std::uint64_t> ids;
    Rng rng(99);
    for (std::size_t i = 0; i < probe.sent; ++i)
      ids.push_back(client.send_query(make_statement(rng, backend.dims)));
    for (std::size_t i = 0; i < probe.sent; ++i) {
      const server::Client::Reply reply = client.read_reply();
      if (reply.is_error &&
          reply.code == server::ErrorCode::TooManyInFlight) {
        ++probe.rejected;
      } else if (!reply.is_error) {
        ++probe.admitted;
      }
    }
  }
  srv.stop();
  probe.deterministic = probe.admitted == 16 && probe.rejected == 24;
  return probe;
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser parser("server_load",
                        "closed-loop load generator for poolnetd");
  parser.add_option("connect", "",
                    "host:port of an external poolnetd (default: "
                    "in-process sweep)");
  parser.add_option("connections", "0",
                    "with --connect: concurrent connections (default 2)");
  parser.add_option("queries", "0",
                    "with --connect: queries per connection (default 100)");
  parser.add_option("system", "pool", "backend system: pool, dim or ght");
  parser.add_option("nodes", "300", "network size (sensors)");
  parser.add_option("dims", "3", "event dimensionality k");
  parser.add_option("events-per-node", "3", "workload preloaded per node");
  parser.add_option("seed", "1", "master random seed");
  parser.add_option("query-class", "range",
                    "query class: range, skyline, knn or mix");
  parser.add_option("json", "BENCH_server.json", "bench section output path");
  cli::add_engine_options(parser);

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

  server::BackendConfig backend;
  const auto nodes = parser.int_option("nodes", 10, 100000, &error);
  const auto dims = parser.int_option("dims", 1, 8, &error);
  const auto epn = parser.int_option("events-per-node", 0, 1000, &error);
  const auto seed = parser.int_option("seed", 0, INT64_MAX, &error);
  const auto conns = parser.int_option("connections", 0, 4096, &error);
  const auto queries = parser.int_option("queries", 0, 1 << 20, &error);
  query::QueryClassMix mix = query::QueryClassMix::Range;
  if (!nodes || !dims || !epn || !seed || !conns || !queries ||
      !benchsup::parse_system_kind(parser.option("system"), &backend.system,
                                   &error) ||
      !query::parse_query_class(parser.option("query-class"), &mix, &error) ||
      !cli::parse_engine_options(parser, &backend.engine, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  backend.nodes = static_cast<std::size_t>(*nodes);
  backend.dims = static_cast<std::size_t>(*dims);
  backend.events_per_node = static_cast<std::size_t>(*epn);
  backend.seed = static_cast<std::uint64_t>(*seed);
  if (backend.engine.batch_size == 0) backend.engine.batch_size = 16;

  // The verification arm: same deployment, direct serial execution.
  std::printf("server_load: building direct %s backend (%zu nodes)...\n",
              benchsup::to_string(backend.system), backend.nodes);
  server::BackendConfig direct_config = backend;
  direct_config.engine.batch_size = 0;  // unused: we query the system itself
  server::Backend direct(direct_config);

  std::vector<PointResult> sweep;
  RejectionProbe probe;
  const std::string connect = parser.option("connect");

  if (!connect.empty()) {
    const auto colon = connect.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "error: --connect needs host:port\n");
      return 2;
    }
    const std::string host = connect.substr(0, colon);
    const int port = std::atoi(connect.c_str() + colon + 1);
    const std::size_t n_conns = *conns > 0 ? std::size_t(*conns) : 2;
    const std::size_t n_queries = *queries > 0 ? std::size_t(*queries) : 100;
    std::printf("server_load: driving %s with %zu x %zu queries\n",
                connect.c_str(), n_conns, n_queries);
    sweep.push_back(run_point(host, static_cast<std::uint16_t>(port), n_conns,
                              n_queries, backend.dims, mix, backend.seed,
                              direct));
    probe.deterministic = true;  // probed only in-process
  } else {
    server::ServerConfig config;
    config.backend = backend;
    server::Server srv(config);
    srv.start();
    std::printf("server_load: in-process server on 127.0.0.1:%u, batch=%zu\n",
                static_cast<unsigned>(srv.port()),
                backend.engine.batch_size);

    struct { std::size_t conns, queries; } points[] = {
        {1, 200}, {8, 50}, {64, 8}};
    for (const auto& p : points) {
      const std::size_t n_conns = *conns > 0 ? std::size_t(*conns) : p.conns;
      const std::size_t n_queries =
          *queries > 0 ? std::size_t(*queries) : p.queries;
      sweep.push_back(run_point("127.0.0.1", srv.port(), n_conns, n_queries,
                                backend.dims, mix, backend.seed, direct));
      const PointResult& r = sweep.back();
      std::printf(
          "  %3zu conns: %5zu queries, %8.0f qps, p50 %6.3f ms, p99 %6.3f "
          "ms, identical=%s\n",
          r.connections, r.queries, r.qps, r.p50_ms, r.p99_ms,
          r.receipts_identical ? "yes" : "NO");
      if (*conns > 0) break;  // explicit size: one point
    }
    srv.stop();

    probe = run_rejection_probe(backend);
    std::printf(
        "  rejection probe: %zu sent, %zu admitted, %zu rejected (%s)\n",
        probe.sent, probe.admitted, probe.rejected,
        probe.deterministic ? "as expected" : "UNEXPECTED");
  }

  bool all_identical = !sweep.empty();
  for (const PointResult& r : sweep)
    if (!r.receipts_identical) all_identical = false;

  const std::string json_path = parser.option("json");
  if (FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"server\": {\n");
    std::fprintf(f, "    \"system\": \"%s\",\n",
                 benchsup::to_string(backend.system));
    std::fprintf(f, "    \"query_class\": \"%s\",\n", query::to_string(mix));
    std::fprintf(f, "    \"nodes\": %zu,\n", backend.nodes);
    std::fprintf(f, "    \"batch\": %zu,\n", backend.engine.batch_size);
    std::fprintf(f, "    \"receipts_identical\": %s,\n",
                 all_identical ? "true" : "false");
    std::fprintf(f, "    \"rejection_probe\": {\"sent\": %zu, \"admitted\": "
                    "%zu, \"rejected\": %zu, \"deterministic\": %s},\n",
                 probe.sent, probe.admitted, probe.rejected,
                 probe.deterministic ? "true" : "false");
    std::fprintf(f, "    \"sweep\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const PointResult& r = sweep[i];
      std::fprintf(f,
                   "      {\"connections\": %zu, \"queries\": %zu, \"qps\": "
                   "%.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
                   "\"receipts_identical\": %s}%s\n",
                   r.connections, r.queries, r.qps, r.p50_ms, r.p99_ms,
                   r.receipts_identical ? "true" : "false",
                   i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  }\n}\n");
    std::fclose(f);
    std::printf("server_load: wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
    return 1;
  }

  if (!all_identical) {
    std::fprintf(stderr, "server_load: FAIL — receipts differ from direct "
                         "execution\n");
    return 1;
  }
  if (!probe.deterministic) {
    std::fprintf(stderr, "server_load: FAIL — admission probe off\n");
    return 1;
  }
  std::printf("server_load: PASS — all receipts byte-identical to direct "
              "execution\n");
  return 0;
}
