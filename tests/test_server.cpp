// End-to-end tests for the poolnetd server core: byte-identical results,
// admission control, drain-on-shutdown, live metrics, protocol errors,
// connection churn and slow readers — all over real loopback sockets.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/query_language.h"
#include "server/server.h"
#include "storage/store_config.h"

namespace poolnet::server {
namespace {

ServerConfig small_config(SystemKind system = SystemKind::Pool) {
  ServerConfig config;
  config.backend.system = system;
  config.backend.nodes = 60;
  config.backend.dims = 3;
  config.backend.events_per_node = 3;
  config.backend.seed = 7;
  config.backend.engine.batch_size = 4;
  return config;
}

std::string tight_select(double lo0, double hi0) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "SELECT WHERE a0 IN [%.6f, %.6f]", lo0, hi0);
  return buf;
}

/// A raw loopback connection to `port`, or -1. A positive `rcvbuf`
/// shrinks its receive buffer before the handshake.
int connect_raw(std::uint16_t port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (rcvbuf > 0)
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Reads one frame from `fd`; false if none is whole within `timeout`.
bool read_frame_within(int fd, std::chrono::milliseconds timeout,
                       Frame* frame) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  FrameDecoder decoder;
  while (!decoder.next(frame)) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd p{fd, POLLIN, 0};
    if (left.count() <= 0 || ::poll(&p, 1, static_cast<int>(left.count())) <= 0)
      return false;
    std::uint8_t buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    decoder.feed(buf, static_cast<std::size_t>(n));
  }
  return true;
}

/// This process's mapping count and virtual size, from /proc/self.
struct Footprint {
  std::size_t mappings = 0;
  std::size_t vm_kb = 0;
};

Footprint footprint() {
  Footprint f;
  std::string line;
  std::ifstream maps("/proc/self/maps");
  while (std::getline(maps, line)) ++f.mappings;
  std::ifstream status("/proc/self/status");
  while (std::getline(status, line))
    if (line.rfind("VmSize:", 0) == 0) f.vm_kb = std::stoull(line.substr(7));
  return f;
}

/// One counter's value in a SUBSCRIBE_METRICS JSON snapshot.
std::uint64_t scraped(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  const auto at = json.find(key);
  return at == std::string::npos ? 0 : std::stoull(json.substr(at + key.size()));
}

TEST(ServerTest, ResultsAreByteIdenticalToDirectExecution) {
  const ServerConfig config = small_config();
  Server server(config);
  server.start();
  Backend direct(config.backend);  // same seed -> same deployment

  Client client;
  client.connect("127.0.0.1", server.port());
  const char* statements[] = {
      "SELECT",
      "SELECT WHERE a0 IN [0.2, 0.8]",
      "SELECT WHERE a0 IN [0.1, 0.5] AND a2 IN [0.4, 0.9]",
      "SELECT WHERE a0 IN [0.25, 0.25] AND a1 IN [0.0, 1.0]",
      "SELECT WHERE a1 IN [0.6, 0.7]",
  };
  for (const char* text : statements) {
    const std::uint64_t id = client.send_query(text);
    const Client::Reply reply = client.read_reply();
    ASSERT_FALSE(reply.is_error) << text << ": " << reply.message;
    EXPECT_EQ(reply.request_id, id);

    storage::RangeQuery::Bounds one;
    one.push_back(ClosedInterval{0.0, 1.0});
    storage::RangeQuery query{one};
    std::string error;
    ASSERT_TRUE(parse_select(text, 3, &query, &error)) << error;
    const storage::QueryReceipt receipt =
        direct.system().execute(direct.sink(), query);
    EXPECT_EQ(reply.body, encode_events(receipt.events)) << text;
  }
  client.close();
  server.stop();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_EQ(stats.disconnects, 1u);
  EXPECT_EQ(stats.queries_in, 5u);
  EXPECT_EQ(stats.queries_out, 5u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(ServerTest, ServesAllFourSystems) {
  for (const SystemKind system :
       {SystemKind::Pool, SystemKind::Dim, SystemKind::Ght,
        SystemKind::Central}) {
    Server server(small_config(system));
    server.start();
    Backend direct(server.backend().config());
    Client client;
    client.connect("127.0.0.1", server.port());
    const std::vector<storage::Event> events =
        client.query("SELECT WHERE a0 IN [0.1, 0.9]");
    storage::RangeQuery::Bounds one;
    one.push_back(ClosedInterval{0.0, 1.0});
    storage::RangeQuery query{one};
    std::string error;
    ASSERT_TRUE(parse_select("SELECT WHERE a0 IN [0.1, 0.9]", 3, &query,
                             &error));
    const storage::QueryReceipt receipt =
        direct.system().execute(direct.sink(), query);
    EXPECT_EQ(encode_events(events), encode_events(receipt.events))
        << to_string(system);
    client.close();
    server.stop();
  }
}

TEST(ServerTest, CentralPagedStoreMatchesFlatByteForByte) {
  // Same deployment seed, two backends: the central store with a tiny
  // paged pool must serve the exact reply bytes of the flat store.
  ServerConfig flat_config = small_config(SystemKind::Central);
  ServerConfig paged_config = flat_config;
  std::string error;
  ASSERT_TRUE(storage::parse_store_spec("paged:2:1:file",
                                        &paged_config.backend.store, &error))
      << error;

  Server server(paged_config);
  server.start();
  Backend flat(flat_config.backend);
  Client client;
  client.connect("127.0.0.1", server.port());
  for (const char* text :
       {"SELECT", "SELECT WHERE a0 IN [0.2, 0.8]",
        "SELECT WHERE a1 IN [0.1, 0.6] AND a2 IN [0.3, 0.9]"}) {
    const std::vector<storage::Event> events = client.query(text);
    storage::RangeQuery::Bounds one;
    one.push_back(ClosedInterval{0.0, 1.0});
    storage::RangeQuery query{one};
    ASSERT_TRUE(parse_select(text, 3, &query, &error)) << error;
    const storage::QueryReceipt receipt =
        flat.system().execute(flat.sink(), query);
    EXPECT_EQ(encode_events(events), encode_events(receipt.events)) << text;
  }
  client.close();
  server.stop();
}

TEST(ServerTest, InsertedEventBecomesQueryable) {
  Server server(small_config());
  server.start();
  const std::uint64_t preloaded = server.backend().preloaded_events();

  Client client;
  client.connect("127.0.0.1", server.port());
  const std::uint32_t stored_at =
      client.insert("INSERT VALUES (0.41, 0.43, 0.47)");
  EXPECT_NE(stored_at, net::kNoNode);

  const std::vector<storage::Event> events = client.query(
      "SELECT WHERE a0 IN [0.41, 0.41] AND a1 IN [0.43, 0.43] AND "
      "a2 IN [0.47, 0.47]");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].id, preloaded + 1);  // numbered above the workload
  EXPECT_DOUBLE_EQ(events[0].values[2], 0.47);

  client.close();
  server.stop();
  EXPECT_EQ(server.stats().inserts, 1u);
}

TEST(ServerTest, ParseErrorsAreRepliesNotDisconnects) {
  Server server(small_config());
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  const std::uint64_t id = client.send_query("SELECT WHERE a7 IN [0, 1]");
  const Client::Reply reply = client.read_reply();
  EXPECT_TRUE(reply.is_error);
  EXPECT_EQ(reply.request_id, id);
  EXPECT_EQ(reply.code, ErrorCode::ParseError);
  EXPECT_FALSE(reply.message.empty());

  // The connection survives and serves the corrected statement.
  EXPECT_NO_THROW(client.query("SELECT WHERE a2 IN [0, 1]"));
  client.close();
  server.stop();
  EXPECT_EQ(server.stats().parse_errors, 1u);
}

TEST(ServerTest, PerClientAdmissionLimitRejectsDeterministically) {
  ServerConfig config = small_config();
  config.backend.engine.batch_size = 32;  // epoch can't fill from one client
  config.max_inflight_per_client = 4;
  config.flush_interval_us = 1000000;  // generous: no flush mid-admission
  Server server(config);
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  for (int i = 0; i < 10; ++i) client.send_query(tight_select(0.1, 0.9));

  std::size_t results = 0, rejected = 0;
  for (int i = 0; i < 10; ++i) {
    const Client::Reply reply = client.read_reply();
    if (reply.is_error) {
      EXPECT_EQ(reply.code, ErrorCode::TooManyInFlight);
      ++rejected;
    } else {
      ++results;
    }
  }
  EXPECT_EQ(results, 4u);
  EXPECT_EQ(rejected, 6u);
  client.close();
  server.stop();
  EXPECT_EQ(server.stats().rejected, 6u);
}

TEST(ServerTest, GlobalBackpressureRejectsWithServerBusy) {
  ServerConfig config = small_config();
  config.backend.engine.batch_size = 64;
  config.max_inflight_per_client = 64;
  config.max_pending_global = 3;
  config.flush_interval_us = 1000000;
  Server server(config);
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  for (int i = 0; i < 8; ++i) client.send_query(tight_select(0.2, 0.4));
  std::size_t busy = 0, results = 0;
  for (int i = 0; i < 8; ++i) {
    const Client::Reply reply = client.read_reply();
    if (reply.is_error) {
      EXPECT_EQ(reply.code, ErrorCode::ServerBusy);
      ++busy;
    } else {
      ++results;
    }
  }
  EXPECT_EQ(results, 3u);
  EXPECT_EQ(busy, 5u);
  client.close();
  server.stop();
}

TEST(ServerTest, StopDrainsPipelinedQueries) {
  ServerConfig config = small_config();
  config.backend.engine.batch_size = 64;  // epoch would never fill...
  config.flush_interval_us = 10'000'000;  // ...and the timer never fires
  Server server(config);
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i)
    ids.push_back(client.send_query(tight_select(0.3, 0.7)));
  // Admission barrier: commands are processed in order, so once the
  // metrics round-trip answers, all 10 queries are admitted — queries
  // still sitting in the socket buffer at stop() are not "admitted" and
  // the drain guarantee would not cover them.
  (void)client.subscribe_metrics();

  server.stop();  // must execute all 10 admitted queries before returning

  std::size_t answered = 0;
  for (int i = 0; i < 10; ++i) {
    const Client::Reply reply = client.read_reply();
    EXPECT_FALSE(reply.is_error);
    EXPECT_EQ(reply.request_id, ids[answered]);
    ++answered;
  }
  EXPECT_EQ(answered, 10u);
  EXPECT_THROW(client.read_reply(), std::runtime_error);  // then EOF
  EXPECT_EQ(server.stats().queries_out, 10u);
}

TEST(ServerTest, LiveMetricsSubscription) {
  Server server(small_config());
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  (void)client.query("SELECT WHERE a0 IN [0.1, 0.6]");

  const std::string json = client.subscribe_metrics();
  EXPECT_NE(json.find("\"server.connections\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"server.queries_in\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("pool.engine"), std::string::npos) << json;
  client.close();
  server.stop();
}

TEST(ServerTest, CorruptStreamGetsBadFrameErrorThenClose) {
  Server server(small_config());
  server.start();

  // Hand-rolled connection: the Client class never produces garbage, so
  // talk to the socket directly.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // A zero-length frame is a protocol violation.
  const std::uint8_t poison[4] = {0, 0, 0, 0};
  ASSERT_EQ(::send(fd, poison, sizeof(poison), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(poison)));

  // The server answers with a BadFrame ERROR, then closes the connection.
  FrameDecoder decoder;
  Frame frame;
  bool got_frame = false;
  std::uint8_t buf[256];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    decoder.feed(buf, static_cast<std::size_t>(n));
    if (decoder.next(&frame)) {
      got_frame = true;
      break;
    }
  }
  ASSERT_TRUE(got_frame);
  EXPECT_EQ(frame.type, FrameType::Error);
  PayloadReader r(frame.payload);
  (void)r.u64();
  EXPECT_EQ(static_cast<ErrorCode>(r.u16()), ErrorCode::BadFrame);
  ::close(fd);

  server.stop();
  EXPECT_EQ(server.stats().parse_errors, 1u);
}

TEST(ServerTest, ConnectionChurnFreesEverySession) {
  Server server(small_config());
  server.start();
  const auto round_trip = [&] {
    Client client;
    client.connect("127.0.0.1", server.port());
    (void)client.query("SELECT WHERE a0 IN [0.2, 0.4]");
    client.close();
  };
  round_trip();  // first-use allocations land before the baseline

  const Footprint before = footprint();
  for (int i = 0; i < 300; ++i) round_trip();  // never more than one open
  const Footprint after = footprint();
  EXPECT_LT(after.mappings, before.mappings + 16)
      << before.mappings << " -> " << after.mappings << " mappings";
  EXPECT_LT(after.vm_kb, before.vm_kb + 64 * 1024)
      << before.vm_kb << " -> " << after.vm_kb << " kB VmSize";

  // Every churned session is closed while the server runs. The scraping
  // session itself is the one still open; the last close may still be in
  // flight, so give it a moment.
  Client scraper;
  scraper.connect("127.0.0.1", server.port());
  std::string json;
  for (int tries = 0; tries < 500; ++tries) {
    json = scraper.subscribe_metrics();
    if (scraped(json, "server.disconnects") + 1 ==
        scraped(json, "server.connections"))
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(scraped(json, "server.connections"), 302u) << json;
  EXPECT_EQ(scraped(json, "server.disconnects"), 301u) << json;
  scraper.close();
  server.stop();
  EXPECT_EQ(server.stats().connections, server.stats().disconnects);
}

TEST(ServerTest, ClientThatNeverReadsStallsNoOtherConnection) {
  ServerConfig config = small_config();
  config.backend.events_per_node = 100;  // a full-space answer is ~270 KB
  Server server(config);
  server.start();

  // Client A pipelines 100 full-space SELECTs (about 27 MB of answers)
  // through a small receive buffer and never reads. Its requests fit the
  // socket buffers, so sending them cannot block.
  const int a = connect_raw(server.port(), 4096);
  ASSERT_GE(a, 0);
  std::vector<std::uint8_t> requests;
  for (std::uint64_t id = 1; id <= 100; ++id) {
    const std::vector<std::uint8_t> frame =
        encode_request(FrameType::Query, id, "SELECT");
    requests.insert(requests.end(), frame.begin(), frame.end());
  }
  ASSERT_EQ(::send(a, requests.data(), requests.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(requests.size()));

  // Client B still gets its answer.
  const int b = connect_raw(server.port());
  ASSERT_GE(b, 0);
  const std::vector<std::uint8_t> query =
      encode_request(FrameType::Query, 7, "SELECT WHERE a0 IN [0.2, 0.4]");
  ASSERT_EQ(::send(b, query.data(), query.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(query.size()));
  Frame reply;
  const bool answered =
      read_frame_within(b, std::chrono::seconds(10), &reply);

  // Close A first: a server stuck writing to it would otherwise never stop.
  ::close(a);
  ::close(b);
  server.stop();
  ASSERT_TRUE(answered) << "no reply to B within 10 s";
  EXPECT_EQ(reply.type, FrameType::Result);
  PayloadReader r(reply.payload);
  EXPECT_EQ(r.u64(), 7u);
}

}  // namespace
}  // namespace poolnet::server
