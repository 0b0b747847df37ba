// The two serve workloads: the real poolnetd binary over loopback, loaded
// by this thread alone, which multiplexes four connections with ppoll().
//
//   serve_saturate  closed loop: each connection keeps 8 statements in
//                   flight, so epochs fill to the daemon's 16 and framing,
//                   the engine's batch merge and Pool's walk do the work.
//   serve_trickle   open loop: 400 statements/s with seeded Poisson
//                   arrivals, round-robin over the connections. Epochs
//                   rarely fill, so latency is the daemon's flush timer
//                   plus one query's path; it is timed from each
//                   statement's scheduled send time.
//
// Both draw from query::QueryGenerator, saturate its `--query-class mix`
// stream and trickle its exact ranges, and query a daemon preloaded with 3
// events per node. Before them, a daemon of its own takes an insert phase:
// one connection pipelines INSERTs for a fifth of the measured time (one
// connection keeps the daemon's event numbering deterministic, so a direct
// replay can check every stored-at node).
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "bench_support/testbed.h"
#include "common/rng.h"
#include "daemon.h"
#include "layers.h"
#include "server/backend.h"
#include "server/client.h"
#include "server/query_language.h"
#include "server/wire.h"
#include "statements.h"
#include "trace.h"

namespace poolbench {

using namespace poolnet;

namespace {

constexpr std::size_t kConnections = 4;
constexpr std::size_t kSaturateDepth = 8;   // in flight per connection
constexpr std::size_t kInsertDepth = 32;    // in flight during the insert phase
constexpr double kTrickleRate = 400.0;      // offered statements per second
constexpr std::size_t kSetupStarts = 9;     // daemon starts per run; median
constexpr std::size_t kEventsPerNode = 3;   // daemon preload
constexpr std::size_t kEpochSize = 16;      // daemon --batch
constexpr double kDrainSeconds = 30.0;
constexpr double kMaxLateMs = 1.0;  // open-loop schedule: median lateness limit
constexpr std::uint64_t kMetricsTag = std::uint64_t{1} << 62;

/// The CPU the daemons are pinned to: the last one this process may use.
int daemon_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  ::sched_getaffinity(0, sizeof(set), &set);
  int last = 0;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) last = c;
  return last;
}

/// Keeps the calling thread off `cpu` when it may use any other.
void keep_off(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  ::pthread_getaffinity_np(::pthread_self(), sizeof(set), &set);
  CPU_CLR(cpu, &set);
  if (CPU_COUNT(&set) > 0)
    ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
}

/// A thread pinned to one CPU that samples HostSpeed there every 100 ms
/// until finish().
class CpuProbe {
 public:
  explicit CpuProbe(int cpu)
      : thread_([this, cpu](std::stop_token stop) {
          cpu_set_t set;
          CPU_ZERO(&set);
          CPU_SET(cpu, &set);
          ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
          while (!stop.stop_requested()) {
            speed_.sample();
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
          }
        }) {}

  /// Stops sampling; the samples are then this thread's to read.
  const HostSpeed& finish() {
    thread_.request_stop();
    if (thread_.joinable()) thread_.join();
    return speed_;
  }

 private:
  HostSpeed speed_;
  std::jthread thread_;  ///< declared last: it uses speed_
};

/// Non-blocking client sockets to one daemon and their reply decoders.
class Connections {
 public:
  Connections(std::uint16_t port, std::size_t n) : conns_(n) {
    for (Conn& c : conns_) {
      c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (c.fd < 0 ||
          ::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
        throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
      const int one = 1;
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    }
  }

  /// Queues a frame; the next pump() writes it, together with every other
  /// frame queued since, in one send() per connection.
  void send(std::size_t c, const std::vector<std::uint8_t>& frame) {
    Conn& conn = conns_[c];
    conn.out.insert(conn.out.end(), frame.begin(), frame.end());
  }

  /// Writes the queued frames, waits for socket activity until `deadline`
  /// at the latest, writes what the sockets accept and hands every
  /// complete reply to on_reply.
  template <class OnReply>
  void pump(Clock::time_point deadline, OnReply&& on_reply) {
    for (Conn& c : conns_) flush(c);
    std::vector<pollfd> fds;
    for (const Conn& c : conns_) {
      const short events = c.out.empty() ? POLLIN : POLLIN | POLLOUT;
      fds.push_back(pollfd{c.fd, events, 0});
    }
    const auto wait = std::max(Clock::duration::zero(), deadline - Clock::now());
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    timespec ts{static_cast<time_t>(ns / 1000000000),
                static_cast<long>(ns % 1000000000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR)
      throw std::runtime_error(std::string("ppoll: ") + std::strerror(errno));
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if (fds[i].revents & (POLLERR | POLLNVAL))
        throw std::runtime_error("connection error");
      if (fds[i].revents & POLLOUT) flush(c);
      if (fds[i].revents & (POLLIN | POLLHUP)) receive(i, on_reply);
    }
  }

 private:
  struct Conn {
    Conn() = default;
    ~Conn() {
      if (fd >= 0) ::close(fd);
    }
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;

    int fd = -1;
    server::FrameDecoder decoder;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
  };

  static void flush(Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else {
        throw std::runtime_error(std::string("send: ") + std::strerror(errno));
      }
    }
    c.out.clear();
    c.out_off = 0;
  }

  template <class OnReply>
  void receive(std::size_t i, OnReply& on_reply) {
    Conn& c = conns_[i];
    std::uint8_t buf[65536];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.decoder.feed(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      throw std::runtime_error("daemon closed a connection");
    }
    if (c.decoder.corrupt()) throw std::runtime_error("corrupt reply stream");
    server::Frame frame;
    while (c.decoder.next(&frame)) {
      server::Client::Reply reply;
      server::PayloadReader r(frame.payload);
      reply.request_id = r.u64();
      if (frame.type == server::FrameType::Result) {
        reply.kind = static_cast<server::ResultKind>(r.u8());
        reply.body.assign(frame.payload.end() -
                              static_cast<std::ptrdiff_t>(r.remaining()),
                          frame.payload.end());
      } else {
        reply.is_error = true;
        reply.code = static_cast<server::ErrorCode>(r.u16());
        reply.message = r.rest_text();
      }
      if (!r.ok()) throw std::runtime_error("short reply frame");
      on_reply(i, std::move(reply));
    }
  }

  std::vector<Conn> conns_;
};

/// One statement sent to a daemon.
struct Request {
  std::string text;
  bool insert = false;
  bool verify = false;  ///< body kept for the correctness check
  Clock::time_point due, sent, done;
  bool replied = false;
  bool ok = false;
  int span = -1;
  std::vector<std::uint8_t> body;
};

/// Sends `r` on connection `c`; it is filed in `reqs` under request id
/// (index + 1).
void send(Connections& conns, std::size_t c, Request r,
          std::vector<Request>& reqs, Tracer& tracer) {
  const std::uint64_t id = reqs.size() + 1;
  r.span = tracer.begin("client.request", id);
  conns.send(c, server::encode_request(r.insert ? server::FrameType::Insert
                                                : server::FrameType::Query,
                                       id, r.text));
  r.sent = Clock::now();
  reqs.push_back(std::move(r));
}

/// Files a reply against its request.
void receive(server::Client::Reply&& reply, std::vector<Request>& reqs,
             Tracer& tracer) {
  Request& r = reqs.at(reply.request_id - 1);
  r.done = Clock::now();
  r.replied = true;
  r.ok = !reply.is_error;
  tracer.end(r.span);
  if (r.ok && r.verify) r.body = std::move(reply.body);
}

/// A counter out of a SUBSCRIBE_METRICS snapshot (registry JSON).
double counter(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  const auto at = json.find(key);
  return at == std::string::npos
             ? 0.0
             : std::strtod(json.c_str() + at + key.size(), nullptr);
}

double delta(const std::string& before, const std::string& after,
             const std::string& name) {
  return counter(after, name) - counter(before, name);
}

/// The insert phase: one connection keeps kInsertDepth INSERTs in flight
/// until `stop`, then collects the last replies.
void insert_phase(std::uint16_t port, Clock::time_point stop, Rng& values,
                  std::vector<Request>& reqs, Tracer& tracer) {
  Connections conns(port, 1);
  std::size_t outstanding = 0;
  const auto next = [&](Clock::time_point due) {
    Request r;
    r.insert = true;
    r.verify = true;
    r.due = due;
    r.text = insert_statement(
        storage::Values{values.uniform(), values.uniform(), values.uniform()});
    send(conns, 0, std::move(r), reqs, tracer);
    ++outstanding;
  };
  for (std::size_t k = 0; k < kInsertDepth; ++k) next(Clock::now());
  const auto drained_by = after(stop, kDrainSeconds);
  while (outstanding > 0 && Clock::now() < drained_by)
    conns.pump(drained_by, [&](std::size_t, server::Client::Reply&& reply) {
      receive(std::move(reply), reqs, tracer);
      --outstanding;
      const auto now = Clock::now();
      if (now < stop) next(now);
    });
}

/// The query phase and its registry snapshots at its two ends.
struct QueryPhase {
  Clock::time_point start, warm_end, mid, end;
  std::string snap_before, snap_after;
};

/// Closed loop (saturate) or seeded Poisson open loop (trickle) over
/// kConnections until `phase.end`; tracing turns on at `phase.mid` in a
/// traced run. Collects every reply before returning.
void query_phase(const Options& opt, bool saturate, std::uint16_t port,
                 QueryPhase& phase, std::vector<Request>& reqs, Tracer& tracer) {
  Connections conns(port, kConnections);
  query::QueryGenerator gen({.dims = kDims}, opt.seed);
  Rng arrivals(opt.seed ^ 0xa1717a15u);
  const std::size_t verify_every = saturate ? 4 : 1;
  std::size_t outstanding = 0;
  bool have_after = false;
  const auto next = [&](std::size_t c, Clock::time_point due) {
    Request r;
    r.text = server::to_query_text(gen.next(
        saturate ? query::QueryClassMix::Mix : query::QueryClassMix::Range));
    r.verify = reqs.size() % verify_every == 0;
    r.due = due;
    send(conns, c, std::move(r), reqs, tracer);
    ++outstanding;
  };
  const auto on_reply = [&](std::size_t c, server::Client::Reply&& reply) {
    if (reply.request_id & kMetricsTag) {
      std::string text(reply.body.begin(), reply.body.end());
      if (reply.request_id == (kMetricsTag | 1)) {
        phase.snap_before = std::move(text);
      } else {
        phase.snap_after = std::move(text);
        have_after = true;
      }
      return;
    }
    receive(std::move(reply), reqs, tracer);
    --outstanding;
    const auto now = Clock::now();
    if (saturate && now < phase.end) next(c, now);
  };
  const auto snapshot = [&](std::uint64_t which) {
    conns.send(0, server::encode_request(server::FrameType::SubscribeMetrics,
                                         kMetricsTag | which, ""));
  };

  if (saturate)
    for (std::size_t c = 0; c < kConnections; ++c)
      for (std::size_t k = 0; k < kSaturateDepth; ++k) next(c, phase.start);
  bool snapped = false;
  double next_due = 0.0;  // open loop: seconds after phase.start
  std::size_t next_conn = 0;
  for (auto now = Clock::now(); now < phase.end; now = Clock::now()) {
    if (!snapped && now >= phase.warm_end) {
      snapshot(1);
      snapped = true;
    }
    tracer.set_enabled(opt.trace && now >= phase.mid);
    Clock::time_point wake = snapped ? phase.end : phase.warm_end;
    if (!saturate) {
      const auto due = after(phase.start, next_due);
      if (due <= now) {
        next(next_conn, due);
        next_conn = (next_conn + 1) % kConnections;
        next_due += -std::log(1.0 - arrivals.uniform()) / kTrickleRate;
        continue;
      }
      wake = std::min(wake, due);
    }
    conns.pump(wake, on_reply);
  }
  tracer.set_enabled(false);
  const auto drain_by = after(phase.end, kDrainSeconds);
  while (outstanding > 0 && Clock::now() < drain_by) conns.pump(drain_by, on_reply);
  snapshot(2);
  while (!have_after && Clock::now() < drain_by) conns.pump(drain_by, on_reply);
}

}  // namespace

Outcome run_serve(const Options& opt) {
  Outcome out;
  auto& m = out.metrics;
  const bool saturate = opt.workload == "serve_saturate";
  const std::vector<std::string> args = {
      "--system", "pool",
      "--nodes", std::to_string(opt.nodes()),
      "--events-per-node", std::to_string(kEventsPerNode),
      "--batch", std::to_string(kEpochSize),
      "--seed", std::to_string(opt.deploy_seed),
      "--port", "0"};

  // Set-up: kSetupStarts daemon starts; setup_s is their median time from
  // spawn to listening. All but the last two stop at once, and their peak
  // resident set is the loaded footprint (peak_rss_mb). The next takes the
  // insert phase and the last serves the queries.
  //
  // Each daemon runs pinned to one CPU: its work is one engine thread (its
  // reader threads use under 1% of a CPU), and on a shared host each vCPU
  // drifts in speed on its own, so a probe thread pinned beside it tracks
  // the speed the daemon gets. This thread, the load generator, keeps off
  // that CPU.
  const int cpu = daemon_cpu();
  keep_off(cpu);
  CpuProbe probe(cpu);
  const auto run_start = Clock::now();
  std::vector<double> ready, loaded_rss;
  const auto start_daemon = [&] {
    auto daemon = std::make_unique<Daemon>(opt.poolnetd, args, cpu);
    ready.push_back(daemon->ready_seconds());
    return daemon;
  };
  for (std::size_t i = 0; i + 2 < kSetupStarts; ++i) {
    const Daemon::Exit exit = start_daemon()->stop();
    if (!exit.clean) out.fail("poolnetd did not exit 0");
    loaded_rss.push_back(exit.peak_rss_mb);
  }

  Tracer tracer(false);
  std::vector<Request> reqs;
  Rng insert_values(opt.seed ^ 0x1a5e7u);
  Clock::time_point insert_start, insert_stop;
  QueryPhase phase;
  try {
    {
      const auto daemon = start_daemon();
      insert_start = Clock::now();
      insert_stop = after(insert_start, opt.seconds / 5);
      insert_phase(daemon->port(), insert_stop, insert_values, reqs, tracer);
      if (!daemon->stop().clean) out.fail("poolnetd did not drain and exit 0");
    }
    const auto daemon = start_daemon();
    phase.start = Clock::now();
    phase.warm_end = after(phase.start, opt.warmup_seconds());
    phase.end = after(phase.warm_end, opt.seconds);
    phase.mid = after(phase.warm_end, opt.seconds / 2);
    query_phase(opt, saturate, daemon->port(), phase, reqs, tracer);
    if (!daemon->stop().clean) out.fail("poolnetd did not drain and exit 0");
  } catch (const std::exception& e) {
    out.fail(std::string("load generator: ") + e.what());
  }
  if (phase.snap_before.empty() || phase.snap_after.empty())
    out.fail("missing SUBSCRIBE_METRICS snapshot");
  const HostSpeed& speed = probe.finish();
  out.host_slowdown = speed.slowdown(phase.warm_end, phase.end);

  // Measured statements: queries due inside [warm_end, end), every insert.
  // Rates are means over the whole phase: the daemon's speed swings by a
  // fifth from one second to the next, and a mean over a phase averages
  // that better than a median of per-second rates.
  Histogram latency, late;
  Windows untraced(phase.warm_end, opt.seconds / 2),
      traced(phase.mid, opt.seconds / 2);
  std::uint64_t inserts_ok = 0, inserts_in_phase = 0;
  std::vector<std::string> measured_text;
  for (const Request& r : reqs) {
    ++out.attempted;
    if (!r.replied || !r.ok) {
      ++out.failed;
      continue;
    }
    if (r.insert) {
      ++inserts_ok;
      if (r.done < insert_stop) ++inserts_in_phase;
      continue;
    }
    if (r.due < phase.warm_end || r.due >= phase.end) continue;
    latency.add(ms_between(r.due, r.done));
    late.add(ms_between(r.due, r.sent));
    for (Windows* w : {&untraced, &traced}) w->add(r.done);
    measured_text.push_back(r.text);
  }
  if (latency.count() == 0)
    out.fail("no statement completed in the measured phase");
  // Stalls of this thread's CPU delay single sends by a few ms at the tail
  // (and count into their latency, timed from the due time); a median
  // past the limit means the generator fell behind its schedule.
  if (!saturate && late.quantile(0.5) >= kMaxLateMs)
    out.fail("generator ran late (p50 " + std::to_string(late.quantile(0.5)) +
             " ms): the open-loop schedule was not kept");

  // Correctness: served answers and stored-at nodes against a Backend built
  // exactly as the daemon builds its own, executing directly. Queries
  // first, on the preloaded state both daemons started from; then the
  // inserts, in the order the insert daemon applied them.
  server::BackendConfig bc;
  bc.system = server::SystemKind::Pool;
  bc.nodes = opt.nodes();
  bc.dims = kDims;
  bc.events_per_node = kEventsPerNode;
  bc.seed = opt.deploy_seed;
  bc.engine.batch_size = kEpochSize;
  bc.engine.batch_deadline = std::uint64_t{1} << 40;  // as the server pins it
  server::Backend direct(bc);
  std::size_t mismatches = 0;
  for (const Request& r : reqs) {
    if (r.insert || !r.verify || !r.ok) continue;
    storage::QueryRequest q = placeholder_request();
    std::string error;
    if (!server::parse_query(r.text, kDims, &q, &error)) {
      out.fail("cannot re-parse '" + r.text + "': " + error);
      continue;
    }
    const storage::QueryReceipt receipt = direct.system().execute(direct.sink(), q);
    if (server::encode_events(receipt.events) != r.body && ++mismatches <= 3)
      out.fail("served answer differs from direct execution for '" + r.text + "'");
  }
  if (mismatches > 3)
    out.fail(std::to_string(mismatches) + " served answers differ in total");

  tracer.set_enabled(opt.trace);
  double work_p50 = 0.0;
  if (opt.trace) {
    const LayerStack stack{direct.system(), direct.engine(),
                           direct.testbed().pool_network(),
                           direct.testbed().oracle(),
                           direct.testbed().pool_gpsr(), direct.sink()};
    const double occupancy =
        delta(phase.snap_before, phase.snap_after, "server.queries_out") /
        std::max(1.0, delta(phase.snap_before, phase.snap_after, "server.epochs"));
    m["server.occupancy"] = occupancy;
    work_p50 = replay_layers(stack, measured_text,
                             static_cast<std::size_t>(std::lround(occupancy)),
                             opt.seed, opt.seconds / 5, tracer, out);
  }

  const engine::ResultCacheStats cache0 = direct.engine().cache_stats();
  double insert_msgs = 0.0;
  std::uint64_t next_id = direct.preloaded_events();
  std::size_t misplaced = 0;
  for (const Request& r : reqs) {
    if (!r.insert || !r.ok) continue;
    storage::Values values;
    std::string error;
    if (!server::parse_insert(r.text, kDims, &values, &error)) {
      out.fail("cannot re-parse '" + r.text + "': " + error);
      continue;
    }
    storage::Event e;
    e.id = ++next_id;
    e.source = direct.sink();
    e.values = values;
    const int s = tracer.begin("engine.insert", e.id);
    const storage::InsertReceipt receipt = direct.engine().insert(direct.sink(), e);
    tracer.end(s);
    insert_msgs += static_cast<double>(receipt.messages);
    server::PayloadReader body(r.body);
    if ((body.u32() != receipt.stored_at || !body.ok()) && ++misplaced <= 3)
      out.fail("served insert '" + r.text +
               "' stored at another node than direct execution");
  }
  if (misplaced > 3)
    out.fail(std::to_string(misplaced) + " served inserts misplaced in total");
  const double insert_count =
      static_cast<double>(std::max<std::uint64_t>(1, inserts_ok));

  const auto snap = [&](const char* name) {
    return delta(phase.snap_before, phase.snap_after, name);
  };
  if (!opt.trace) {
    m["qps"] = static_cast<double>(latency.count()) / opt.seconds;
    m["p50_ms"] = latency.quantile(0.5);
    m["p99_ms"] = latency.quantile(0.99);
    m["msgs_per_query"] =
        snap("pool.engine.messages") / std::max(1.0, snap("pool.engine.submitted"));
    m["inserts_per_s"] = static_cast<double>(inserts_in_phase) /
                         seconds_between(insert_start, insert_stop);
    m["msgs_per_insert"] = insert_msgs / insert_count;
    m["setup_s"] = median(ready);
    m["peak_rss_mb"] = median(loaded_rss);
    out.host_bound({"setup_s"}, speed.slowdown(run_start, insert_start));
    out.host_bound({"inserts_per_s"}, speed.slowdown(insert_start, insert_stop));
    // Trickle's rate is the offered one and its latency mostly the flush
    // timer, which no CPU's speed sets; saturate keeps the engine busy.
    if (saturate) out.host_bound({"qps", "p50_ms", "p99_ms"}, out.host_slowdown);
    return out;
  }

  const double route_hits = snap("pool.route_cache.hits");
  const double route_misses = snap("pool.route_cache.misses");
  m["server.wait_ms"] = std::max(0.0, latency.quantile(0.5) - work_p50);
  m["engine.cache_hit_rate"] =
      snap("pool.engine.cache_hits") / std::max(1.0, snap("pool.engine.submitted"));
  m["engine.invalidations_per_insert"] =
      static_cast<double>(direct.engine().cache_stats().invalidations -
                          cache0.invalidations) /
      insert_count;
  m["engine.insert_us"] = tracer.stat("engine.insert").mean_self_us();
  m["routing.cache_hit_rate"] =
      route_hits / std::max(1.0, route_hits + route_misses);
  m["bench.gen_late_p99_ms"] = late.quantile(0.99);
  // Each half at the reference speed where the daemon's speed sets the
  // rate, so the host's drift between them does not pass for tracing cost.
  m["bench.trace_overhead"] =
      untraced.rate_by_wall() / traced.rate_by_wall() *
      (saturate ? speed.slowdown(phase.warm_end, phase.mid) /
                      speed.slowdown(phase.mid, phase.end)
                : 1.0);

  // The daemon's set-up split in its two parts, on a Testbed built the
  // way Backend builds the daemon's.
  benchsup::TestbedConfig tc;
  tc.nodes = opt.nodes();
  tc.dims = kDims;
  tc.events_per_node = kEventsPerNode;
  tc.seed = opt.deploy_seed;
  auto t = Clock::now();
  benchsup::Testbed tb(tc);
  m["bench_support.deploy_s"] = seconds_between(t, Clock::now());
  t = Clock::now();
  tb.insert_workload();
  m["bench_support.preload_s"] = seconds_between(t, Clock::now());

  if (!tracer.write(opt.out_dir + "/" + opt.workload + ".trace.json",
                    opt.workload))
    out.fail("cannot write the trace file");
  return out;
}

}  // namespace poolbench
