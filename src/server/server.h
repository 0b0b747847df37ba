// poolnetd's core: a TCP query server over the batched QueryEngine.
//
// One thread serves everything (DESIGN.md §12). It polls a wake fd, the
// non-blocking listener and every session; it decodes frames as they
// arrive, admits statements, fills and runs epochs, and writes replies.
// The Backend (Testbed + DcsSystem + QueryEngine) is single-threaded by
// design, and so is every server.* metric: a live SUBSCRIBE_METRICS
// scrape keeps the scrape discipline, and replies on one connection are
// never interleaved.
//
// Writes never block. A reply the socket cannot take yet waits in its
// session's outbound buffer for POLLOUT, and a session holding more than
// a fixed high-water mark of unsent bytes is not read until it drains.
// A client that stops reading is held back by TCP; it stalls no other
// connection and grows no buffer beyond that mark and the epochs it has
// already been admitted to.
//
// Admission control: a client may have at most max_inflight_per_client
// statements queued, and the server at most max_pending_global across
// all clients; beyond either bound the statement is REJECTED with a
// typed ERROR frame immediately — the server never queues unboundedly.
//
// Fairness: the epoch fill takes queries round-robin ACROSS clients (one
// per client per turn), so a chatty client cannot monopolize an epoch
// ahead of others no matter how deep its queue is.
//
// Order: statements are admitted in the order they were sent, across
// connections too. Read statements are handled one per session per turn,
// no session is read again while any of them wait, and an epoch reads
// what every session sent while its batch ran before it writes the
// replies, which clients answer with newer statements.
//
// Sessions: a session is freed, and its fd closed, as soon as its input
// has ended, its queue is empty and its replies are sent.
//
// Shutdown: stop() wakes the loop and joins it. The loop closes the
// listener and stops reading, runs every admitted query, flushes every
// reply and closes each session. Clients with requests in flight at
// SIGTERM get their answers.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "server/backend.h"
#include "server/wire.h"

namespace poolnet::server {

struct ServerConfig {
  BackendConfig backend;

  /// Listen address. Port 0 binds an ephemeral port; read it back with
  /// port() after start().
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  /// Admission control (see file header). Zero is not a valid limit.
  std::size_t max_inflight_per_client = 16;
  std::size_t max_pending_global = 1024;

  /// A partial epoch flushes after this long with no new input (a
  /// statement, an accept or an EOF).
  /// Wall-clock, unlike the engine's logical batch_deadline (which the
  /// server pins to "never" — epoch timing is the server's job here).
  std::uint64_t flush_interval_us = 2000;
};

/// Counter view assembled from the registry (server.* namespace); read
/// after stop() (the loop thread writes it while the server runs).
struct ServerStats {
  std::uint64_t connections = 0;   ///< sessions accepted, lifetime
  std::uint64_t disconnects = 0;   ///< sessions fully closed
  std::uint64_t queries_in = 0;    ///< SELECTs admitted
  std::uint64_t queries_out = 0;   ///< RESULT frames written for queries
  std::uint64_t inserts = 0;       ///< INSERTs applied
  std::uint64_t rejected = 0;      ///< admission-control ERRORs
  std::uint64_t parse_errors = 0;  ///< statement/frame ERRORs
  std::uint64_t epochs = 0;        ///< epoch executions (incl. partial)
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the serving thread. Throws
  /// ConfigError when the address cannot be bound.
  void start();

  /// The bound port (valid after start()).
  std::uint16_t port() const { return port_; }

  /// Drains and joins (see file header). Idempotent; the destructor
  /// calls it.
  void stop();

  bool running() const { return running_; }

  Backend& backend() { return *backend_; }
  ServerStats stats() const;

 private:
  struct PendingQuery {
    std::uint64_t request_id = 0;
    storage::QueryRequest query;
  };

  /// One connection, owned by the loop thread.
  struct Session {
    int fd = -1;  ///< -1 once the peer is gone: its replies are dropped
    FrameDecoder decoder;
    std::deque<PendingQuery> queue;  ///< admitted, not yet executed
    std::vector<std::uint8_t> out;   ///< reply bytes; out_sent of them sent
    std::size_t out_sent = 0;
    /// No more statements are read (EOF, a bad frame, a dead peer or the
    /// drain). Admitted queries still get their answers.
    bool input_closed = false;

    std::size_t unsent() const { return out.size() - out_sent; }
  };

  /// The serving thread: polls, frees finished sessions, flushes idle
  /// partial epochs, and returns once a drain has sent every reply.
  void loop();
  void accept_all();
  void read_input(Session& s);

  /// Handles decoded statements, one per session per turn in accept
  /// order, until none is left or an epoch has run. A session past the
  /// high-water mark waits.
  void serve_input();
  void handle_query(Session& s, std::uint64_t request_id,
                    const std::string& text);
  void handle_insert(Session& s, std::uint64_t request_id,
                     const std::string& text);
  void bad_frame(Session& s, std::uint64_t request_id);

  /// Stops accepting and reading and runs every admitted query; the loop
  /// then exits once every reply is sent.
  void begin_drain();

  /// Executes one epoch: fills up to epoch_size_ queries round-robin
  /// across clients, runs them as one engine batch, reads what every
  /// session sent meanwhile, and writes every RESULT frame.
  void run_epoch();

  /// Queues a frame on the session and tries one send.
  void write_frame(Session& s, std::vector<std::uint8_t> frame);
  /// One non-blocking send of the unsent bytes; a dead peer loses them.
  void flush(Session& s);

  ServerConfig config_;
  std::unique_ptr<Backend> backend_;
  std::size_t epoch_size_ = 1;

  int listen_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: stop() writes it to start the drain
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};

  // --- loop-thread state (no locks; one owner) ---
  std::map<std::uint64_t, Session> sessions_;  ///< by id = accept order
  std::uint64_t next_session_id_ = 1;
  std::uint64_t rr_next_ = 0;  ///< round-robin: first session id to visit
  std::size_t pending_total_ = 0;
  bool draining_ = false;
  bool saw_input_ = false;  ///< a statement, accept or EOF this iteration
  /// Read statements may be waiting to be handled: the loop then reads
  /// no session and does not sleep.
  bool unserved_ = false;
  std::uint64_t next_event_id_ = 0;

  obs::MetricsRegistry::Counter connections_, disconnects_, queries_in_,
      queries_out_, inserts_, rejected_, parse_errors_, epochs_;
  obs::MetricsRegistry::Histogram occupancy_;

  std::thread loop_thread_;  ///< last: it uses every member above
};

}  // namespace poolnet::server
