#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/error.h"
#include "server/query_language.h"

namespace poolnet::server {

Server::Server(ServerConfig config) : config_(std::move(config)) {
  if (config_.max_inflight_per_client == 0)
    throw ConfigError("Server: max_inflight_per_client must be positive");
  if (config_.max_pending_global == 0)
    throw ConfigError("Server: max_pending_global must be positive");

  // The server owns epoch timing in wall-clock (flush_interval_us), so
  // the engine's logical deadline is pinned to "never": epochs flush
  // exactly when the fill loop says so.
  epoch_size_ = std::max<std::size_t>(1, config_.backend.engine.batch_size);
  config_.backend.engine.batch_size = epoch_size_;
  config_.backend.engine.batch_deadline = std::uint64_t{1} << 40;
  backend_ = std::make_unique<Backend>(config_.backend);
  next_event_id_ = backend_->preloaded_events();

  obs::MetricsRegistry& m = backend_->metrics();
  connections_ = m.counter("server.connections");
  disconnects_ = m.counter("server.disconnects");
  queries_in_ = m.counter("server.queries_in");
  queries_out_ = m.counter("server.queries_out");
  inserts_ = m.counter("server.inserts");
  rejected_ = m.counter("server.rejected");
  parse_errors_ = m.counter("server.parse_errors");
  epochs_ = m.counter("server.epochs");
  occupancy_ = m.histogram("server.epoch.occupancy", 1.0,
                           std::max<std::size_t>(epoch_size_ + 1, 16));
}

Server::~Server() { stop(); }

void Server::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw ConfigError("Server: socket() failed: " +
                      std::string(std::strerror(errno)));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ConfigError("Server: bad listen address " + config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ConfigError("Server: cannot listen on " + config_.host + ":" +
                      std::to_string(config_.port) + ": " + why);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  running_ = true;
  engine_thread_ = std::thread(&Server::engine_loop, this);
  accept_thread_ = std::thread(&Server::accept_loop, this);
}

void Server::stop() {
  if (!running_.exchange(false)) return;

  // 1. Stop accepting: wake the blocked accept() and join.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // 2. Half-close every session for reading: readers see EOF and report
  // Closed, while the write side stays open for drained results.
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& s : sessions_) {
      if (!s->closed) ::shutdown(s->fd, SHUT_RD);
    }
  }

  // 3. Drain: the engine thread executes every admitted query, writes
  // the results, then exits once all sessions have closed.
  Command drain;
  drain.kind = Command::Kind::Drain;
  enqueue(std::move(drain));
  if (engine_thread_.joinable()) engine_thread_.join();

  // 4. Join readers and release any fd the engine did not close.
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (const auto& s : sessions_) {
    if (s->reader.joinable()) s->reader.join();
    if (!s->closed.exchange(true)) ::close(s->fd);
  }
  sessions_.clear();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections = connections_.value();
  s.disconnects = disconnects_.value();
  s.queries_in = queries_in_.value();
  s.queries_out = queries_out_.value();
  s.inserts = inserts_.value();
  s.rejected = rejected_.value();
  s.parse_errors = parse_errors_.value();
  s.epochs = epochs_.value();
  return s;
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down
    }
    auto session = std::make_shared<Session>();
    session->fd = fd;
    session->id = next_session_id_++;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      sessions_.push_back(session);
    }
    // Open is enqueued BEFORE the reader spawns, so the engine always
    // sees a session's Open ahead of any of its statements.
    Command open;
    open.kind = Command::Kind::Open;
    open.session = session;
    enqueue(std::move(open));
    session->reader = std::thread(&Server::reader_loop, this, session);
  }
}

void Server::reader_loop(std::shared_ptr<Session> session) {
  FrameDecoder decoder;
  std::uint8_t buf[4096];
  bool bad = false;
  std::uint64_t bad_request = 0;
  while (!bad) {
    const ssize_t n = ::recv(session->fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    decoder.feed(buf, static_cast<std::size_t>(n));
    Frame frame;
    while (!bad && decoder.next(&frame)) {
      Command cmd;
      cmd.session = session;
      PayloadReader r(frame.payload);
      cmd.request_id = r.u64();
      if (!r.ok()) {
        bad = true;
        break;
      }
      switch (frame.type) {
        case FrameType::Query:
          cmd.kind = Command::Kind::Query;
          cmd.text = r.rest_text();
          break;
        case FrameType::Insert:
          cmd.kind = Command::Kind::Insert;
          cmd.text = r.rest_text();
          break;
        case FrameType::SubscribeMetrics:
          cmd.kind = Command::Kind::Metrics;
          break;
        default:
          bad = true;
          bad_request = cmd.request_id;
          break;
      }
      if (!bad) enqueue(std::move(cmd));
    }
    if (decoder.corrupt()) bad = true;
  }
  if (bad) {
    Command err;
    err.kind = Command::Kind::BadFrame;
    err.session = session;
    err.request_id = bad_request;
    enqueue(std::move(err));
  }
  Command closed;
  closed.kind = Command::Kind::Closed;
  closed.session = session;
  enqueue(std::move(closed));
}

void Server::enqueue(Command cmd) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.push_back(std::move(cmd));
  }
  queue_cv_.notify_one();
}

void Server::engine_loop() {
  const auto flush_interval =
      std::chrono::microseconds(config_.flush_interval_us);
  std::unique_lock<std::mutex> lk(queue_mu_);
  for (;;) {
    if (!queue_.empty()) {
      Command cmd = std::move(queue_.front());
      queue_.pop_front();
      lk.unlock();
      handle(cmd);
      while (pending_total_ >= epoch_size_) run_epoch();
      lk.lock();
      continue;
    }
    if (draining_) {
      if (pending_total_ > 0) {
        lk.unlock();
        while (pending_total_ > 0) run_epoch();
        lk.lock();
        continue;
      }
      if (sessions_open_ == 0) break;
      queue_cv_.wait(lk);
      continue;
    }
    if (pending_total_ > 0) {
      if (queue_cv_.wait_for(lk, flush_interval) ==
              std::cv_status::timeout &&
          queue_.empty()) {
        lk.unlock();
        run_epoch();
        lk.lock();
      }
    } else {
      queue_cv_.wait(lk);
    }
  }
}

void Server::handle(Command& cmd) {
  switch (cmd.kind) {
    case Command::Kind::Open: {
      connections_.inc();
      ++sessions_open_;
      clients_[cmd.session->id].session = cmd.session;
      rr_order_.push_back(cmd.session->id);
      break;
    }
    case Command::Kind::Closed: {
      const auto it = clients_.find(cmd.session->id);
      if (it == clients_.end()) break;
      // No more input from this session, but admitted queries still get
      // their answers — the drain contract. Tear down now only when
      // nothing is owed.
      it->second.input_closed = true;
      if (it->second.queue.empty()) finish_client(cmd.session->id);
      break;
    }
    case Command::Kind::Query:
      handle_query(cmd);
      break;
    case Command::Kind::Insert: {
      storage::Values values;
      std::string error;
      if (!parse_insert(cmd.text, config_.backend.dims, &values, &error)) {
        parse_errors_.inc();
        write_frame(cmd.session, encode_error(cmd.request_id,
                                              ErrorCode::ParseError, error));
        break;
      }
      if (draining_) {
        rejected_.inc();
        write_frame(cmd.session,
                    encode_error(cmd.request_id, ErrorCode::ShuttingDown,
                                 "server is draining"));
        break;
      }
      storage::Event e;
      e.id = ++next_event_id_;
      e.source = backend_->sink();
      e.values = values;
      // Inserts route through the engine so cached result rectangles
      // containing the new event invalidate before they can serve stale.
      const storage::InsertReceipt r =
          backend_->engine().insert(backend_->sink(), e);
      inserts_.inc();
      std::vector<std::uint8_t> body;
      put_u32(body, static_cast<std::uint32_t>(r.stored_at));
      write_frame(cmd.session,
                  encode_result(cmd.request_id, ResultKind::Insert, body));
      break;
    }
    case Command::Kind::Metrics: {
      const obs::Snapshot snap = backend_->metrics().scrape();
      std::vector<std::uint8_t> body;
      put_text(body, snap.to_json());
      write_frame(cmd.session,
                  encode_result(cmd.request_id, ResultKind::Metrics, body));
      break;
    }
    case Command::Kind::BadFrame: {
      parse_errors_.inc();
      write_frame(cmd.session,
                  encode_error(cmd.request_id, ErrorCode::BadFrame,
                               "malformed frame"));
      break;
    }
    case Command::Kind::Drain:
      draining_ = true;
      break;
  }
}

void Server::handle_query(Command& cmd) {
  const auto it = clients_.find(cmd.session->id);
  if (it == clients_.end()) return;  // raced with Closed; nothing to answer
  ClientState& client = it->second;

  // Placeholder with valid bounds (RangeQuery rejects empty ones);
  // parse_query overwrites it on success.
  storage::RangeQuery::Bounds one;
  one.push_back(ClosedInterval{0.0, 1.0});
  storage::QueryRequest query{storage::RangeQuery{one}};
  std::string error;
  if (!parse_query(cmd.text, config_.backend.dims, &query, &error)) {
    parse_errors_.inc();
    write_frame(cmd.session,
                encode_error(cmd.request_id, ErrorCode::ParseError, error));
    return;
  }
  if (draining_) {
    rejected_.inc();
    write_frame(cmd.session,
                encode_error(cmd.request_id, ErrorCode::ShuttingDown,
                             "server is draining"));
    return;
  }
  if (client.queue.size() >= config_.max_inflight_per_client) {
    rejected_.inc();
    write_frame(cmd.session,
                encode_error(cmd.request_id, ErrorCode::TooManyInFlight,
                             "client in-flight limit of " +
                                 std::to_string(
                                     config_.max_inflight_per_client) +
                                 " reached"));
    return;
  }
  if (pending_total_ >= config_.max_pending_global) {
    rejected_.inc();
    write_frame(cmd.session,
                encode_error(cmd.request_id, ErrorCode::ServerBusy,
                             "server pending limit of " +
                                 std::to_string(config_.max_pending_global) +
                                 " reached"));
    return;
  }
  client.queue.push_back(PendingQuery{cmd.request_id, std::move(query)});
  ++pending_total_;
  queries_in_.inc();
}

void Server::run_epoch() {
  const std::size_t n = std::min(epoch_size_, pending_total_);
  if (n == 0) return;

  struct Issued {
    std::shared_ptr<Session> session;
    std::uint64_t request_id;
    engine::QueryEngine::Ticket ticket;
  };
  std::vector<Issued> issued;
  issued.reserve(n);

  engine::QueryEngine& eng = backend_->engine();
  const net::NodeId sink = backend_->sink();
  // Fairness: one query per client per turn, so a deep queue on one
  // connection cannot crowd the others out of the epoch.
  std::size_t idle_scans = 0;
  while (issued.size() < n && idle_scans <= rr_order_.size()) {
    if (rr_order_.empty()) break;
    if (rr_next_ >= rr_order_.size()) rr_next_ = 0;
    ClientState& client = clients_.at(rr_order_[rr_next_]);
    ++rr_next_;
    if (client.queue.empty()) {
      ++idle_scans;
      continue;
    }
    idle_scans = 0;
    PendingQuery p = std::move(client.queue.front());
    client.queue.pop_front();
    issued.push_back(
        Issued{client.session, p.request_id, eng.submit(sink, p.query)});
  }
  pending_total_ -= issued.size();
  eng.flush();
  occupancy_.add(static_cast<double>(issued.size()));
  epochs_.inc();

  for (const Issued& i : issued) {
    storage::QueryReceipt r = eng.take(i.ticket);
    write_frame(i.session, encode_query_result(i.request_id, r.events));
    queries_out_.inc();
  }

  // Sessions that hit EOF while queries were in flight close once their
  // last answer is written.
  std::vector<std::uint64_t> done;
  for (const auto& [id, client] : clients_) {
    if (client.input_closed && client.queue.empty()) done.push_back(id);
  }
  for (const std::uint64_t id : done) finish_client(id);
}

void Server::finish_client(std::uint64_t client_id) {
  const auto it = clients_.find(client_id);
  if (it == clients_.end()) return;
  for (std::size_t i = 0; i < rr_order_.size(); ++i) {
    if (rr_order_[i] != client_id) continue;
    rr_order_.erase(rr_order_.begin() + static_cast<std::ptrdiff_t>(i));
    if (rr_next_ > i) --rr_next_;
    break;
  }
  close_session(it->second.session);
  clients_.erase(it);
  --sessions_open_;
  disconnects_.inc();
}

void Server::write_frame(const std::shared_ptr<Session>& session,
                         const std::vector<std::uint8_t>& frame) {
  if (session == nullptr || session->closed) return;
  const std::uint8_t* p = frame.data();
  std::size_t left = frame.size();
  while (left > 0) {
    const ssize_t n = ::send(session->fd, p, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      // Dead peer: stop both directions; the reader reports Closed.
      ::shutdown(session->fd, SHUT_RDWR);
      return;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
}

void Server::close_session(const std::shared_ptr<Session>& session) {
  if (session != nullptr && !session->closed.exchange(true))
    ::close(session->fd);
}

}  // namespace poolnet::server
