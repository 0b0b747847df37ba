#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/error.h"
#include "server/query_language.h"

namespace poolnet::server {

namespace {

/// A session holding more unsent reply bytes than this is not read until
/// its peer catches up (see server.h).
constexpr std::size_t kOutboundHighWater = std::size_t{1} << 20;

using Clock = std::chrono::steady_clock;

}  // namespace

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
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
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
      ::listen(listen_fd_, 128) < 0 ||
      (wake_fd_ = ::eventfd(0, 0)) < 0) {
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
  loop_thread_ = std::thread(&Server::loop, this);
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  const std::uint64_t wake = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &wake, sizeof(wake));
  loop_thread_.join();
  ::close(wake_fd_);
  wake_fd_ = -1;
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

void Server::loop() {
  const auto flush_interval =
      std::chrono::microseconds(config_.flush_interval_us);
  Clock::time_point flush_at = Clock::now();
  std::vector<pollfd> fds;
  std::vector<Session*> polled;  ///< polled[i] owns fds[i + 2]
  for (;;) {
    // The wake fd and the listener lead; poll skips them (fd -1) once
    // draining. A session with nothing left to read, run or send is
    // freed here, before the next wait. While read statements wait to be
    // handled, no session is read and the poll does not wait, so none of
    // them is overtaken by one sent after it.
    fds.assign({{draining_ ? -1 : wake_fd_, POLLIN, 0},
                {listen_fd_, POLLIN, 0}});
    polled.clear();
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      Session& s = it->second;
      if (s.input_closed && s.unsent() == 0 && s.queue.empty()) {
        if (s.fd >= 0) ::close(s.fd);
        disconnects_.inc();
        it = sessions_.erase(it);
        continue;
      }
      short events = 0;
      if (!s.input_closed && s.unsent() <= kOutboundHighWater && !unserved_)
        events |= POLLIN;
      if (s.unsent() > 0) events |= POLLOUT;
      if (events != 0) {
        fds.push_back({s.fd, events, 0});
        polled.push_back(&s);
      }
      ++it;
    }
    if (draining_ && sessions_.empty()) return;

    // A partial epoch waits at most flush_interval after the last input.
    timespec wait{};
    if (pending_total_ > 0 && !unserved_) {
      const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::max(flush_at - Clock::now(), Clock::duration::zero()));
      wait.tv_sec = static_cast<time_t>(left.count() / 1'000'000'000);
      wait.tv_nsec = static_cast<long>(left.count() % 1'000'000'000);
    }
    if (::ppoll(fds.data(), fds.size(),
                pending_total_ > 0 || unserved_ ? &wait : nullptr, nullptr) < 0)
      continue;  // EINTR

    saw_input_ = false;
    if (fds[1].revents & POLLIN) accept_all();
    if (fds[0].revents & POLLIN) begin_drain();
    for (std::size_t i = 0; i < polled.size(); ++i) {
      Session& s = *polled[i];
      const short ready = fds[i + 2].revents;
      if ((ready & (POLLOUT | POLLERR | POLLHUP)) && s.unsent() > 0) flush(s);
      if ((ready & (POLLIN | POLLERR | POLLHUP)) && !s.input_closed)
        read_input(s);
    }
    serve_input();
    if (saw_input_)
      flush_at = Clock::now() + flush_interval;
    else if (pending_total_ > 0 && Clock::now() >= flush_at)
      run_epoch();
  }
}

void Server::accept_all() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;  // backlog empty; an error retries on the next poll
    sessions_[next_session_id_++].fd = fd;
    connections_.inc();
    saw_input_ = true;
  }
}

void Server::read_input(Session& s) {
  std::uint8_t buf[4096];
  const ssize_t n = ::recv(s.fd, buf, sizeof(buf), 0);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
    return;
  if (n <= 0) {
    // EOF or a reset. The write side stays usable: admitted queries still
    // get their answers, and the session closes once nothing is owed.
    s.input_closed = true;
    saw_input_ = true;
    return;
  }
  s.decoder.feed(buf, static_cast<std::size_t>(n));
  unserved_ = true;
}

void Server::serve_input() {
  for (bool served = true; served;) {
    served = false;
    for (auto& [id, s] : sessions_) {
      Frame frame;
      if (s.input_closed || s.unsent() > kOutboundHighWater) continue;
      if (!s.decoder.next(&frame)) {
        if (s.decoder.corrupt()) bad_frame(s, 0);
        continue;
      }
      served = true;
      saw_input_ = true;
      PayloadReader r(frame.payload);
      const std::uint64_t request_id = r.u64();
      if (!r.ok()) {
        bad_frame(s, 0);
      } else if (frame.type == FrameType::Query) {
        handle_query(s, request_id, r.rest_text());
      } else if (frame.type == FrameType::Insert) {
        handle_insert(s, request_id, r.rest_text());
      } else if (frame.type == FrameType::SubscribeMetrics) {
        std::vector<std::uint8_t> body;
        put_text(body, backend_->metrics().scrape().to_json());
        write_frame(s, encode_result(request_id, ResultKind::Metrics, body));
      } else {
        bad_frame(s, request_id);
      }
      if (pending_total_ >= epoch_size_) {
        // The loop's other fds get a turn between epochs; what is left
        // waits for the next call.
        while (pending_total_ >= epoch_size_) run_epoch();
        unserved_ = true;
        return;
      }
    }
  }
  unserved_ = false;
}

void Server::handle_insert(Session& s, std::uint64_t request_id,
                           const std::string& text) {
  storage::Values values;
  std::string error;
  if (!parse_insert(text, config_.backend.dims, &values, &error)) {
    parse_errors_.inc();
    write_frame(s, encode_error(request_id, ErrorCode::ParseError, error));
    return;
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
  write_frame(s, encode_result(request_id, ResultKind::Insert, body));
}

void Server::bad_frame(Session& s, std::uint64_t request_id) {
  parse_errors_.inc();
  write_frame(s, encode_error(request_id, ErrorCode::BadFrame,
                              "malformed frame"));
  s.input_closed = true;
}

void Server::handle_query(Session& s, std::uint64_t request_id,
                          const std::string& text) {
  // Placeholder with valid bounds (RangeQuery rejects empty ones);
  // parse_query overwrites it on success.
  storage::RangeQuery::Bounds one;
  one.push_back(ClosedInterval{0.0, 1.0});
  storage::QueryRequest query{storage::RangeQuery{one}};
  std::string error;
  if (!parse_query(text, config_.backend.dims, &query, &error)) {
    parse_errors_.inc();
    write_frame(s, encode_error(request_id, ErrorCode::ParseError, error));
    return;
  }
  if (s.queue.size() >= config_.max_inflight_per_client) {
    rejected_.inc();
    write_frame(s, encode_error(request_id, ErrorCode::TooManyInFlight,
                                "client in-flight limit of " +
                                    std::to_string(
                                        config_.max_inflight_per_client) +
                                    " reached"));
    return;
  }
  if (pending_total_ >= config_.max_pending_global) {
    rejected_.inc();
    write_frame(s, encode_error(request_id, ErrorCode::ServerBusy,
                                "server pending limit of " +
                                    std::to_string(
                                        config_.max_pending_global) +
                                    " reached"));
    return;
  }
  s.queue.push_back(PendingQuery{request_id, std::move(query)});
  ++pending_total_;
  queries_in_.inc();
}

void Server::begin_drain() {
  draining_ = true;
  ::close(listen_fd_);
  listen_fd_ = -1;
  for (auto& [id, s] : sessions_) s.input_closed = true;
  while (pending_total_ > 0) run_epoch();
}

void Server::run_epoch() {
  const std::size_t n = std::min(epoch_size_, pending_total_);
  if (n == 0) return;

  struct Issued {
    Session* session;
    std::uint64_t request_id;
    engine::QueryEngine::Ticket ticket;
  };
  std::vector<Issued> issued;
  issued.reserve(n);

  engine::QueryEngine& eng = backend_->engine();
  const net::NodeId sink = backend_->sink();
  // Fairness: one query per client per turn, so a deep queue on one
  // connection cannot crowd the others out of the epoch. The turn order
  // is accept order; pending_total_ counts exactly the queued queries.
  auto it = sessions_.lower_bound(rr_next_);
  while (issued.size() < n) {
    if (it == sessions_.end()) it = sessions_.begin();
    Session& s = it->second;
    ++it;
    if (s.queue.empty()) continue;
    PendingQuery p = std::move(s.queue.front());
    s.queue.pop_front();
    issued.push_back(Issued{&s, p.request_id, eng.submit(sink, p.query)});
  }
  rr_next_ = it == sessions_.end() ? next_session_id_ : it->first;
  pending_total_ -= issued.size();
  eng.flush();
  // Statements sent while the batch ran are older than any sent in answer
  // to its replies: read them first, so they are admitted first.
  for (auto& [id, s] : sessions_)
    if (!s.input_closed && s.unsent() <= kOutboundHighWater) read_input(s);
  occupancy_.add(static_cast<double>(issued.size()));
  epochs_.inc();

  for (const Issued& i : issued) {
    storage::QueryReceipt r = eng.take(i.ticket);
    write_frame(*i.session, encode_query_result(i.request_id, r.events));
    queries_out_.inc();
  }
}

void Server::write_frame(Session& s, std::vector<std::uint8_t> frame) {
  if (s.fd < 0) return;  // peer gone: the reply is dropped
  if (s.out.empty())
    s.out = std::move(frame);
  else
    s.out.insert(s.out.end(), frame.begin(), frame.end());
  flush(s);
}

void Server::flush(Session& s) {
  const ssize_t n =
      ::send(s.fd, s.out.data() + s.out_sent, s.unsent(), MSG_NOSIGNAL);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    // Dead peer: drop what it was owed and read nothing more; the session
    // is freed once its admitted queries have run.
    ::close(s.fd);
    s.fd = -1;
    s.input_closed = true;
    s.out.clear();
    s.out_sent = 0;
    return;
  }
  s.out_sent += static_cast<std::size_t>(n);
  // Drop the sent prefix once it is at least half the buffer, so a peer
  // that never quite catches up does not grow it without bound.
  if (s.out_sent * 2 >= s.out.size()) {
    s.out.erase(s.out.begin(),
                s.out.begin() + static_cast<std::ptrdiff_t>(s.out_sent));
    s.out_sent = 0;
  }
}

}  // namespace poolnet::server
