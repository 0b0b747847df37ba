#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "bench.h"

extern char** environ;

namespace poolbench {

namespace {

constexpr int kReadyTimeoutMs = 60000;
constexpr int kDrainTimeoutMs = 20000;
constexpr int kResignalMs = 500;

enum class Read { Data, Eof, Timeout };

/// Appends whatever the pipe holds within `timeout_ms`.
Read read_some(int fd, std::string& into, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  const int r = ::poll(&p, 1, timeout_ms);
  if (r == 0) return Read::Timeout;
  if (r < 0) return errno == EINTR ? Read::Data : Read::Eof;
  char buf[512];
  const ssize_t n = ::read(fd, buf, sizeof(buf));
  if (n <= 0) return Read::Eof;
  into.append(buf, static_cast<std::size_t>(n));
  return Read::Data;
}

}  // namespace

Daemon::Daemon(const std::string& binary,
               const std::vector<std::string>& args, int cpu) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0)
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));

  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  const auto start = Clock::now();
  const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  out_fd_ = fds[0];
  if (rc != 0) {
    pid_ = -1;
    ::close(out_fd_);
    throw std::runtime_error("cannot start " + binary + ": " +
                             std::strerror(rc));
  }
  // The daemon starts its threads only once its deployment is built, tens
  // of milliseconds from now; each inherits this affinity.
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  std::string failure;
  if (::sched_setaffinity(pid_, sizeof(set), &set) != 0)
    failure = std::string("cannot pin ") + binary + ": " + std::strerror(errno);

  std::string out;
  const std::string marker = "listening on ";
  while (failure.empty()) {
    const auto at = out.find(marker);
    const auto eol = at == std::string::npos ? at : out.find('\n', at);
    if (eol != std::string::npos) {
      ready_s_ = seconds_between(start, Clock::now());
      const std::string line = out.substr(at, eol - at);
      port_ = static_cast<std::uint16_t>(
          std::atoi(line.c_str() + line.rfind(':') + 1));
      return;
    }
    if (read_some(out_fd_, out, kReadyTimeoutMs) != Read::Data)
      failure = binary + " exited or stalled before listening";
  }
  kill_and_reap();  // the destructor does not run when a constructor throws
  throw std::runtime_error(failure);
}

Daemon::~Daemon() { kill_and_reap(); }

void Daemon::kill_and_reap() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
}

Daemon::Exit Daemon::stop() {
  Exit exit;
  if (pid_ <= 0) return exit;
  // poolnetd checks its stop flag and then pause()s, so a SIGTERM landing
  // between the two is lost; while stdout stays silent, signal again.
  // The drain report ends its stdout; reading to EOF also keeps the pipe
  // from filling while it shuts down.
  std::string rest;
  Read r = Read::Timeout;
  for (int waited_ms = 0; r != Read::Eof && waited_ms < kDrainTimeoutMs;) {
    if (r == Read::Timeout) {
      ::kill(pid_, SIGTERM);
      waited_ms += kResignalMs;
    }
    r = read_some(out_fd_, rest, kResignalMs);
  }
  if (r != Read::Eof) ::kill(pid_, SIGKILL);  // stalled drain: not clean
  int status = 0;
  rusage ru{};
  if (::wait4(pid_, &status, 0, &ru) == pid_) {
    exit.clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    exit.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  }
  pid_ = -1;
  ::close(out_fd_);
  out_fd_ = -1;
  return exit;
}

}  // namespace poolbench
