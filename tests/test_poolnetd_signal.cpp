// poolnetd's shutdown contract: ONE SIGTERM, sent the moment the daemon
// announces its listening socket, drains it and exits 0. The signal lands
// while the main thread is somewhere between starting the server and
// waiting for the stop signal, so a daemon that can miss a signal in that
// window hangs here instead of exiting.
#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>

namespace {

/// Reads `fd` until `needle` has appeared or `timeout` passes.
bool read_until(int fd, const std::string& needle,
                std::chrono::milliseconds timeout, std::string* seen) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (seen->find(needle) == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left.count())) <= 0) continue;
    char buf[256];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) return false;  // EOF: the daemon died before listening
    seen->append(buf, static_cast<std::size_t>(n));
  }
  return true;
}

/// Waits up to `timeout` for `pid` to exit; returns its wait status, or
/// -1 after killing a daemon that did not exit in time.
int wait_exit(pid_t pid, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  int status = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    if (::waitpid(pid, &status, WNOHANG) == pid) return status;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, &status, 0);
  return -1;
}

TEST(PoolnetdSignal, OneSigtermAfterListeningAlwaysExitsZero) {
  for (int run = 0; run < 20; ++run) {
    int out[2];
    ASSERT_EQ(::pipe(out), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      ::execl(POOLNETD_PATH, "poolnetd", "--nodes", "40", "--port", "0",
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(out[1]);
    std::string seen;
    const bool listening = read_until(out[0], "listening on",
                                      std::chrono::seconds(30), &seen);
    if (listening) ::kill(pid, SIGTERM);
    const int status = wait_exit(pid, std::chrono::seconds(listening ? 5 : 0));
    ::close(out[0]);
    ASSERT_TRUE(listening) << "run " << run << ": " << seen;
    ASSERT_NE(status, -1) << "run " << run << ": no exit 5 s after SIGTERM";
    ASSERT_TRUE(WIFEXITED(status)) << "run " << run;
    EXPECT_EQ(WEXITSTATUS(status), 0) << "run " << run;
  }
}

}  // namespace
