// One poolnetd child process: spawned with its stdout on a pipe, ready once
// it prints its "listening on <host>:<port>" line, stopped with SIGTERM
// (the daemon drains and exits 0) and reaped with its resource usage.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace poolbench {

class Daemon {
 public:
  /// Spawns `binary` with `args`, pinned to CPU `cpu`, and blocks until it
  /// listens. Throws std::runtime_error when it cannot be started or
  /// pinned, or exits first.
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         int cpu);

  /// Kills and reaps a daemon that was not stopped.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }

  /// Seconds from spawn to the listening line: deployment, preload and
  /// socket set-up, as a user starting the daemon waits for them.
  double ready_seconds() const { return ready_s_; }

  struct Exit {
    bool clean = false;     ///< exited with status 0
    double peak_rss_mb = 0; ///< the process's peak resident set
  };

  /// SIGTERM, wait for the drain to finish, reap.
  Exit stop();

 private:
  void kill_and_reap();

  pid_t pid_ = -1;
  int out_fd_ = -1;  ///< read end of the child's stdout
  std::uint16_t port_ = 0;
  double ready_s_ = 0.0;
};

}  // namespace poolbench
