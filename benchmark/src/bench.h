// Shared vocabulary of the poolbench driver: run options, the outcome
// every workload returns, fixed-memory recorders for latencies and rates,
// and the host-speed probe every timing is adjusted by.
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace poolbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;         ///< workload seed: queries, inserts, arrivals
  std::uint64_t deploy_seed = 1;  ///< deployment and preloaded data
  double seconds = 15.0;          ///< length of the measured phase
  bool trace = false;             ///< per-layer pass instead of end-to-end
  bool smoke = false;             ///< 300-node deployment for a quick check
  std::string poolnetd;           ///< daemon binary for the serve workloads
  std::string out_dir = ".";      ///< where <workload>.trace.json is written

  std::size_t nodes() const { return smoke ? 300 : 2700; }
  /// Warm-up before the measured phase: a tenth of it, as the 2 s of a
  /// 20 s phase the workloads were designed around.
  double warmup_seconds() const { return seconds / 10.0; }
};

/// What a workload reports. `metrics` holds every end-to-end figure for an
/// untraced run and every per-layer figure for a traced one, as measured;
/// main() checks the set against its metric table and adjusts the
/// end-to-end timings listed in `slowdown` (see HostSpeed).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed correctness gates
  std::map<std::string, double> metrics;
  /// Host-bound end-to-end timings and the slowdown of the phase that
  /// measured each. Timings the host's speed does not set, such as an
  /// open loop's offered rate, are left out and stay as measured.
  std::map<std::string, double> slowdown;
  double host_slowdown = 1.0;  ///< of the measured phase (bench.host_slowdown)

  void fail(std::string why) { errors.push_back(std::move(why)); }

  /// Enters `names` in `slowdown` with the slowdown of the phase that
  /// measured them.
  void host_bound(std::initializer_list<const char*> names, double phase_slowdown);
};

/// Nearest-rank quantile of a small sample (0 when empty).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set of this process so far, in MB.
double self_peak_rss_mb();

/// Latencies in ms in logarithmic bins 0.2% wide (100 ns to 1000 s), so a
/// run's memory does not grow with how far it got.
class Histogram {
 public:
  void add(double ms);
  /// Nearest-rank quantile, as the mean of the samples in its bin.
  double quantile(double q) const;
  std::uint64_t count() const { return count_; }

 private:
  std::vector<std::uint64_t> counts_;
  std::vector<double> sums_;
  std::uint64_t count_ = 0;
};

/// Operations completed per second over [start, start + seconds), as the
/// median over ten equal windows, so one burst of host noise cannot move
/// the figure. By busy time, a window's rate is its operations over the
/// seconds they spent inside the call; by wall time, over its width.
class Windows {
 public:
  Windows(Clock::time_point start, double seconds);

  /// An operation that ended at `end` after `busy_s` inside the call;
  /// ignored outside the span.
  void add(Clock::time_point end, double busy_s = 0.0);
  double rate_by_busy() const;
  double rate_by_wall() const;

 private:
  static constexpr int kWindows = 10;
  Clock::time_point start_;
  double width_;
  double count_[kWindows] = {};
  double busy_[kWindows] = {};
};

/// The host's momentary speed, from timing a fixed CPU kernel.
///
/// On a shared machine the same work runs up to a third slower from one
/// minute to the next, and each vCPU drifts on its own, so repeating the
/// work within a run does not average that away. Every workload therefore
/// samples the kernel on the vCPU that does its measured work: the direct
/// workloads on their measuring thread, before every set-up and every
/// 100 ms of the measured phase; the serve workloads on a thread pinned to
/// the daemon's vCPU (see run_serve). main() reports their host-bound
/// end-to-end timings at the kernel's reference speed, each by the
/// slowdown of the phase that measured it: times divided by it, rates
/// multiplied by it. The raw figures are printed beside the adjusted ones;
/// per-layer figures stay raw, with the slowdown beside them as
/// bench.host_slowdown.
class HostSpeed {
 public:
  /// Times the kernel once (about half a millisecond).
  void sample();
  /// sample() when 100 ms have passed since the last sample; true if it
  /// sampled.
  bool tick();
  /// Median kernel time over its reference time: 1.2 = the host ran 20%
  /// slower than the machine the reference was taken on. 1 if unsampled.
  double slowdown() const;
  /// The same over the samples taken in [from, to] alone.
  double slowdown(Clock::time_point from, Clock::time_point to) const;

 private:
  struct Sample {
    Clock::time_point at;
    double ms;
  };
  std::vector<Sample> samples_;
};

Outcome run_serve(const Options& opt);  // serve_saturate, serve_trickle
Outcome run_sweep(const Options& opt);  // sweep_pool, sweep_dim, sweep_ght
Outcome run_churn(const Options& opt);  // store_churn

}  // namespace poolbench
