// Parallel experiment engine: run independent (config, seed) testbeds on
// a work-stealing thread pool and merge their results deterministically.
//
// Every figure sweep is embarrassingly parallel — each Testbed owns its
// RNGs, Networks, routers and route caches, so two testbeds never share
// mutable state. The engine exploits that: jobs are full testbed runs
// (deploy + insert + query batch) and results come back in SUBMISSION
// order, so a caller that merges them in that order (merge_into over a
// group's seeds) gets byte-identical totals at any thread count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "obs/telemetry.h"
#include "routing/route_cache.h"
#include "storage/store_config.h"

namespace poolnet::benchsup {

/// Work-stealing pool: one deque per worker, submissions round-robin,
/// idle workers steal from the back of their siblings' deques. Tasks are
/// coarse (whole testbeds, tens of milliseconds to minutes), so per-deque
/// mutexes are plenty — the pool spends its life inside tasks, not locks.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; runnable immediately.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  bool try_pop(std::size_t worker, std::function<void()>& task);
  void worker_loop(std::size_t worker);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex state_mu_;
  std::condition_variable work_cv_;   ///< wakes sleeping workers
  std::condition_variable idle_cv_;   ///< wakes wait_idle
  std::size_t pending_ = 0;           ///< submitted, not yet finished
  std::size_t unclaimed_ = 0;         ///< submitted, not yet popped
  std::size_t next_queue_ = 0;        ///< round-robin submission target
  bool stop_ = false;
};

/// Number of workers to use when the user didn't say: the hardware
/// concurrency, or 1 when the runtime can't report it.
std::size_t default_threads();

/// Evaluates `fn(i)` for i in [0, n) on `threads` workers and returns the
/// results indexed by i — identical to the serial loop in content and
/// order. threads <= 1 (or n <= 1) runs serially in the caller. The first
/// exception (by index) is rethrown after all jobs finish.
///
/// Indices are submitted in CHUNKS (~4 per worker) rather than one task
/// per index: each submission is one allocation and one wakeup, so large
/// sweeps don't drown coarse work in queue traffic. Work stealing keeps
/// the tail balanced when chunk runtimes vary.
template <typename T, typename Fn>
std::vector<T> parallel_map(std::size_t n, std::size_t threads, Fn&& fn) {
  std::vector<T> out(n);
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) out[i] = fn(i);
    return out;
  }
  std::vector<std::exception_ptr> errors(n);
  {
    const std::size_t workers = std::min(threads, n);
    const std::size_t chunk = std::max<std::size_t>(1, n / (workers * 4));
    ThreadPool pool(workers);
    for (std::size_t begin = 0; begin < n; begin += chunk) {
      const std::size_t end = std::min(n, begin + chunk);
      pool.submit([&out, &errors, &fn, begin, end] {
        for (std::size_t i = begin; i < end; ++i) {
          try {
            out[i] = fn(i);
          } catch (...) {
            errors[i] = std::current_exception();
          }
        }
      });
    }
    pool.wait_idle();
  }
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
  return out;
}

/// Shared bench command line, parsed through the cli::ArgParser option
/// table so every bench and the CLI accept identical spellings:
/// --threads N (default: hardware concurrency),
/// --route-cache=on|off|lru:<bytes>, and the query-engine trio
/// --batch=<n|off>, --batch-deadline=<events>, --qcache=on|off|ttl:<n>,
/// and the telemetry pair --metrics=off|json|csv[:path], --trace=<n>,
/// and the central-store selector --store=flat|paged[:...].
/// Prints usage and exits(2) on anything it doesn't recognize; --help
/// prints the generated help and exits(0).
struct BenchOptions {
  std::size_t threads = 1;
  routing::RouteCacheConfig route_cache;
  engine::QueryEngineConfig engine;
  obs::TelemetryConfig telemetry;
  storage::StoreConfig store;
};
BenchOptions parse_bench_options(int argc, char** argv);

}  // namespace poolnet::benchsup
