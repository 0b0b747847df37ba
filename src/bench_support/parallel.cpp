#include "bench_support/parallel.h"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "cli/args.h"

namespace poolnet::benchsup {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  queues_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    queues_.push_back(std::make_unique<WorkerQueue>());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t target;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++pending_;
    ++unclaimed_;
    target = next_queue_;
    next_queue_ = (next_queue_ + 1) % queues_.size();
  }
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mu);
    queues_[target]->tasks.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(state_mu_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

bool ThreadPool::try_pop(std::size_t worker, std::function<void()>& task) {
  // Own deque first (front = oldest of my own submissions)...
  {
    std::lock_guard<std::mutex> lock(queues_[worker]->mu);
    if (!queues_[worker]->tasks.empty()) {
      task = std::move(queues_[worker]->tasks.front());
      queues_[worker]->tasks.pop_front();
      return true;
    }
  }
  // ...then steal from the back of a sibling's.
  for (std::size_t k = 1; k < queues_.size(); ++k) {
    const std::size_t victim = (worker + k) % queues_.size();
    std::lock_guard<std::mutex> lock(queues_[victim]->mu);
    if (!queues_[victim]->tasks.empty()) {
      task = std::move(queues_[victim]->tasks.back());
      queues_[victim]->tasks.pop_back();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t worker) {
  for (;;) {
    std::function<void()> task;
    if (try_pop(worker, task)) {
      {
        std::lock_guard<std::mutex> lock(state_mu_);
        --unclaimed_;
      }
      task();
      std::lock_guard<std::mutex> lock(state_mu_);
      if (--pending_ == 0) idle_cv_.notify_all();
      continue;
    }
    // Sleep until there is work to claim — no timed polling. `unclaimed_`
    // is bumped under state_mu_ BEFORE the task lands in its deque, so a
    // submit racing this worker's failed scan leaves the predicate true
    // and the worker re-scans instead of sleeping through the wakeup.
    std::unique_lock<std::mutex> lock(state_mu_);
    work_cv_.wait(lock, [this] { return stop_ || unclaimed_ > 0; });
    if (stop_ && unclaimed_ == 0) return;
  }
}

std::size_t default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

BenchOptions parse_bench_options(int argc, char** argv) {
  BenchOptions opts;
  opts.threads = default_threads();
  const char* prog = argc > 0 ? argv[0] : "bench";

  cli::ArgParser parser(prog, "poolnet benchmark");
  parser.add_option("threads", "0",
                    "worker threads (0 = hardware concurrency)");
  parser.add_option("route-cache", "on",
                    "Pool's route memoization: on, off or lru:<bytes> "
                    "(byte-bounded, k/m/g suffixes ok)");
  cli::add_engine_options(parser);
  cli::add_telemetry_options(parser);
  cli::add_store_options(parser);

  std::string error;
  const auto fail = [&]() {
    std::fprintf(stderr, "%s: %s\n\n%s", prog, error.c_str(),
                 parser.help().c_str());
    std::exit(2);
  };
  if (!parser.parse(argc, argv, &error)) fail();
  if (parser.help_requested()) {
    std::fputs(parser.help().c_str(), stdout);
    std::exit(0);
  }
  const auto threads = parser.int_option("threads", 0, 1024, &error);
  if (!threads) fail();
  if (*threads > 0) opts.threads = static_cast<std::size_t>(*threads);
  if (!parse_route_cache_spec(parser.option("route-cache"),
                              &opts.route_cache, &error)) {
    fail();
  }
  if (!cli::parse_engine_options(parser, &opts.engine, &error)) fail();
  if (!cli::parse_telemetry_options(parser, &opts.telemetry, &error)) fail();
  if (!cli::parse_store_options(parser, &opts.store, &error)) fail();
  return opts;
}

}  // namespace poolnet::benchsup
