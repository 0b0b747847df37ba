// The observability core: a metrics registry every subsystem reports
// through, and the Snapshot it scrapes into.
//
// Design constraints (DESIGN.md §10):
//  * Hot paths (route-cache probes, engine submits) increment through
//    pre-resolved handles — a counter add is an indexed bump on a
//    per-thread SHARD, no lock, no string hashing.
//  * parallel_map runs whole testbeds concurrently; shards keep the
//    registry contention-free (the only lock is taken once per thread, on
//    its first touch of a registry).
//  * Scrapes merge shards by summing unsigned integers, so the merged
//    totals are independent of which worker ran which deployment — the
//    metrics output is byte-identical at any thread count.
//
// Scrape discipline: scrape()/value() read shard cells without
// synchronization, so call them only after the incrementing threads have
// quiesced (parallel_map joins its pool before returning, which is the
// natural scrape point). Handles must not outlive their registry.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace poolnet::obs {

/// A merged, order-stable view of a registry (plus anything published
/// directly). Maps keep keys sorted, so emission is deterministic.
struct Snapshot {
  struct Hist {
    double bucket_width = 1.0;
    std::vector<std::uint64_t> buckets;
    std::uint64_t overflow = 0;

    std::uint64_t total() const;
    /// Smallest bucket upper edge covering fraction `q` of samples.
    double quantile(double q) const;
  };

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Hist> histograms;

  /// Per-node lanes (tx, rx, stored events, energy, ...), indexed by
  /// NodeId. Merging sums lane-wise, which aggregates load across
  /// same-topology deployments.
  std::map<std::string, std::vector<double>> series;

  /// Merges `other` in: counters/gauges/buckets/series add element-wise
  /// (series resize to the longer operand). Apply in deployment order for
  /// bit-stable floating-point sums.
  Snapshot& operator+=(const Snapshot& other);

  /// Canonical JSON document (sorted keys, "%.10g" floats): stable bytes
  /// for identical data regardless of thread count.
  std::string to_json() const;

  /// Flat CSV: section,name,index,value — one row per counter, gauge,
  /// histogram bucket and series lane.
  std::string to_csv() const;
};

/// String-keyed registry of counters and fixed-bucket histograms with
/// per-thread shards, plus scrape-time gauges.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Monotonic counter handle. Value-semantic and cheap to copy; add()
  /// bumps this thread's shard.
  class Counter {
   public:
    Counter() = default;
    void add(std::uint64_t n = 1) const;
    void inc() const { add(1); }
    /// Merged value across all shards (scrape discipline applies).
    std::uint64_t value() const;

   private:
    friend class MetricsRegistry;
    Counter(MetricsRegistry* reg, std::uint32_t slot)
        : reg_(reg), slot_(slot) {}
    MetricsRegistry* reg_ = nullptr;
    std::uint32_t slot_ = 0;
  };

  /// Fixed-bucket histogram handle over [0, width * buckets); larger
  /// samples land in the overflow cell.
  class Histogram {
   public:
    Histogram() = default;
    void add(double x) const;

   private:
    friend class MetricsRegistry;
    Histogram(MetricsRegistry* reg, std::uint32_t def)
        : reg_(reg), def_(def) {}
    MetricsRegistry* reg_ = nullptr;
    std::uint32_t def_ = 0;
  };

  /// Gets or registers a counter. Re-registering a name returns a handle
  /// to the same slot.
  Counter counter(const std::string& name);

  /// Gets or registers a histogram; the spec of the first registration
  /// wins.
  Histogram histogram(const std::string& name, double bucket_width,
                      std::size_t bucket_count);

  /// Scrape-time scalar (derived values: Gini, hit rates, wall-clock).
  /// Set from one thread at a time.
  void set_gauge(const std::string& name, double value);

  /// Merges every shard and the gauges into a Snapshot.
  Snapshot scrape() const;

  std::size_t metric_count() const;

 private:
  friend class Counter;
  friend class Histogram;

  enum class Kind : std::uint8_t { Counter, Histogram };

  struct Def {
    std::string name;
    Kind kind = Kind::Counter;
    std::uint32_t first_slot = 0;   ///< index into a shard's cell array
    std::uint32_t slot_count = 1;   ///< histograms: buckets + overflow
    double bucket_width = 1.0;
  };

  struct Shard {
    std::vector<std::uint64_t> cells;
  };

  /// This thread's cell for `slot`, creating/growing the shard on demand.
  std::uint64_t& cell(std::uint32_t slot);

  Shard* this_thread_shard();

  mutable std::mutex mu_;
  /// Append-only; deque keeps element references stable so histogram
  /// handles read their def without taking `mu_`.
  std::deque<Def> defs_;
  std::map<std::string, std::uint32_t> by_name_;  ///< name -> defs_ index
  std::vector<std::unique_ptr<Shard>> shards_;
  std::map<std::string, double> gauges_;
  std::uint32_t slots_ = 0;      ///< total cells a full shard needs
  std::uint64_t epoch_ = 0;      ///< process-unique registry identity
};

}  // namespace poolnet::obs
