// Memoizing decorator over any Router (normally Gpsr).
//
// GPSR is deterministic over a static unit-disk graph, so a (src, dst)
// pair always yields the same path — yet Pool recomputes the same
// splitter→cell legs for every query and DIM re-walks the same zone legs.
// RouteCache stores each computed RouteResult and replays it verbatim, so
// the traffic ledger sees byte-identical paths whether the cache is on or
// off; only wall-clock changes. That holds under faults too: the cache
// remembers the inner router's Network::dead_count(), and the first lookup
// after it changes drops every stored path through a dead node, so no
// path through a node killed after it was stored is ever replayed.
//
// Keying: node routes are keyed (src, dst). Location routes are bucketed
// by (src, ⌊x/q⌋, ⌊y/q⌋) with q = location_quantum (the Pool α-grid, so
// every cell-center route of a cell lands in one bucket); the exact
// destination point is stored alongside and compared on lookup, which
// makes quantization a pure hashing concern — a cached result is only
// returned for the bit-identical destination that produced it.
//
// Bounded-memory mode: max_bytes > 0 turns on LRU eviction over an
// approximate per-entry byte count (path storage + bookkeeping).
//
// NOT thread-safe: one RouteCache per testbed, like the Network it routes
// over. The parallel experiment engine gives each concurrent testbed its
// own networks, routers and caches.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/object_pool.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "routing/router.h"

namespace poolnet::routing {

struct RouteCacheConfig {
  bool enabled = true;

  /// LRU byte budget; 0 = unbounded (no eviction).
  std::size_t max_bytes = 0;

  /// Bucket pitch for location-route keys, in meters (use the Pool cell
  /// size α so cell-center routes share buckets). <= 0 buckets by the
  /// exact coordinate bits.
  double location_quantum = 5.0;

  /// Routes LONGER than this many hops are recomputed rather than
  /// stored (0 = store everything). Counterintuitive but measured: the
  /// routes that repeat across queries are the short intra-pool and
  /// zone-adjacency legs, while long cross-field legs are sink-specific
  /// one-shots — storing those only bloats the table past the CPU cache
  /// and slows every probe. See DESIGN.md "Performance engineering".
  std::size_t max_hops = 6;
};

/// Point-in-time view of a cache's counters. The counters themselves
/// live in a MetricsRegistry (under "<prefix>.hits" etc.); this struct
/// is the thin view stats() assembles from them, kept for ergonomic
/// field access and derived rates.
struct RouteCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidated = 0;  ///< entries dropped by note_dead()
  std::size_t entries = 0;
  std::size_t bytes = 0;  ///< approximate resident size

  double hit_rate() const {
    const double total = static_cast<double>(hits + misses);
    return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
  }
};

/// Parses a --route-cache spec: "on", "off" or "lru:<bytes>" (with
/// optional k/m/g suffix on the byte count). Returns false and sets
/// `error` on a malformed spec; `config->location_quantum` is untouched.
bool parse_route_cache_spec(const std::string& spec, RouteCacheConfig* config,
                            std::string* error);

class RouteCache final : public Router {
 public:
  /// With a non-null `metrics`, the hit/miss/eviction/invalidation
  /// counters are registered there under `<prefix>.hits` etc., so a
  /// testbed-wide scrape sees them next to every other subsystem.
  /// Without one, the cache owns a private registry — same code path,
  /// nothing to scrape unless asked via stats().
  ///
  /// `path_pool` (optional, not owned, must outlive the cache) supplies
  /// the backing store for cached path vectors: stored copies draw their
  /// buffers from the pool and return them on invalidation/eviction, so
  /// churn under failures recycles capacity instead of round-tripping the
  /// heap. Stored VALUES are identical with or without a pool.
  explicit RouteCache(const Router& inner, RouteCacheConfig config = {},
                      obs::MetricsRegistry* metrics = nullptr,
                      const std::string& prefix = "route_cache",
                      common::BufferPool<net::NodeId>* path_pool = nullptr);

  RouteResult route_to_node(net::NodeId src, net::NodeId dst) const override;
  RouteResult route_to_location(net::NodeId src, Point dest) const override;

  /// Scratch forms: a hit copies the stored route into `out` (capacity
  /// reused — the probe itself never allocates); a miss routes through
  /// the inner router's scratch form.
  void route_to_node_into(net::NodeId src, net::NodeId dst,
                          RouteResult& out) const override;
  void route_to_location_into(net::NodeId src, Point dest,
                              RouteResult& out) const override;

  /// Drops every cached route whose path traverses `dead` (in both
  /// storage modes) so a stale path through a crashed node is never
  /// replayed, then forwards the notice to the inner router.
  void note_dead(net::NodeId dead) const override;

  const RouteCacheConfig& config() const { return config_; }

  /// Thin view over the registry counters plus the resident-size levels.
  RouteCacheStats stats() const;

  /// Drops every entry (stats counters are kept).
  void clear();

 private:
  /// One cache key: node routes use (src, dst, kind 0); location routes
  /// use (src, ⌊x/q⌋, ⌊y/q⌋, kind 1).
  struct Key {
    std::uint64_t src_kind = 0;
    std::int64_t a = 0;
    std::int64_t b = 0;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };

  /// Location buckets hold (exact destination, result) pairs; node routes
  /// always hold exactly one pair with an ignored Point.
  struct Entry {
    std::vector<std::pair<Point, RouteResult>> items;
    std::size_t bytes = 0;
    std::list<Key>::iterator lru_pos;
  };

  Key node_key(net::NodeId src, net::NodeId dst) const;
  Key location_key(net::NodeId src, Point dest) const;

  /// The node_index_ slot holding `key`, or the empty slot where it
  /// belongs.
  std::size_t node_slot(std::uint64_t key) const;

  /// Sizes node_index_ for node_keys_ (at most half full) and re-indexes
  /// every stored node route.
  void rebuild_node_index() const;

  /// Moves `it` to the MRU position and returns its entry.
  Entry& touch(std::unordered_map<Key, Entry, KeyHash>::iterator it) const;

  /// Charges `delta` fresh bytes and evicts LRU entries past the budget.
  void account_and_evict(std::size_t delta) const;

  static std::size_t result_bytes(const RouteResult& r);

  /// Deep copy of `r` for storage, drawing the path buffer from the pool
  /// when one is attached.
  RouteResult copy_for_store(const RouteResult& r) const;

  /// Returns a dropped entry's path buffer to the pool.
  void recycle(RouteResult&& r) const;

  /// Drops every stored route with a node on its path for which
  /// `dropped(node)` holds (in both storage modes).
  void drop_routes(const std::function<bool(net::NodeId)>& dropped) const;

  /// Drops the routes through nodes killed since the last look, when the
  /// network's dead_count() has moved.
  void forget_new_deaths() const {
    if (net_ != nullptr && net_->dead_count() != seen_dead_) {
      seen_dead_ = net_->dead_count();
      drop_routes([this](net::NodeId n) { return !net_->alive(n); });
    }
  }

  const Router& inner_;
  const net::Network* net_;            ///< inner_.network(); may be null
  mutable std::size_t seen_dead_ = 0;  ///< net_->dead_count() last seen
  RouteCacheConfig config_;
  common::BufferPool<net::NodeId>* path_pool_;
  mutable std::unordered_map<Key, Entry, KeyHash> map_;
  mutable std::list<Key> lru_;  ///< front = most recently used
  /// Unbounded-mode fast path for node routes: the stored routes with
  /// their (src, dst) keys in step, and an open-addressing index over the
  /// keys (linear probing, entry index + 1 per slot, 0 = empty, at most
  /// half full). A probe costs a hash and a few compares however many
  /// routes a source accumulates (~100 per node in long GHT k-NN runs).
  /// Kept out of map_ because a map node plus an items vector per stored
  /// route gave ~23% lower end-to-end qps on the GHT and DIM sweeps
  /// (DESIGN.md §7). LRU mode uses the map so eviction stays uniform.
  mutable std::vector<std::uint64_t> node_keys_;
  mutable std::vector<RouteResult> node_routes_;
  mutable std::vector<std::uint32_t> node_index_;

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  ///< fallback
  obs::MetricsRegistry::Counter hits_, misses_, evictions_, invalidated_;
  mutable std::size_t entries_ = 0;  ///< level, not monotonic
  mutable std::size_t bytes_ = 0;    ///< level, not monotonic
};

}  // namespace poolnet::routing
