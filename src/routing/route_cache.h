// Memoizing decorator over any Router (normally Gpsr).
//
// GPSR is deterministic over a static unit-disk graph, so a (src, dst)
// pair always yields the same path — yet Pool recomputes the same
// splitter→cell legs for every query and DIM re-walks the same zone legs.
// RouteCache replays a stored RouteResult verbatim, so the traffic ledger
// sees byte-identical paths whether the cache is on or off; only
// wall-clock changes. That holds under faults too: the cache
// remembers the inner router's Network::dead_count(), and the first lookup
// after it changes drops every stored path through a dead node, so no
// path through a node killed after it was stored is ever replayed.
//
// Admission on the second sighting: a miss stores its route only when
// its (src, dst) key recurs while a small direct-mapped window of recently
// declined keys still holds it (TinyLFU's doorkeeper, and the rule Gpsr's
// greedy memo follows). A leg seen once, such as GHT's insert and flood
// legs to hashed homes, is returned unstored, so the store and its index
// hold only legs that recur and stay small enough to probe in cache. The
// window holds keys, never paths: a route is always stored as computed at
// its admitting miss, so admission cannot replay a path across a kill.
//
// One store: the routes sit in dense arrays with their (src, dst) keys in
// step, under an open-addressing index over the keys. A probe costs a
// hash and a few compares however many routes a source accumulates.
//
// Byte-bounded mode: max_bytes > 0 evicts from that same store with a
// clock sweep over the dense arrays (one reference bit per route, set on
// store and on hit), charging each route what the store holds for it.
// In the unbounded default a hit writes no reference bit.
//
// NOT thread-safe: one RouteCache per testbed, like the Network it routes
// over. The parallel experiment engine gives each concurrent testbed its
// own networks, routers and caches.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/network.h"
#include "obs/metrics.h"
#include "routing/router.h"

namespace poolnet::routing {

struct RouteCacheConfig {
  bool enabled = true;

  /// Byte budget over the stored routes; 0 = unbounded (no eviction).
  std::size_t max_bytes = 0;

  /// Routes LONGER than this many hops are recomputed rather than
  /// stored (0 = store everything). Counterintuitive but measured: the
  /// routes that repeat across queries are the short intra-pool and
  /// zone-adjacency legs, while long cross-field legs are sink-specific
  /// one-shots — storing those only bloats the table past the CPU cache
  /// and slows every probe. See DESIGN.md "Performance engineering".
  std::size_t max_hops = 5;
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
  std::size_t bytes = 0;  ///< what the store holds for its routes

  double hit_rate() const {
    const double total = static_cast<double>(hits + misses);
    return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
  }
};

/// Parses a --route-cache spec: "on", "off" or "lru:<bytes>" (a byte
/// bound, with optional k/m/g suffix). Returns false and sets `error` on
/// a malformed spec.
bool parse_route_cache_spec(const std::string& spec, RouteCacheConfig* config,
                            std::string* error);

class RouteCache final : public Router {
 public:
  /// With a non-null `metrics`, the hit/miss/eviction/invalidation
  /// counters are registered there under `<prefix>.hits` etc., so a
  /// testbed-wide scrape sees them next to every other subsystem.
  /// Without one, the cache owns a private registry — same code path,
  /// nothing to scrape unless asked via stats().
  explicit RouteCache(const Router& inner, RouteCacheConfig config = {},
                      obs::MetricsRegistry* metrics = nullptr,
                      const std::string& prefix = "route_cache");

  /// A hit copies the stored route into `out` (capacity reused — the
  /// probe itself never allocates); a miss routes through the inner
  /// router.
  void route_to_node_into(net::NodeId src, net::NodeId dst,
                          RouteResult& out) const override;

  /// Drops every cached route whose path traverses `dead` so a stale path
  /// through a crashed node is never replayed, then forwards the notice
  /// to the inner router.
  void note_dead(net::NodeId dead) const override;

  const RouteCacheConfig& config() const { return config_; }

  /// Thin view over the registry counters plus the resident-size levels.
  RouteCacheStats stats() const;

 private:
  /// The index slot holding `key`, or the empty slot where it belongs.
  std::size_t slot_of(std::uint64_t key) const;

  /// Sizes index_ for keys_ (at most half full) and re-indexes every
  /// stored route.
  void rebuild_index() const;

  /// Stores `r` under `key` in the empty index slot `slot`.
  void store(std::size_t slot, std::uint64_t key, const RouteResult& r) const;

  /// Removes stored route `i`: unlinks its index slot and moves the last
  /// route into its place.
  void erase(std::size_t i) const;

  /// Clock sweep: evicts unreferenced routes, clearing reference bits on
  /// the way, until the store fits max_bytes.
  void evict_to_budget() const;

  /// What the store holds for one route: its key, its RouteResult, its
  /// path, its reference bit and the two index slots a half-full index
  /// keeps per route.
  static std::size_t entry_bytes(const RouteResult& r);

  /// Drops every stored route with a node on its path for which
  /// `dropped(node)` holds.
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
  /// The stored routes, their (src, dst) keys and clock reference bits in
  /// step, and an open-addressing index over the keys (linear probing,
  /// route index + 1 per slot, 0 = empty, at most half full).
  mutable std::vector<std::uint64_t> keys_;
  mutable std::vector<RouteResult> routes_;
  mutable std::vector<std::uint8_t> referenced_;
  mutable std::vector<std::uint32_t> index_;
  mutable std::size_t hand_ = 0;  ///< clock hand into the dense arrays
  /// Admission window: recently declined keys, one per slot of a
  /// direct-mapped table indexed by the key's hash, stored as ~key so
  /// that 0 is empty ((kNoNode, kNoNode) is never routed).
  static constexpr std::size_t kWindowKeys = 4096;
  mutable std::vector<std::uint64_t> window_;

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  ///< fallback
  obs::MetricsRegistry::Counter hits_, misses_, evictions_, invalidated_;
  mutable std::size_t bytes_ = 0;  ///< level, not monotonic
};

}  // namespace poolnet::routing
