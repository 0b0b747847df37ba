// Sink-side result cache for the query engine.
//
// Keyed on the NORMALIZED query rectangle — the bounds after don't-care
// rewriting, which is exactly the predicate matches() evaluates — so two
// queries differing only in their specification mask share one entry.
// Entries age out after a TTL of logical engine events, and invalidation
// is PRECISE: an insert whose value vector falls inside a cached
// rectangle erases that entry, while an insert outside it provably cannot
// change the answer and leaves the entry alone. expire_before-style data
// aging removes exactly the stored events detected before the cutoff, so
// cached answers stay exact after dropping those same events in place —
// entries survive aging instead of being cleared wholesale.
//
// Entries live in dense slots, and each rectangle is registered in every
// cell of a fixed grid (kGridSide cells per axis over the first
// kGridAxes value dimensions) that it overlaps. An insert tests only the
// entries registered in its own point's cell. The value-to-cell map is
// monotone and clamps at the domain edges, so lo <= v <= hi implies
// cell(lo) <= cell(v) <= cell(hi): every rectangle that contains the
// point is in that cell, and the exact containment test over every
// dimension decides the rest.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "storage/event.h"
#include "storage/range_query.h"

namespace poolnet::engine {

struct ResultCacheConfig {
  bool enabled = false;

  /// Entry lifetime in logical engine events (see QueryEngine::now());
  /// 0 = entries never expire by age.
  std::uint64_t ttl = 0;
};

/// Parses a --qcache spec: "on", "off" or "ttl:<events>". Returns false
/// and sets `error` on a malformed spec.
bool parse_qcache_spec(const std::string& spec, ResultCacheConfig* config,
                       std::string* error);

/// Point-in-time view of the cache counters. The counters live in a
/// MetricsRegistry under "<prefix>.hits" etc.; stats() assembles this
/// struct from them on demand.
struct ResultCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t invalidations = 0;  ///< entries erased by a covering insert
  std::uint64_t expirations = 0;    ///< entries erased by TTL

  double hit_rate() const {
    const double total = static_cast<double>(hits + misses);
    return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
  }
};

class ResultCache {
 public:
  /// With a non-null `metrics`, counters register there under
  /// `<prefix>.hits` etc. (shared scrape surface); otherwise the cache
  /// owns a private registry.
  explicit ResultCache(ResultCacheConfig config,
                       obs::MetricsRegistry* metrics = nullptr,
                       const std::string& prefix = "result_cache");

  bool enabled() const { return config_.enabled; }
  const ResultCacheConfig& config() const { return config_; }

  /// Thin view assembled from the registry counters.
  ResultCacheStats stats() const;

  std::size_t size() const { return rects_.size(); }

  /// Fresh cached result for `q`, or nullptr (counting a miss). An entry
  /// older than the TTL is erased on contact and reported as a miss. The
  /// pointer is valid until the next call that stores or erases.
  const std::vector<storage::Event>* lookup(const storage::RangeQuery& q,
                                            std::uint64_t now);

  /// Stores (or refreshes) the result set for `q` stamped at `now`.
  void store(const storage::RangeQuery& q,
             std::vector<storage::Event> events, std::uint64_t now);

  /// Erases every entry whose rectangle contains `values` (the precise
  /// invalidation rule for an insert). Returns entries erased.
  std::size_t invalidate_containing(const storage::Values& values);

  /// Data aging: drops cached events detected before `cutoff` in place.
  /// Aging removes exactly those events from the store, so every entry's
  /// surviving set is the exact post-aging answer — no entry needs to be
  /// erased. Returns the number of entries that shrank.
  std::size_t expire_data_before(double cutoff);

 private:
  /// Bit patterns of the normalized per-dimension bounds. Sound as a key
  /// because RangeQuery::matches tests only the normalized bounds.
  struct Key {
    std::array<std::uint64_t, 2 * storage::kMaxDims> bits{};
    std::size_t dims = 0;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  using Bounds = storage::RangeQuery::Bounds;

  static constexpr std::size_t kGridSide = 8;
  static constexpr std::size_t kGridAxes = 3;
  static constexpr std::size_t kGridCells = kGridSide * kGridSide * kGridSide;

  static Key key_of(const Bounds& rect);
  /// Grid cell of a value on one axis: floor(v * kGridSide), clamped to
  /// [0, kGridSide - 1]; NaN maps to 0.
  static std::size_t axis_cell(double v);
  /// Calls `fn(cell)` for every grid cell `rect` overlaps.
  template <class Fn>
  static void for_each_cell(const Bounds& rect, Fn&& fn);

  bool expired(std::uint32_t slot, std::uint64_t now) const {
    return config_.ttl > 0 && now - stored_at_[slot] >= config_.ttl;
  }
  /// Removes `slot`, moving the last slot into its place.
  void erase(std::uint32_t slot);

  ResultCacheConfig config_;
  std::unordered_map<Key, std::uint32_t, KeyHash> index_;  ///< key -> slot

  // Slot arrays, indexed by slot. The key is the bits of rects_[slot].
  std::vector<Bounds> rects_;
  std::vector<std::vector<storage::Event>> events_;
  std::vector<std::uint64_t> stored_at_;

  /// Slots registered per grid cell; sized on the first store.
  std::vector<std::vector<std::uint32_t>> cells_;
  std::vector<std::uint32_t> doomed_;  ///< invalidate_containing scratch

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  ///< fallback
  obs::MetricsRegistry::Counter hits_, misses_, insertions_, invalidations_,
      expirations_;
};

}  // namespace poolnet::engine
