// Structure-of-arrays event storage with zone-map block skipping (DESIGN §14).
//
// Every per-node store in the reproduction (Pool cells, DIM zone leaves,
// GHT home stores, the central oracle) answers range queries by scanning a
// vector of events and testing each attribute bound with a branch per
// event. ColumnStore replaces that AoS scan with a columnar layout: one
// contiguous double array per attribute plus parallel id/source/timestamp
// arrays, chopped into fixed-size blocks of kBlockRows rows. Each block
// carries a per-attribute min/max zone map, so filtering is a two-step
// kernel:
//
//   1. Skip whole blocks whose zone map cannot intersect the query
//      rectangle (zmax < lo or zmin > hi in any dimension).
//   2. For surviving blocks, run a branch-free predicate kernel per
//      attribute column emitting a 64-rows-per-word selection bitmap,
//      AND-intersected column by column, then visit set bits in row order.
//
// The kernel contract is strict: rows are visited in insertion order and
// the predicate is exactly RangeQuery::matches (ClosedInterval::contains
// per dimension, don't-care dimensions already rewritten to [0,1]), so
// results are byte-identical to the AoS scans this store replaces —
// including aggregate float accumulation order.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/assert.h"
#include "storage/event.h"
#include "storage/range_query.h"

namespace poolnet::storage::column {

/// Rows per block. 256 rows = 4 bitmap words; 2 KB per attribute column —
/// small enough that sparse cell stores waste little, large enough that the
/// inner loops vectorize and a zone-map hit skips meaningful work.
inline constexpr std::size_t kBlockRows = 256;
inline constexpr std::size_t kWordsPerBlock = kBlockRows / 64;

/// Hot-path scan counters (PR 4 style: plain fields bumped inline,
/// published to the metrics registry at scrape time as `store.scan.*`).
struct ScanStats {
  std::uint64_t rows_scanned = 0;    ///< rows in blocks the kernel evaluated
  std::uint64_t blocks_skipped = 0;  ///< blocks rejected by zone maps alone
  std::uint64_t bytes_touched = 0;   ///< column bytes the kernel read
};

class ColumnStore {
 public:
  /// `with_meta` adds parallel holder/replica columns (Pool's StoredEvent
  /// bookkeeping); the other systems store bare events.
  explicit ColumnStore(std::size_t dims, bool with_meta = false)
      : dims_(dims), with_meta_(with_meta) {
    POOLNET_ASSERT(dims >= 1 && dims <= kMaxDims);
  }

  std::size_t dims() const { return dims_; }
  bool has_meta() const { return with_meta_; }
  std::size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  /// Scan counters are owned by the enclosing system (one sink across all
  /// of its cell/zone stores); null disables accounting.
  void set_stats(ScanStats* stats) { stats_ = stats; }

  void append(const Event& e) { append(e, net::kNoNode, false); }

  void append(const Event& e, net::NodeId holder, bool is_replica) {
    POOLNET_ASSERT(e.dims() == dims_);
    const std::size_t row = ids_.size();
    if (row % kBlockRows == 0) grow_block();
    ids_.push_back(e.id);
    sources_.push_back(e.source);
    times_.push_back(e.detected_at);
    double* zmin = &zmin_[(row / kBlockRows) * dims_];
    double* zmax = &zmax_[(row / kBlockRows) * dims_];
    for (std::size_t d = 0; d < dims_; ++d) {
      const double v = e.values[d];
      cols_[d].push_back(v);
      if (v < zmin[d]) zmin[d] = v;
      if (v > zmax[d]) zmax[d] = v;
    }
    if (with_meta_) {
      holders_.push_back(holder);
      replica_.push_back(is_replica ? 1 : 0);
    }
  }

  // Row accessors (meta accessors require with_meta construction).
  std::uint64_t id_at(std::size_t row) const { return ids_[row]; }
  net::NodeId source_at(std::size_t row) const { return sources_[row]; }
  double time_at(std::size_t row) const { return times_[row]; }
  double value_at(std::size_t row, std::size_t d) const {
    return cols_[d][row];
  }
  net::NodeId holder_at(std::size_t row) const { return holders_[row]; }
  bool replica_at(std::size_t row) const { return replica_[row] != 0; }
  /// Attribute `d`'s column, size() doubles in row order.
  const double* column(std::size_t d) const { return cols_[d].data(); }

  // Block-level views for scans whose veto predicate is not a rectangle
  // (skyline dominance, k-NN shell distance). The zone maps are the same
  // ones scan() consults; callers account their own ScanStats.
  std::size_t block_count() const {
    return (ids_.size() + kBlockRows - 1) / kBlockRows;
  }
  std::size_t block_rows(std::size_t block) const {
    return std::min(kBlockRows, ids_.size() - block * kBlockRows);
  }
  /// Per-attribute minima / maxima of `block` (arrays of dims() doubles).
  const double* block_min(std::size_t block) const {
    return &zmin_[block * dims_];
  }
  const double* block_max(std::size_t block) const {
    return &zmax_[block * dims_];
  }

  Event event_at(std::size_t row) const {
    Event e;
    e.id = ids_[row];
    e.source = sources_[row];
    e.detected_at = times_[row];
    for (std::size_t d = 0; d < dims_; ++d) e.values.push_back(cols_[d][row]);
    return e;
  }

  /// The scan kernel. Calls `fn(row)` for every row matching `q`, in
  /// insertion order. `skip_replicas` additionally drops rows whose replica
  /// flag is set (Pool's primary-only scans); it is a no-op without meta.
  /// `use_zone_maps = false` disables the block veto (same rows, every
  /// block evaluated) — the bench ablation arm, never the production path.
  template <typename RowFn>
  void scan(const RangeQuery& q, bool skip_replicas, RowFn&& fn,
            bool use_zone_maps = true) const {
    const std::size_t n = ids_.size();
    const auto& bounds = q.bounds();
    for (std::size_t base = 0, block = 0; base < n;
         base += kBlockRows, ++block) {
      const std::size_t rows = std::min(kBlockRows, n - base);
      const double* zmin = &zmin_[block * dims_];
      const double* zmax = &zmax_[block * dims_];
      bool skip = false;
      for (std::size_t d = 0; d < dims_ && use_zone_maps; ++d) {
        if (zmax[d] < bounds[d].lo || zmin[d] > bounds[d].hi) {
          skip = true;
          break;
        }
      }
      if (skip) {
        if (stats_ != nullptr) ++stats_->blocks_skipped;
        continue;
      }
      std::uint64_t words[kWordsPerBlock];
      const std::size_t nwords = (rows + 63) / 64;
      for (std::size_t w = 0; w < nwords; ++w) words[w] = ~std::uint64_t{0};
      words[nwords - 1] >>= (nwords * 64 - rows);
      std::uint64_t any = ~std::uint64_t{0};
      std::uint64_t touched = 0;
      for (std::size_t d = 0; d < dims_ && any != 0; ++d) {
        filter_column(cols_[d].data() + base, rows, bounds[d].lo, bounds[d].hi,
                      words, &any);
        touched += rows * sizeof(double);
      }
      if (any != 0 && skip_replicas && with_meta_) {
        filter_primaries(replica_.data() + base, rows, words, &any);
        touched += rows;
      }
      if (stats_ != nullptr) {
        stats_->rows_scanned += rows;
        stats_->bytes_touched += touched;
      }
      if (any == 0) continue;
      for (std::size_t w = 0; w < nwords; ++w) {
        std::uint64_t m = words[w];
        while (m != 0) {
          const unsigned j = static_cast<unsigned>(std::countr_zero(m));
          m &= m - 1;
          fn(base + w * 64 + j);
        }
      }
    }
  }

  /// Scalar single-row predicate — exactly RangeQuery::matches against the
  /// stored columns (union re-scans, equivalence tests).
  bool row_matches(const RangeQuery& q, std::size_t row) const {
    const auto& bounds = q.bounds();
    for (std::size_t d = 0; d < dims_; ++d) {
      if (!bounds[d].contains(cols_[d][row])) return false;
    }
    return true;
  }

  /// Append every matching event to `out` (scratch-friendly; no clear).
  void matching_into(const RangeQuery& q, std::vector<Event>& out) const {
    scan(q, false, [&](std::size_t row) { out.push_back(event_at(row)); });
  }

  /// Visit every row in insertion order (replay, survivability audits).
  template <typename RowFn>
  void for_each(RowFn&& fn) const {
    const std::size_t n = ids_.size();
    for (std::size_t row = 0; row < n; ++row) fn(row);
  }

  /// Stable in-place compaction: drops every row where `pred(row)` is
  /// true (pred may carry side effects — it sees each surviving and dying
  /// row exactly once, in order, at its original index). Returns the
  /// number of rows removed. Zone maps are rebuilt afterwards.
  template <typename Pred>
  std::size_t erase_if(Pred&& pred) {
    const std::size_t n = ids_.size();
    std::size_t w = 0;
    for (std::size_t r = 0; r < n; ++r) {
      if (pred(r)) continue;
      if (w != r) move_row(r, w);
      ++w;
    }
    if (w == n) return 0;
    truncate(w);
    return n - w;
  }

  /// Drop rows with detected_at < cutoff; returns the count removed.
  std::size_t expire_before(double cutoff) {
    return erase_if([&](std::size_t r) { return times_[r] < cutoff; });
  }

  void clear();

 private:
  void grow_block() {
    zmin_.insert(zmin_.end(), dims_,
                 std::numeric_limits<double>::infinity());
    zmax_.insert(zmax_.end(), dims_,
                 -std::numeric_limits<double>::infinity());
  }

  // Branch-free per-column predicate: AND each 64-row word of
  // (v >= lo) & (v <= hi) into `words`, OR the surviving bits into *any.
  // Full words run a fixed-trip-count loop the compiler can vectorize.
  static void filter_column(const double* col, std::size_t rows, double lo,
                            double hi, std::uint64_t* words,
                            std::uint64_t* any);
  static void filter_primaries(const std::uint8_t* replica, std::size_t rows,
                               std::uint64_t* words, std::uint64_t* any);

  void move_row(std::size_t from, std::size_t to) {
    ids_[to] = ids_[from];
    sources_[to] = sources_[from];
    times_[to] = times_[from];
    for (std::size_t d = 0; d < dims_; ++d) cols_[d][to] = cols_[d][from];
    if (with_meta_) {
      holders_[to] = holders_[from];
      replica_[to] = replica_[from];
    }
  }

  void truncate(std::size_t rows);
  void rebuild_zone_maps();

  std::size_t dims_;
  bool with_meta_;
  ScanStats* stats_ = nullptr;
  std::vector<std::uint64_t> ids_;
  std::vector<net::NodeId> sources_;
  std::vector<double> times_;
  std::vector<double> cols_[kMaxDims];
  std::vector<net::NodeId> holders_;   // meta only
  std::vector<std::uint8_t> replica_;  // meta only, 0/1
  std::vector<double> zmin_;  // blocks x dims
  std::vector<double> zmax_;
};

}  // namespace poolnet::storage::column
