// Out-of-core drop-in for BruteForceStore (DESIGN.md §13).
//
// Events live in fixed-size pages behind a BufferManager instead of a
// flat std::vector, so the store's resident footprint is the buffer pool
// — not the working set. A grid-file index over [0,1]^k maps each event
// to the page chain of its attribute cell; queries touch only the chains
// their box overlaps. Expiry compacts pages in place and returns empty
// pages to a free list, so insert+expire churn reuses pages instead of
// growing the file without bound.
//
// Equivalence contract (what the serial-equivalence tests pin down):
// query results are returned in ascending event-id order, and aggregates
// accumulate in that same order — for workloads whose ids are assigned
// in insertion order (EventGenerator's are), results and float sums are
// byte-identical to BruteForceStore's insertion-order scan.
//
// The networked cost model is BruteForceStore's — both charge through
// one BaseStationLink: inserts route source → base station, queries route
// sink → base station and replies come back in packed batches. Same
// routes, same ledger — the paging is invisible to the traffic accounting.
#pragma once

#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "storage/base_station.h"
#include "storage/column/column_store.h"
#include "storage/dcs_system.h"
#include "storage/paged/buffer_manager.h"
#include "storage/paged/grid_file.h"
#include "storage/paged/page_file.h"

namespace poolnet::storage {

struct PagedStoreOptions {
  std::size_t pool_pages = 256;  ///< buffer-pool frames (>= 2)
  std::size_t page_bytes = 4096;

  /// Mem keeps pages in segment vectors (deterministic, sanitizer-clean
  /// default); File pread/pwrites an unlinked temp file — the mode whose
  /// RSS stays bounded by the pool.
  enum class Backing { Mem, File };
  Backing backing = Backing::Mem;

  /// Grid-file cells per partitioned dimension.
  std::size_t grid_resolution = 4;

  /// Directory for File backing ("" = $TMPDIR, falling back to /tmp).
  std::string file_dir;
};

class PagedStore final : public DcsSystem {
 public:
  /// Pure-oracle construction: no network, zero message costs.
  explicit PagedStore(std::size_t dims, PagedStoreOptions options = {},
                      obs::MetricsRegistry* metrics = nullptr,
                      const std::string& prefix = "store.pager");

  /// Networked construction: events are shipped to `sink_node` (base
  /// station) at insert time; queries are answered there.
  PagedStore(std::size_t dims, PagedStoreOptions options,
             net::Network& network, const routing::Router& router,
             net::NodeId sink_node, obs::MetricsRegistry* metrics = nullptr,
             const std::string& prefix = "store.pager");

  std::string name() const override { return "central"; }
  std::string describe() const override;
  std::size_t dims() const override { return dims_; }
  InsertReceipt insert(net::NodeId source, const Event& event) override;
  std::size_t stored_count() const override { return stored_; }
  std::size_t expire_before(double cutoff) override;

  /// All events matching `q`, in ascending id order (oracle answer, no
  /// costs).
  std::vector<Event> matching(const RangeQuery& q) const;

  /// Scratch-buffer variant: appends matches to `out`, keeping the
  /// appended range in ascending id order.
  void matching_into(const RangeQuery& q, std::vector<Event>& out) const;

  const column::ScanStats* scan_stats() const override {
    return &scan_stats_;
  }

  const PagedStoreOptions& options() const { return options_; }
  PagerStats pager_stats() const { return buffer_->stats(); }
  std::size_t page_count() const { return file_->page_count(); }
  std::size_t free_pages() const { return free_pages_.size(); }

 protected:
  QueryReceipt query(net::NodeId sink, const RangeQuery& query) override;
  /// Skyline with page-directory dominance pruning: a page whose zone-map
  /// max corner is dominated by a collected event is skipped BEFORE it is
  /// faulted into the pool.
  QueryReceipt skyline(net::NodeId sink, const SkylineQuery& query) override;
  /// k-NN fetching pages in zone-map min-distance order, stopping once
  /// the next page cannot beat the k-th best.
  QueryReceipt k_nearest(net::NodeId sink,
                         const KNearestQuery& query) override;
  QueryReceipt aggregate(net::NodeId sink,
                         const AggregateQuery& query) override;

 private:
  PageView view(const BufferManager::Pin& pin) const;

  /// Appends every resident event of `page` to `out` (no filtering).
  void page_events_into(PageId page, std::vector<Event>& out) const;

  /// Pops the free list or extends the file; the returned page is pinned,
  /// zeroed and formatted.
  BufferManager::Pin alloc_page(PageId* id);

  void append_event(const Event& event);

  std::size_t dims_;
  PagedStoreOptions options_;
  std::unique_ptr<PageFile> file_;
  mutable std::unique_ptr<BufferManager> buffer_;  ///< fetch() pins in const scans
  GridFile grid_;
  std::vector<PageId> free_pages_;
  mutable column::ScanStats scan_stats_;
  std::size_t stored_ = 0;
  BaseStationLink link_;  // unbound in oracle mode
};

}  // namespace poolnet::storage
