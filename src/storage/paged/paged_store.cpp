#include "storage/paged/paged_store.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/error.h"

namespace poolnet::storage {

namespace {

// Branch-free strided predicate over canonical page records: one bit per
// slot of (v >= lo) & (v <= hi), reading the little-endian double at `p`,
// `p + stride`, ... — the page-layout twin of the ColumnStore kernel.
std::uint64_t page_match_word(const std::uint8_t* p, std::size_t stride,
                              std::size_t rows, double lo, double hi) {
  std::uint64_t m = 0;
  for (std::size_t j = 0; j < rows; ++j) {
    const double v = load_f64_le(p + j * stride);
    m |= static_cast<std::uint64_t>((v >= lo) & (v <= hi)) << j;
  }
  return m;
}

}  // namespace

PagedStore::PagedStore(std::size_t dims, PagedStoreOptions options,
                       obs::MetricsRegistry* metrics,
                       const std::string& prefix)
    : dims_(dims),
      options_(std::move(options)),
      grid_(dims, options_.grid_resolution == 0 ? 1 : options_.grid_resolution) {
  if (dims == 0 || dims > kMaxDims)
    throw ConfigError("PagedStore: bad dimensionality");
  if (page_capacity(options_.page_bytes, dims_) == 0)
    throw ConfigError("PagedStore: page too small for even one record");
  if (options_.backing == PagedStoreOptions::Backing::File)
    file_ = std::make_unique<TempFilePageFile>(options_.page_bytes,
                                               options_.file_dir);
  else
    file_ = std::make_unique<MemPageFile>(options_.page_bytes);
  buffer_ = std::make_unique<BufferManager>(*file_, options_.pool_pages,
                                            metrics, prefix);
}

PagedStore::PagedStore(std::size_t dims, PagedStoreOptions options,
                       net::Network& network, const routing::Router& router,
                       net::NodeId sink_node, obs::MetricsRegistry* metrics,
                       const std::string& prefix)
    : PagedStore(dims, std::move(options), metrics, prefix) {
  link_ = BaseStationLink(network, router, sink_node, dims);
}

std::string PagedStore::describe() const {
  const char* backing =
      options_.backing == PagedStoreOptions::Backing::File ? "file" : "mem";
  return "central/paged (pool=" + std::to_string(options_.pool_pages) +
         ", page=" + std::to_string(options_.page_bytes) + "B, backing=" +
         backing + ", grid=" + std::to_string(grid_.resolution()) + ")";
}

PageView PagedStore::view(const BufferManager::Pin& pin) const {
  return PageView(pin.data(), options_.page_bytes, dims_);
}

BufferManager::Pin PagedStore::alloc_page(PageId* id) {
  if (!free_pages_.empty()) {
    *id = free_pages_.back();
    free_pages_.pop_back();
  } else {
    *id = file_->allocate();
  }
  auto pin = buffer_->create(*id);
  view(pin).format();
  pin.mark_dirty();
  grid_.dir_reset(*id);
  return pin;
}

void PagedStore::append_event(const Event& event) {
  GridFile::Chain& chain = grid_.chain(grid_.cell_of(event.values));
  if (chain.tail == kNoPage) {
    PageId pid = kNoPage;
    auto pin = alloc_page(&pid);
    view(pin).append(event);
    pin.mark_dirty();
    chain.head = chain.tail = pid;
  } else {
    auto tail_pin = buffer_->fetch(chain.tail);
    PageView tail = view(tail_pin);
    if (tail.count() < tail.capacity()) {
      tail.append(event);
      tail_pin.mark_dirty();
    } else {
      PageId pid = kNoPage;
      auto pin = alloc_page(&pid);  // tail stays pinned: 2 pins held here
      view(pin).append(event);
      pin.mark_dirty();
      tail.set_next(pid);
      tail_pin.mark_dirty();
      grid_.dir_set_next(chain.tail, pid);
      chain.tail = pid;
    }
  }
  grid_.dir_zone_extend(chain.tail, event.values);
  ++stored_;
}

InsertReceipt PagedStore::insert(net::NodeId source, const Event& event) {
  validate_event(event);
  if (event.dims() != dims_)
    throw ConfigError("PagedStore: event dimensionality mismatch");
  append_event(event);
  return link_.insert(source);
}

std::vector<Event> PagedStore::matching(const RangeQuery& q) const {
  std::vector<Event> out;
  matching_into(q, out);
  return out;
}

void PagedStore::matching_into(const RangeQuery& q,
                               std::vector<Event>& out) const {
  const std::size_t start = out.size();
  std::vector<std::size_t> cells;
  grid_.relevant_cells(q, &cells);
  const std::size_t stride = event_record_bytes(dims_);
  const auto& bounds = q.bounds();
  for (const std::size_t cell : cells) {
    PageId cur = grid_.chain(cell).head;
    while (cur != kNoPage) {
      // The directory walks the chain and vetoes non-overlapping pages
      // up front, so a cold page the query cannot match is never
      // faulted into the pool.
      const PageId next = grid_.dir_next(cur);
      if (!grid_.dir_zone_overlaps(cur, q)) {
        ++scan_stats_.blocks_skipped;
        cur = next;
        continue;
      }
      auto pin = buffer_->fetch(cur);
      const PageView v = view(pin);
      const std::size_t n = v.count();
      scan_stats_.rows_scanned += n;
      for (std::size_t slot0 = 0; slot0 < n; slot0 += 64) {
        const std::size_t rows = std::min<std::size_t>(64, n - slot0);
        std::uint64_t word =
            rows == 64 ? ~std::uint64_t{0} : (~std::uint64_t{0} >> (64 - rows));
        const std::uint8_t* base = v.record(slot0);
        for (std::size_t d = 0; d < dims_ && word != 0; ++d) {
          word &= page_match_word(base + 20 + 8 * d, stride, rows,
                                  bounds[d].lo, bounds[d].hi);
          scan_stats_.bytes_touched += rows * sizeof(double);
        }
        while (word != 0) {
          const unsigned j = static_cast<unsigned>(std::countr_zero(word));
          word &= word - 1;
          out.push_back(v.event_at(slot0 + j));
        }
      }
      cur = next;
    }
  }
  // Ascending id = insertion order for generator workloads; see the
  // equivalence contract in the header.
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(start), out.end(),
            [](const Event& a, const Event& b) { return a.id < b.id; });
}

void PagedStore::page_events_into(PageId page, std::vector<Event>& out) const {
  auto pin = buffer_->fetch(page);
  const PageView v = view(pin);
  const std::size_t n = v.count();
  scan_stats_.rows_scanned += n;
  scan_stats_.bytes_touched += n * event_record_bytes(dims_);
  for (std::size_t slot = 0; slot < n; ++slot) out.push_back(v.event_at(slot));
}

QueryReceipt PagedStore::query(net::NodeId sink, const RangeQuery& q) {
  QueryReceipt receipt;
  receipt.events = matching(q);
  link_.answer(sink, receipt);
  return receipt;
}

QueryReceipt PagedStore::skyline(net::NodeId sink, const SkylineQuery& q) {
  QueryReceipt receipt;
  std::vector<Event> cand, page_events;
  Values corner;
  for (std::size_t cell = 0; cell < grid_.cell_count(); ++cell) {
    PageId cur = grid_.chain(cell).head;
    while (cur != kNoPage) {
      const PageId next = grid_.dir_next(cur);
      // The directory's max corner bounds every resident record on the
      // selected subset — a dominated corner means a page of dominated
      // events, vetoed before it faults into the pool.
      const double* zmax = grid_.dir_zone_max(cur);
      corner.clear();
      for (std::size_t d = 0; d < dims_; ++d) corner.push_back(zmax[d]);
      if (!skyline_admits(q, cand, corner)) {
        ++scan_stats_.blocks_skipped;
        cur = next;
        continue;
      }
      page_events.clear();
      page_events_into(cur, page_events);
      for (Event& e : page_events)
        if (skyline_admits(q, cand, e.values)) cand.push_back(std::move(e));
      cur = next;
    }
  }
  skyline_filter(q, cand);
  receipt.events = std::move(cand);
  link_.answer(sink, receipt);
  return receipt;
}

QueryReceipt PagedStore::k_nearest(net::NodeId sink, const KNearestQuery& q) {
  QueryReceipt receipt;
  // Order every chained page by the zone map's lower-bound distance to
  // the target; fetch in that order, stopping once the next page cannot
  // beat the k-th best (strictly — equal distance may hide a lower id).
  std::vector<std::pair<double, PageId>> order;
  for (std::size_t cell = 0; cell < grid_.cell_count(); ++cell) {
    for (PageId cur = grid_.chain(cell).head; cur != kNoPage;
         cur = grid_.dir_next(cur)) {
      const double* zmin = grid_.dir_zone_min(cur);
      const double* zmax = grid_.dir_zone_max(cur);
      double d2 = 0.0;
      for (std::size_t d = 0; d < dims_; ++d) {
        const double t = q.target[d];
        const double gap =
            t < zmin[d] ? zmin[d] - t : (t > zmax[d] ? t - zmax[d] : 0.0);
        d2 += gap * gap;
      }
      order.emplace_back(d2, cur);
    }
  }
  std::sort(order.begin(), order.end());
  std::vector<Event> cand;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i].first > knn_kth_distance2(q, cand)) {
      scan_stats_.blocks_skipped += order.size() - i;
      break;
    }
    page_events_into(order[i].second, cand);
    knn_filter(q, cand);  // keep only the running top-k between pages
  }
  receipt.events = std::move(cand);
  receipt.rounds = 1;
  link_.answer(sink, receipt);
  return receipt;
}

QueryReceipt PagedStore::aggregate(net::NodeId sink,
                                   const AggregateQuery& q) {
  QueryReceipt receipt;
  PartialAggregate partial;
  // matching() returns ascending ids = insertion order, so the float
  // accumulation order matches BruteForceStore's linear scan bit-exactly.
  for (const Event& e : matching(q.range)) partial.add(e.values[q.value_dim]);
  receipt.aggregate = partial.finalize(q.kind);
  link_.answer(sink, receipt, /*partial=*/true);
  return receipt;
}

std::size_t PagedStore::expire_before(double cutoff) {
  std::size_t removed = 0;
  const std::size_t rec = event_record_bytes(dims_);
  for (std::size_t cell = 0; cell < grid_.cell_count(); ++cell) {
    GridFile::Chain& chain = grid_.chain(cell);
    BufferManager::Pin prev_pin;  // pins the predecessor for unlinking
    PageId prev = kNoPage;
    PageId cur = chain.head;
    while (cur != kNoPage) {
      auto pin = buffer_->fetch(cur);
      PageView v = view(pin);
      const std::size_t n = v.count();
      // In-place compaction: keep records with detected_at >= cutoff,
      // sliding survivors down so slot order (= insertion order within
      // the page) is preserved.
      std::size_t keep = 0;
      for (std::size_t slot = 0; slot < n; ++slot) {
        if (load_f64_le(v.record(slot) + 12) >= cutoff) {
          if (keep != slot) std::memmove(v.record(keep), v.record(slot), rec);
          ++keep;
        }
      }
      if (keep != n) {
        removed += n - keep;
        v.set_count(keep);
        pin.mark_dirty();
        // Survivor set shrank: recompute the page's zone map so the
        // directory never reports stale (over-wide) bounds.
        grid_.dir_zone_reset(cur);
        for (std::size_t slot = 0; slot < keep; ++slot) {
          Values values;
          const std::uint8_t* r = v.record(slot);
          for (std::size_t d = 0; d < dims_; ++d)
            values.push_back(load_f64_le(r + 20 + 8 * d));
          grid_.dir_zone_extend(cur, values);
        }
      }
      const PageId next = v.next();
      if (keep == 0) {
        // Unlink the emptied page and recycle it. At most two pins are
        // live here (prev_pin + pin) — the pool-of-2 floor.
        if (prev == kNoPage) {
          chain.head = next;
        } else {
          PageView pv = view(prev_pin);
          pv.set_next(next);
          prev_pin.mark_dirty();
          grid_.dir_set_next(prev, next);
        }
        if (chain.tail == cur) chain.tail = prev;
        pin.release();
        buffer_->discard(cur);
        free_pages_.push_back(cur);
      } else {
        prev_pin = std::move(pin);
        prev = cur;
      }
      cur = next;
    }
  }
  stored_ -= removed;
  return removed;
}

}  // namespace poolnet::storage
