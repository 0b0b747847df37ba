#include "storage/brute_force_store.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace poolnet::storage {

BruteForceStore::BruteForceStore(std::size_t dims) : dims_(dims) {
  if (dims == 0 || dims > kMaxDims)
    throw ConfigError("BruteForceStore: bad dimensionality");
  store_ = column::ColumnStore(dims);
  store_.set_stats(&scan_stats_);
}

BruteForceStore::BruteForceStore(std::size_t dims, net::Network& network,
                                 const routing::Router& router,
                                 net::NodeId sink_node)
    : BruteForceStore(dims) {
  link_ = BaseStationLink(network, router, sink_node, dims);
}

InsertReceipt BruteForceStore::insert(net::NodeId source, const Event& event) {
  validate_event(event);
  if (event.dims() != dims_)
    throw ConfigError("BruteForceStore: event dimensionality mismatch");
  store_.append(event);
  all_dirty_ = true;
  return link_.insert(source);
}

QueryReceipt BruteForceStore::query(net::NodeId sink, const RangeQuery& q) {
  QueryReceipt receipt;
  receipt.events = matching(q);
  link_.answer(sink, receipt);
  return receipt;
}

QueryReceipt BruteForceStore::skyline(net::NodeId sink, const SkylineQuery& q) {
  QueryReceipt receipt;
  std::vector<Event> cand;
  Values corner;
  const std::size_t blocks = store_.block_count();
  for (std::size_t b = 0; b < blocks; ++b) {
    // A block whose per-attribute maxima are dominated by a collected
    // event holds only dominated rows (every row is <= the corner on the
    // selected subset, and the dominator beats the corner strictly
    // somewhere) — skip it without touching its columns.
    const double* zmax = store_.block_max(b);
    corner.clear();
    for (std::size_t d = 0; d < dims_; ++d) corner.push_back(zmax[d]);
    if (!skyline_admits(q, cand, corner)) {
      ++scan_stats_.blocks_skipped;
      continue;
    }
    const std::size_t base = b * column::kBlockRows;
    const std::size_t rows = store_.block_rows(b);
    scan_stats_.rows_scanned += rows;
    scan_stats_.bytes_touched += rows * dims_ * sizeof(double);
    for (std::size_t r = base; r < base + rows; ++r) {
      Event e = store_.event_at(r);
      if (skyline_admits(q, cand, e.values)) cand.push_back(std::move(e));
    }
  }
  skyline_filter(q, cand);
  receipt.events = std::move(cand);
  link_.answer(sink, receipt);
  return receipt;
}

QueryReceipt BruteForceStore::k_nearest(net::NodeId sink,
                                        const KNearestQuery& q) {
  QueryReceipt receipt;
  std::vector<Event> cand;
  // Visit blocks in order of their zone-map lower-bound distance to the
  // target; stop once the next block cannot beat the current k-th best
  // (strictly — an equal-distance block may still hold a lower-id tie).
  const std::size_t blocks = store_.block_count();
  std::vector<std::pair<double, std::size_t>> order;
  order.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const double* zmin = store_.block_min(b);
    const double* zmax = store_.block_max(b);
    double d2 = 0.0;
    for (std::size_t d = 0; d < dims_; ++d) {
      const double t = q.target[d];
      const double gap = t < zmin[d] ? zmin[d] - t : (t > zmax[d] ? t - zmax[d] : 0.0);
      d2 += gap * gap;
    }
    order.emplace_back(d2, b);
  }
  std::sort(order.begin(), order.end());
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i].first > knn_kth_distance2(q, cand)) {
      scan_stats_.blocks_skipped += order.size() - i;
      break;
    }
    const std::size_t b = order[i].second;
    const std::size_t base = b * column::kBlockRows;
    const std::size_t rows = store_.block_rows(b);
    scan_stats_.rows_scanned += rows;
    scan_stats_.bytes_touched += rows * dims_ * sizeof(double);
    for (std::size_t r = base; r < base + rows; ++r)
      cand.push_back(store_.event_at(r));
    knn_filter(q, cand);  // keep only the running top-k between blocks
  }
  receipt.events = std::move(cand);
  receipt.rounds = 1;
  link_.answer(sink, receipt);
  return receipt;
}

AggregateResult BruteForceStore::aggregate_oracle(const RangeQuery& q,
                                                  AggregateKind kind,
                                                  std::size_t value_dim) const {
  PartialAggregate partial;
  aggregate_into(q, value_dim, partial);
  return partial.finalize(kind);
}

void BruteForceStore::aggregate_into(const RangeQuery& q,
                                     std::size_t value_dim,
                                     PartialAggregate& partial) const {
  POOLNET_ASSERT(value_dim < dims_);
  store_.scan(q, false, [&](std::size_t row) {
    partial.add(store_.value_at(row, value_dim));
  });
}

QueryReceipt BruteForceStore::aggregate(net::NodeId sink,
                                        const AggregateQuery& q) {
  QueryReceipt receipt;
  receipt.aggregate = aggregate_oracle(q.range, q.kind, q.value_dim);
  link_.answer(sink, receipt, /*partial=*/true);
  return receipt;
}

std::size_t BruteForceStore::expire_before(double cutoff) {
  const std::size_t removed = store_.expire_before(cutoff);
  if (removed != 0) all_dirty_ = true;
  return removed;
}

std::vector<Event> BruteForceStore::matching(const RangeQuery& q) const {
  std::vector<Event> out;
  matching_into(q, out);
  return out;
}

void BruteForceStore::matching_into(const RangeQuery& q,
                                    std::vector<Event>& out) const {
  store_.matching_into(q, out);
}

const std::vector<Event>& BruteForceStore::all() const {
  if (all_dirty_) {
    all_cache_.clear();
    all_cache_.reserve(store_.size());
    store_.for_each(
        [&](std::size_t row) { all_cache_.push_back(store_.event_at(row)); });
    all_dirty_ = false;
  }
  return all_cache_;
}

}  // namespace poolnet::storage
