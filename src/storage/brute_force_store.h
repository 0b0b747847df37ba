// Centralized reference store.
//
// Not a sensornet scheme — an oracle that holds every event in one place
// and answers queries by linear scan. Tests compare Pool's and DIM's
// result sets against it; it also implements DcsSystem with a naive
// "flood to the sink" cost model so benches can show why centralized
// collection is hopeless (the motivation in the paper's introduction).
#pragma once

#include <vector>

#include "storage/base_station.h"
#include "storage/column/column_store.h"
#include "storage/dcs_system.h"

namespace poolnet::storage {

class BruteForceStore final : public DcsSystem {
 public:
  /// Pure-oracle construction: no network, zero message costs.
  explicit BruteForceStore(std::size_t dims);

  /// Networked construction: events are shipped to `sink_node` (external
  /// storage / base station) at insert time; queries are answered there.
  BruteForceStore(std::size_t dims, net::Network& network,
                  const routing::Router& router, net::NodeId sink_node);

  std::string name() const override { return "central"; }
  std::size_t dims() const override { return dims_; }
  InsertReceipt insert(net::NodeId source, const Event& event) override;
  std::size_t stored_count() const override { return store_.size(); }
  std::size_t expire_before(double cutoff) override;
  const column::ScanStats* scan_stats() const override { return &scan_stats_; }

  /// Oracle aggregate (no costs) — the reference for every system's tests.
  AggregateResult aggregate_oracle(const RangeQuery& q, AggregateKind kind,
                                   std::size_t value_dim) const;

  /// Scratch-buffer variant: accumulates the matching values of
  /// `value_dim` into `partial` without materializing any event.
  void aggregate_into(const RangeQuery& q, std::size_t value_dim,
                      PartialAggregate& partial) const;

  /// All events matching `q` (oracle answer, no costs).
  std::vector<Event> matching(const RangeQuery& q) const;

  /// Scratch-buffer variant: appends matches to `out` (caller clears).
  void matching_into(const RangeQuery& q, std::vector<Event>& out) const;

  /// Every stored event in insertion order. Materialized lazily from the
  /// column store and cached; the reference stays stable until the next
  /// insert/expire.
  const std::vector<Event>& all() const;

 protected:
  QueryReceipt query(net::NodeId sink, const RangeQuery& query) override;
  /// Skyline with block-level dominance pruning: a block whose zone-map
  /// max corner is dominated by a collected event is never scanned.
  QueryReceipt skyline(net::NodeId sink, const SkylineQuery& query) override;
  /// k-NN scanning blocks in min-distance order, stopping once the next
  /// block cannot beat the k-th best.
  QueryReceipt k_nearest(net::NodeId sink,
                         const KNearestQuery& query) override;
  QueryReceipt aggregate(net::NodeId sink,
                         const AggregateQuery& query) override;

 private:
  std::size_t dims_;
  column::ColumnStore store_{1};
  mutable column::ScanStats scan_stats_;
  mutable std::vector<Event> all_cache_;
  mutable bool all_dirty_ = true;
  BaseStationLink link_;  // unbound in oracle mode
};

}  // namespace poolnet::storage
