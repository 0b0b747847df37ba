// DIM — Distributed Index for Multi-dimensional data (Li et al., SenSys'03).
//
// The comparison baseline of the paper's evaluation (Section 5): the only
// prior DCS system supporting multi-dimensional range queries. Events are
// hashed to zones via the zone tree; queries are addressed to the deepest
// zone enclosing them and then recursively split toward every overlapping
// leaf zone; leaf owners return qualifying events directly to the sink.
//
// One walk (DESIGN.md §16): range queries, aggregates and merged batches
// all ride walk_subtree's split recursion, which differs per class only in
// its leg action (send, or record for a batch's serial replay) and its
// leaf action. Skyline and k-NN address leaf owners directly through one
// visit_leaf. Every zone re-election or adoption goes through
// LegSender::reach() over representative(), and every reply through the
// same storage::LegSender.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "dim/zone_tree.h"
#include "net/network.h"
#include "routing/router.h"
#include "storage/column/column_store.h"
#include "storage/dcs_system.h"
#include "storage/leg_sender.h"

namespace poolnet::dim {

class DimSystem final : public storage::DcsSystem {
 public:
  DimSystem(net::Network& network, const routing::Router& router,
            std::size_t dims);

  std::string name() const override { return "DIM"; }
  std::string describe() const override;
  std::size_t dims() const override { return tree_.dims(); }

  storage::InsertReceipt insert(net::NodeId source,
                                const storage::Event& event) override;
  std::size_t stored_count() const override { return stored_count_; }
  std::size_t expire_before(double cutoff) override;

  /// Online failover: orphaned leaf zones are adopted by the zone-tree
  /// neighbor (the closest surviving owner in the nearest enclosing
  /// sibling subtree — DIM's backup-zone rule applied at runtime). Events
  /// resident at the dead owner are counted lost (DIM stores no mirrors);
  /// cached representatives of the dead node are forgotten. Idempotent.
  void handle_node_failure(net::NodeId dead) override;

  const ZoneTree& tree() const { return tree_; }

  const storage::column::ScanStats* scan_stats() const override {
    return &scan_stats_;
  }

  /// Number of leaf zones a query must visit (pruning diagnostic).
  std::size_t relevant_zone_count(const storage::RangeQuery& q) const {
    return tree_.leaves_overlapping(q).size();
  }

 protected:
  storage::QueryReceipt query(net::NodeId sink,
                              const storage::RangeQuery& query) override;

  /// Merged range execution: the shared dissemination tree is the
  /// UNION of each query's serial forwarding legs with identical legs
  /// charged once, and each answering leaf replies once with the distinct
  /// matching events of all askers — so the batch never costs more than
  /// the serial sum, even for disjoint queries whose zone walks diverge.
  /// Per-query results are identical to serial range queries (DESIGN.md §8).
  storage::BatchQueryReceipt merge_ranges(
      net::NodeId sink,
      const std::vector<storage::RangeQuery>& queries) override;

  /// Skyline with zone-corner dominance pruning: every leaf zone's best
  /// possible point is the top of its value-range box (known to the sink
  /// from the shared zone code, no messages). Zones are visited
  /// best-corner-first, in the mask's cached order, and a zone whose
  /// corner is dominated by an already-collected event is never contacted.
  storage::QueryReceipt skyline(net::NodeId sink,
                                const storage::SkylineQuery& query) override;

  /// k nearest stored events by expanding-ring search over leaf zones:
  /// each round contacts the not-yet-visited zones overlapping the
  /// current box; owners reply with their local top-k, and the search
  /// stops once the k-th best candidate provably lies inside the ring.
  storage::QueryReceipt k_nearest(
      net::NodeId sink, const storage::KNearestQuery& query) override;

  /// Aggregates are computed per leaf zone; each answering owner sends a
  /// fixed-size partial straight to the sink (DIM has no in-network merge
  /// point, unlike Pool's splitters).
  storage::QueryReceipt aggregate(
      net::NodeId sink, const storage::AggregateQuery& query) override;

 private:
  /// Node a (sub)query is addressed to when targeting this zone.
  net::NodeId representative(ZoneIndex zidx) const;

  /// The recursive split-and-forward walk. `leg(from, to)` forwards one
  /// subquery and reports delivery; `on_leaf(zidx)` runs at the owner of
  /// every relevant leaf the walk reached.
  template <typename LegFn, typename LeafFn>
  void walk_subtree(net::NodeId carrier, ZoneIndex zidx,
                    const storage::RangeQuery& q, LegFn& leg, LeafFn& on_leaf);

  /// Sink → enclosing zone, then walk_subtree with real subquery legs.
  template <typename LeafFn>
  void disseminate(net::NodeId sink, const storage::RangeQuery& q,
                   LeafFn&& on_leaf);

  /// Skyline's and k-NN's direct visit: query leg sink → leaf owner, the
  /// owner runs `reduce(store, rows)` over its leaf's ColumnStore to pick
  /// the rows it replies with, and only those rows become events, appended
  /// to `out` once they reached the sink (nothing otherwise).
  template <typename Reduce>
  void visit_leaf(net::NodeId sink, ZoneIndex leaf,
                  storage::QueryReceipt& receipt,
                  std::vector<storage::Event>& out, Reduce&& reduce);

  net::Network& net_;
  const routing::Router& router_;
  storage::LegSender legs_;

  ZoneTree tree_;
  std::vector<storage::column::ColumnStore> store_;  // indexed by ZoneIndex
  mutable storage::column::ScanStats scan_stats_;
  std::size_t stored_count_ = 0;
  mutable std::vector<net::NodeId> rep_cache_;
  storage::CornerOrder skyline_order_;  ///< units: tree_.leaves(); lazy

  // Query scratch, reused across queries: the rows a visited leaf replies
  // with, and k-NN's visited flags by ZoneIndex.
  std::vector<std::uint32_t> leaf_rows_;
  std::vector<char> knn_visited_;

  /// Nodes whose failure has already been absorbed (failover is
  /// idempotent per node). Allocated lazily on the first failure.
  std::vector<char> known_dead_;
};

}  // namespace poolnet::dim
