// The Pool data-centric storage system — the paper's contribution.
//
// Deployment-time state: a Grid over the field, a PoolLayout of k pools,
// and (logically) one index node per pool cell. Runtime behaviour:
//
//  * insert (Algorithm 1): the event's greatest value picks the pool, the
//    greatest and second-greatest values pick the cell (Theorem 3.1), GPSR
//    carries the event to the cell's index node. Ties in the greatest
//    value store ONE copy at the candidate cell closest to the detection
//    point (Section 4.1).
//  * query (Algorithm 2 + Section 3.2.3): for each pool with relevant
//    cells, the sink forwards the query to the pool's splitter (the pool
//    index node closest to the sink); the splitter unicasts a copy to each
//    relevant cell; qualifying events flow back cell → splitter → sink,
//    aggregated (packed) at the splitter.
//  * one walk (visit_relevant, DESIGN.md §16): that dissemination exists
//    once. Range, skyline, k-NN, aggregate, merged batches and
//    subscription registration are visitors over a plan of (pool, cell)
//    steps; each supplies only its cell-local operation and reply size,
//    and the walk owns splitter/index-node failover, dead-holder
//    absorption, delegate polling and reply batching.
//  * workload sharing (Section 4.2): an index node whose resident load
//    reaches a threshold delegates subsequent storage to its least-loaded
//    radio neighbor; queries follow the delegation (one extra hop each
//    way). The mechanism trades a small message overhead for a bounded
//    per-node load under skewed workloads.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/grid.h"
#include "core/pool_geometry.h"
#include "core/pool_layout.h"
#include "net/network.h"
#include "routing/router.h"
#include "storage/column/column_store.h"
#include "storage/dcs_system.h"
#include "storage/leg_sender.h"

namespace poolnet::core {

struct PoolConfig {
  double cell_size = 5.0;        ///< α, meters (paper: 5 m)
  std::uint32_t side = 10;       ///< l, cells per pool side (paper: 10)
  std::uint64_t layout_seed = 42;  ///< pivot placement randomness

  bool workload_sharing = false;   ///< Section 4.2 mechanism on/off
  std::uint32_t share_threshold = 32;  ///< events a node holds before delegating

  /// Algorithm 1 line 4 ("Get the pivot cell of P_d1 through a DHT"):
  /// when true, pivot locations are served by a GHT-style directory and
  /// every node's FIRST use of a pool pays a Control-message round trip
  /// to the directory home (cached thereafter). The paper's evaluation
  /// treats pools as predefined, so the default charges nothing.
  bool charge_dht_lookup = false;

  /// Resilience extension (in the spirit of the paper's reference [7],
  /// resilient data-centric storage): store this many MIRROR copies of
  /// every event, each at the point-reflected offset
  /// (l-1-HO, l-1-VO) of a rotated pool P_{(d1 + r) mod k} — reflection
  /// decorrelates mirror load from primary load, so load-targeted
  /// failures cannot take out both copies. Mirrors are never returned by
  /// queries (no duplicate answers, Section 4.1's invariant); they exist
  /// so data survives index-node failures. Must be < dims. 0 disables.
  std::uint32_t replicas = 0;
};

class PoolSystem final : public storage::DcsSystem {
 public:
  /// Random pool layout derived from `config.layout_seed`.
  PoolSystem(net::Network& network, const routing::Router& router,
             std::size_t dims, PoolConfig config = {});

  /// Explicit layout (tests and worked-example reproduction).
  PoolSystem(net::Network& network, const routing::Router& router,
             std::size_t dims, PoolConfig config, PoolLayout layout);

  std::string name() const override { return "Pool"; }
  std::string describe() const override;
  std::size_t dims() const override { return dims_; }

  storage::InsertReceipt insert(net::NodeId source,
                                const storage::Event& event) override;

  std::size_t stored_count() const override { return stored_count_; }
  std::size_t expire_before(double cutoff) override;

  /// Online failover (the paper's §2 rule on the survivor set): affected
  /// cells re-elect the nearest SURVIVOR to their center as index node,
  /// splitters pointing at the dead node are re-picked on next use, and
  /// events resident at the dead node are restored from surviving mirrors
  /// (replicas > 0) — charged as Insert traffic from the mirror holder to
  /// the new index node — or counted lost. Idempotent per node.
  void handle_node_failure(net::NodeId dead) override;

  // --- continuous queries (Section 6 future work) -----------------------
  //
  // A subscription registers a standing range query at every cell that
  // can ever hold a matching event (the Theorem 3.2 relevant set — sound
  // for all FUTURE inserts too, because relevance depends only on the
  // query). Registration and cancellation each cost one forwarding tree
  // of Control messages; every matching insert afterwards pushes one
  // notification from the storing node to the subscriber.

  using SubscriptionId = std::uint64_t;

  struct Notification {
    SubscriptionId subscription;
    storage::Event event;
  };

  /// Registers `q` for `sink`; charges the registration tree. Matching
  /// events inserted from now on generate notifications.
  SubscriptionId subscribe(net::NodeId sink, const storage::RangeQuery& q);

  /// Cancels a subscription; charges the cancellation tree. Pending
  /// undelivered notifications are dropped. No-op on unknown ids.
  void unsubscribe(SubscriptionId id);

  /// Notifications delivered to the subscriber since the last call
  /// (their per-hop cost was charged at insert time).
  std::vector<Notification> take_notifications(SubscriptionId id);

  std::size_t active_subscriptions() const { return subscriptions_.size(); }

  // --- introspection for tests, examples and benches ---
  const net::Network& network() const { return net_; }
  const Grid& grid() const { return grid_; }
  const PoolLayout& layout() const { return layout_; }
  const PoolConfig& config() const { return config_; }

  /// Total relevant cells across pools for `q` (pruning diagnostic).
  std::size_t relevant_cell_count(const storage::RangeQuery& q) const;

  /// The pool's splitter for a sink at `sink`'s position.
  net::NodeId splitter_for(std::size_t pool_dim, net::NodeId sink) const;

  /// Cell (pool, offset) chosen for an event — exposes the Section 4.1
  /// tie-break decision without inserting.
  struct CellChoice {
    std::size_t pool_dim;
    CellOffset offset;
    CellCoord coord;
    net::NodeId index_node;
  };
  CellChoice choose_cell(net::NodeId source,
                         const storage::Event& event) const;

  /// Events resident in one pool cell (main holder + delegates).
  std::size_t cell_load(std::size_t pool_dim, CellOffset offset) const;

  /// Largest number of events any physical node holds (hotspot metric).
  std::uint64_t max_node_load() const;

  /// Mirror copies currently stored (0 unless config().replicas > 0).
  std::size_t replica_count() const { return replica_count_; }

  /// What a failure of `dead_nodes` would do to the stored data:
  /// an event is `recovered` when its primary holder dies but at least
  /// one mirror holder survives, `lost` when every holder dies.
  struct SurvivabilityReport {
    std::size_t total_events = 0;
    std::size_t primaries_lost = 0;  ///< primary holder among the dead
    std::size_t recovered = 0;       ///< rescued by a surviving mirror
    std::size_t lost = 0;            ///< all copies on dead nodes
  };
  SurvivabilityReport survivability(
      const std::vector<net::NodeId>& dead_nodes) const;

  const storage::column::ScanStats* scan_stats() const override {
    return &scan_stats_;
  }

 protected:
  storage::QueryReceipt query(net::NodeId sink,
                              const storage::RangeQuery& query) override;

  /// Distributed skyline with relevant-cell dominance pruning (the
  /// Theorem 3.2 machinery applied to dominance regions): the sink
  /// derives every cell's best-possible corner from Equation 1 —
  /// corner[d1] = (HO+1)/l in the pool dimension, (VO+1)(HO+1)/l² in
  /// every other (all bounded by the second-greatest value) — visits
  /// cells in the mask's cached descending corner order, and NEVER
  /// contacts a cell whose corner is already dominated by a collected
  /// event. Visited cells reply with their local skyline only.
  storage::QueryReceipt skyline(net::NodeId sink,
                                const storage::SkylineQuery& query) override;

  /// Distributed k-nearest-event search: expanding box queries through
  /// the normal resolving machinery (a box of half-width r covers every
  /// event within Euclidean distance r). Each visited cell answers with
  /// its local top-k regardless of the box, so a visited cell is never
  /// re-queried as the box grows; the search completes once the k-th
  /// best distance is inside the proven-covered radius.
  storage::QueryReceipt k_nearest(net::NodeId sink,
                                  const storage::KNearestQuery& query) override;

  /// Merged range execution: per pool, the relevant-cell sets of
  /// every query in the batch are unioned (Theorem 3.2 resolving is pure
  /// arithmetic, so the sink merges before transmitting anything), ONE
  /// probe travels the splitter tree over the union, and each visited
  /// cell replies once with the distinct matching events of all askers.
  /// Per-query results are identical to serial range queries;
  /// messages_saved is exact on ideal links (DESIGN.md §8).
  storage::BatchQueryReceipt merge_ranges(
      net::NodeId sink,
      const std::vector<storage::RangeQuery>& queries) override;

  /// In-network aggregation (Section 3.2.3): each relevant cell reduces
  /// its matching events to one fixed-size partial, each splitter merges
  /// its pool's partials, and exactly one aggregate reply per involved
  /// pool travels back to the sink — reply traffic is independent of the
  /// number of qualifying events.
  storage::QueryReceipt aggregate(
      net::NodeId sink, const storage::AggregateQuery& query) override;

 private:
  /// One step of a dissemination plan: a relevant cell of one pool.
  struct PlanStep {
    std::size_t pool_dim;
    CellOffset off;
  };
  using Plan = std::vector<PlanStep>;

  /// The one dissemination walk. Steps run in plan order; each pool's
  /// splitter is contacted on the pool's first admitted step, and its
  /// packed rows go on to the sink when the pool's run of steps ends.
  /// Returns the number of cells reached. The visitor contract is
  /// CellVisitor in pool_system.cpp (and DESIGN.md §16).
  template <class Visitor>
  std::size_t visit_relevant(net::NodeId sink, const Plan& plan, Visitor& v);

  /// The Theorem 3.2 relevant cells of `q`, pool by pool in resolver order.
  Plan range_plan(const storage::RangeQuery& q) const;

  /// Registers (`add`) or cancels subscription `id` at every relevant cell
  /// of `q`: one Control forwarding tree, no replies. The cell tables
  /// change even where a Control leg was lost.
  void register_cells(net::NodeId sink, const storage::RangeQuery& q,
                      SubscriptionId id, bool add);

  std::size_t cell_key(std::size_t pool_dim, CellOffset offset) const;
  net::NodeId pick_delegate(net::NodeId index_node) const;

  /// Repairs a cell whose holders include silently-dead nodes (the index
  /// node's beacon table exposes them) so a query never fabricates
  /// answers from destroyed storage. No-op while everything is alive.
  void absorb_dead_holders(std::size_t key);

  /// Charges the DHT round trip for `node`'s first use of `pool_dim`'s
  /// pivot (no-op when lookups are free or already cached). Returns the
  /// messages charged.
  std::uint64_t charge_pivot_lookup(net::NodeId node, std::size_t pool_dim);

  /// Directory home node of a pool's pivot record (GHT-style hash).
  net::NodeId directory_home(std::size_t pool_dim) const;

  net::Network& net_;
  const routing::Router& router_;
  std::size_t dims_;
  PoolConfig config_;

  storage::LegSender legs_;
  /// Reused by the bare routes (DHT lookups, notifications).
  routing::RouteResult route_scratch_;
  Grid grid_;
  PoolLayout layout_;
  /// k * l^2 per-cell column stores. Each row carries the event plus meta
  /// columns: `holder` (the index node itself, or a delegate neighbor)
  /// and a replica flag (mirror copies, invisible to queries).
  std::vector<storage::column::ColumnStore> cells_;
  mutable storage::column::ScanStats scan_stats_;
  std::size_t stored_count_ = 0;
  std::size_t replica_count_ = 0;

  /// pivot_cache_[node * dims + pool] — set once the node has looked the
  /// pivot up (only allocated when charge_dht_lookup is on).
  std::vector<char> pivot_cache_;

  /// splitter_cache_[pool * n + sink] — the splitter depends only on the
  /// static layout and the sink position, so the l² index-node scan runs
  /// once per (pool, sink) and replays thereafter.
  mutable std::vector<net::NodeId> splitter_cache_;

  /// Cells in (pool, ho, vo) order; the skyline's visit order per mask.
  storage::CornerOrder skyline_order_;

  /// Nodes whose failure has already been absorbed (failover is
  /// idempotent per node). Allocated lazily on the first failure.
  std::vector<char> known_dead_;

  // --- continuous-query state ---
  struct Subscription {
    net::NodeId sink = net::kNoNode;
    storage::RangeQuery query;
    std::vector<storage::Event> pending;
  };
  std::map<SubscriptionId, Subscription> subscriptions_;
  std::vector<std::vector<SubscriptionId>> cell_subs_;  // per cell key
  SubscriptionId next_subscription_ = 1;
};

}  // namespace poolnet::core
