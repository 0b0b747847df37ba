// The common interface of data-centric storage systems.
//
// Pool (src/core), DIM (src/dim), GHT (src/ght) and the two central
// stores (BruteForceStore, PagedStore) implement it, which is what lets
// the experiment driver, the engine, the server, the tests and the benches
// treat every system alike — the comparison methodology of Section 5.
//
// Queries enter through two public, non-virtual calls: execute() for one
// request of any class and execute_batch() for several from one sink.
// Both validate the requests and then dispatch to protected per-class
// virtuals (query, skyline, k_nearest, aggregate, merge_ranges), so the
// checks and the batch policy exist once, here (DESIGN.md §15).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/message.h"
#include "net/node.h"
#include "storage/event.h"
#include "storage/query_request.h"
#include "storage/range_query.h"

namespace poolnet::storage {

namespace column {
struct ScanStats;
}

/// The shared message-cost triple every receipt reports: total per-hop
/// transmissions, split into forwarding legs (query + subquery) and
/// reply legs. Receipts inherit it, so the triple is defined once and
/// receipts of different operations sum with operator+=.
struct CostBreakdown {
  std::uint64_t messages = 0;        ///< total per-hop transmissions
  std::uint64_t query_messages = 0;  ///< forwarding legs (query + subquery)
  std::uint64_t reply_messages = 0;  ///< reply legs

  CostBreakdown& operator+=(const CostBreakdown& other) {
    messages += other.messages;
    query_messages += other.query_messages;
    reply_messages += other.reply_messages;
    return *this;
  }
  friend CostBreakdown operator+(CostBreakdown a, const CostBreakdown& b) {
    a += b;
    return a;
  }

  /// Explicit view of the cost triple (handy when a receipt's other
  /// fields shadow the intent at a call site).
  CostBreakdown& cost() { return *this; }
  const CostBreakdown& cost() const { return *this; }
};

/// Classifies a traffic-ledger delta into the standard breakdown:
/// everything counts toward `messages`; Query + SubQuery legs are
/// forwarding, Reply legs are replies (Insert/Control traffic appears in
/// the total only, matching the paper's accounting).
inline CostBreakdown cost_of(const net::TrafficTally& delta) {
  CostBreakdown c;
  c.messages = delta.total;
  c.query_messages = delta.of(net::MessageKind::Query) +
                     delta.of(net::MessageKind::SubQuery);
  c.reply_messages = delta.of(net::MessageKind::Reply);
  return c;
}

/// Cost breakdown of one insertion (`messages` is the only leg kind an
/// insert charges; the query/reply fields stay zero).
struct InsertReceipt : CostBreakdown {
  net::NodeId stored_at = net::kNoNode;  ///< node now holding the event
};

/// The base every query-shaped receipt shares: the cost triple plus the
/// storage-node visit count. Receipts of any class sum with operator+=
/// (cost AND visits), so engines accumulate them without knowing which
/// concrete receipt they hold.
struct ResultReceipt : CostBreakdown {
  std::size_t index_nodes_visited = 0;  ///< storage nodes that processed it

  ResultReceipt& operator+=(const ResultReceipt& other) {
    cost() += other.cost();
    index_nodes_visited += other.index_nodes_visited;
    return *this;
  }
};

/// Result and cost breakdown of one query of any class (see QueryRequest
/// and DcsSystem::execute).
struct QueryReceipt : ResultReceipt {
  std::vector<Event> events;  ///< qualifying events (not for aggregates)
  std::size_t rounds = 0;     ///< expanding-search rounds (k-NN only)
  AggregateResult aggregate;  ///< the answer (aggregate requests only)
};

/// Result of one execute_batch() call.
struct BatchQueryReceipt : ResultReceipt {
  /// One receipt per request, in input order, identical (content AND
  /// order) to what execute() from the same sink would have returned;
  /// `index_nodes_visited` is that request's own visit count. Members
  /// that ran alone carry their exact cost. Ranges that shared a merged
  /// dissemination carry zero message fields in merging systems: their
  /// transport is shared and reported only in the batch totals.
  std::vector<QueryReceipt> per_query;

  std::size_t serial_cell_visits = 0;  ///< Σ per-request visits
  std::size_t unique_cell_visits = 0;  ///< deduped visits actually made

  /// Per-hop transmissions a serial per-request execution would have
  /// charged, minus what the batch charged. Exact on ideal links
  /// (computed from the hop counts of the very routes the merged walk
  /// uses); clamped at 0 under link loss, where retransmission draws make
  /// the comparison stochastic.
  std::uint64_t messages_saved = 0;
};

/// Online fault-tolerance counters. All stay zero on a fully-alive
/// network; they track the degradation a fault plan inflicts mid-run.
struct FaultStats {
  std::uint64_t failovers = 0;        ///< index re-elections / zone adoptions / re-homings
  std::uint64_t events_lost = 0;      ///< stored events destroyed with their holder
  std::uint64_t events_restored = 0;  ///< re-materialized from surviving mirrors
  std::uint64_t retries = 0;          ///< delivery retries after ack timeouts
  std::uint64_t failed_legs = 0;      ///< messages abandoned after the retry budget
};

/// A deployed DCS system bound to a Network. insert() stores a detected
/// event at the node the scheme maps it to; execute() answers a query of
/// any class and charges all forwarding and reply traffic to the network
/// ledger.
class DcsSystem {
 public:
  virtual ~DcsSystem() = default;

  virtual std::string name() const = 0;

  /// One-line, human-readable scheme summary with its deployment
  /// parameters — e.g. "Pool (l=10, alpha=5, dims=3)" — for CLI and
  /// bench banners, so callers never switch over concrete types to
  /// print a header. Defaults to name().
  virtual std::string describe() const { return name(); }

  /// Dimensionality this deployment is configured for.
  virtual std::size_t dims() const = 0;

  /// Store `event`, detected at `source`. Routing costs are charged to the
  /// network ledger and reported in the receipt.
  virtual InsertReceipt insert(net::NodeId source, const Event& event) = 0;

  /// Evaluate one request of any class issued at `sink`: the qualifying
  /// events (or the aggregate) plus the message cost, forwarding and
  /// retrieval (the paper's metric). Throws ConfigError, before any
  /// traffic, when the request does not fit this deployment: its
  /// dimensionality differs from dims(), an aggregate's value_dim is not
  /// below dims(), or a k-NN asks for k = 0 or has a negative
  /// initial_radius.
  QueryReceipt execute(net::NodeId sink, const QueryRequest& request);

  /// Evaluate several requests issued together from one sink. Every
  /// request is validated as in execute() before any traffic. Non-range
  /// requests then run alone, in input order; a single range runs alone
  /// too, and two or more ranges share one merge_ranges() dissemination.
  /// Every per-request result equals what execute() would have returned.
  BatchQueryReceipt execute_batch(net::NodeId sink,
                                  const std::vector<QueryRequest>& requests);

  /// Total events currently stored across all nodes.
  virtual std::size_t stored_count() const = 0;

  /// Data aging: every storage node locally discards events detected
  /// before `cutoff` (timer-driven and local, so it costs no messages).
  /// Returns the number of primary events removed.
  virtual std::size_t expire_before(double cutoff) = 0;

  /// Online failover: the system has learned (via exhausted ack budgets,
  /// see routing::send_reliable) that `dead` stopped responding, and must
  /// repair its index structures so the node is never addressed again —
  /// WITHOUT rebuilding the deployment. Idempotent per node. The default
  /// is a system with no fault tolerance.
  virtual void handle_node_failure(net::NodeId dead) { (void)dead; }

  const FaultStats& fault_stats() const { return fault_stats_; }

  /// Columnar scan-kernel counters aggregated across this system's stores
  /// (rows_scanned / blocks_skipped / bytes_touched), or null for systems
  /// without columnar backing. Published at scrape time as
  /// `<system>.store.scan.*`.
  virtual const column::ScanStats* scan_stats() const { return nullptr; }

 protected:
  // The per-class implementations behind execute(). Requests reaching
  // them are already validated against dims().

  /// Every stored event matching the rectangle.
  virtual QueryReceipt query(net::NodeId sink, const RangeQuery& query) = 0;

  /// Skyline on the selected attribute subset: every stored event no
  /// other stored event dominates, canonically ordered by ascending id.
  /// The default floods — a full-space range query filtered at the sink
  /// — which is correct for any implementation; the built-in systems
  /// override it with distributed dominance pruning (a cell or zone whose
  /// best corner is strictly dominated by a collected event is never
  /// visited).
  virtual QueryReceipt skyline(net::NodeId sink, const SkylineQuery& query);

  /// The k stored events nearest to the query target in attribute space,
  /// ordered by (distance, id). The default floods and filters at the
  /// sink; the built-in systems override it with an expanding box search
  /// that stops once the k-th best distance is inside the covered shell.
  virtual QueryReceipt k_nearest(net::NodeId sink, const KNearestQuery& query);

  /// The aggregate over the range's matching events (Section 3.2.3).
  /// Storage nodes reply with mergeable partial aggregates instead of raw
  /// events; schemes with in-network merge points (Pool's splitters)
  /// collapse reply traffic further.
  virtual QueryReceipt aggregate(net::NodeId sink,
                                 const AggregateQuery& query) = 0;

  /// Two or more ranges from one sink as a single merged dissemination;
  /// only the transport may be shared. The default runs them one by one
  /// (messages_saved stays 0), which keeps a system without a merge
  /// correct; merging systems also fall back to it once nodes have died.
  virtual BatchQueryReceipt merge_ranges(
      net::NodeId sink, const std::vector<RangeQuery>& queries);

  FaultStats fault_stats_;

 private:
  void validate(const QueryRequest& request) const;
  QueryReceipt dispatch(net::NodeId sink, const QueryRequest& request);
};

}  // namespace poolnet::storage
