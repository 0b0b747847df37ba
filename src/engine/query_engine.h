// The sink-side batched query engine — the serving layer over any
// DcsSystem (Pool, DIM, GHT all pluggable).
//
// Callers submit() requests of any class and redeem tickets; the engine
// collects concurrent submissions into EPOCHS, flushed when the epoch
// reaches batch_size queries or batch_deadline logical events pass (every
// submit/insert/tick advances the clock). At flush the pending requests
// are grouped by sink and each group goes to DcsSystem::execute_batch in
// one call, which merges its ranges into ONE dissemination (unioned
// relevant-cell sets, deduped cell visits, one reply per answering node)
// — then the engine hands every caller a result byte-identical to serial
// execution (DESIGN.md §8 has the argument).
//
// A ResultCache keyed on normalized query rectangles short-circuits
// repeat queries entirely (zero messages); inserts routed through the
// engine invalidate exactly the cached rectangles that contain the new
// event, so hits can never be stale.
//
// Timing semantics: a batched query observes the store AS OF ITS FLUSH,
// so an insert landing between submit and flush is visible — the same
// answer a serial query issued at the flush instant would return.
// NOT thread-safe, by design: one engine per testbed, like the Network
// and RouteCache underneath it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/result_cache.h"
#include "sim/stats.h"
#include "storage/dcs_system.h"

namespace poolnet::engine {

struct QueryEngineConfig {
  /// Queries per epoch before a forced flush. 0 or 1 = serial issue
  /// (every submit executes immediately, nothing is ever held).
  std::size_t batch_size = 0;

  /// A pending epoch also flushes once this many logical events have
  /// passed since it opened.
  std::uint64_t batch_deadline = 16;

  ResultCacheConfig cache;
};

/// Parses a --batch spec: "off" or a positive epoch size. Returns false
/// and sets `error` on a malformed spec.
bool parse_batch_spec(const std::string& spec, std::size_t* batch_size,
                      std::string* error);

/// Point-in-time view of the engine's counters. The integer counters
/// live in a MetricsRegistry under "<prefix>.submitted" etc.; stats()
/// assembles this struct from them (plus the resident RunningStats).
struct EngineStats {
  std::uint64_t submitted = 0;    ///< queries accepted by submit()
  std::uint64_t cache_hits = 0;   ///< answered from the result cache
  std::uint64_t batches = 0;      ///< merged rounds (>= 2 queries) executed
  std::uint64_t serial_executions = 0;  ///< queries issued unbatched
  std::uint64_t skyline_queries = 0;    ///< executed skyline requests
  std::uint64_t knn_queries = 0;        ///< executed k-NN requests

  std::uint64_t messages = 0;        ///< per-hop transmissions charged
  std::uint64_t messages_saved = 0;  ///< vs. serial issue (batch receipts)
  std::uint64_t serial_cell_visits = 0;
  std::uint64_t unique_cell_visits = 0;

  sim::RunningStat batch_occupancy;  ///< queries per flushed sink-group
  sim::RunningStat dedup_ratio;      ///< serial / unique visits, per batch

  // Fault-tolerance counters, diffed from the system's FaultStats around
  // engine-driven operations. All zero on a fault-free run.
  std::uint64_t retries = 0;      ///< reliable-leg retransmission rounds
  std::uint64_t failovers = 0;    ///< index/owner/home re-elections
  std::uint64_t failed_legs = 0;  ///< legs abandoned after every retry
  std::uint64_t events_lost = 0;  ///< stored events destroyed or dropped

  /// Σ serial visits / Σ unique visits across every executed batch;
  /// >= 1 whenever batching found any overlap.
  double overall_dedup_ratio() const {
    return unique_cell_visits > 0
               ? static_cast<double>(serial_cell_visits) /
                     static_cast<double>(unique_cell_visits)
               : 1.0;
  }
};

class QueryEngine {
 public:
  using Ticket = std::uint64_t;

  /// With a non-null `metrics`, every engine counter (and the result
  /// cache's, under `<prefix>.result_cache`) registers there; otherwise
  /// the engine owns a private registry.
  explicit QueryEngine(storage::DcsSystem& system, QueryEngineConfig config = {},
                       obs::MetricsRegistry* metrics = nullptr,
                       const std::string& prefix = "engine");

  const QueryEngineConfig& config() const { return config_; }
  storage::DcsSystem& system() { return system_; }

  /// Logical engine clock: advances by one per submit/insert and by
  /// `events` per tick. TTLs and deadlines are measured in these units.
  std::uint64_t now() const { return now_; }
  void tick(std::uint64_t events = 1);

  /// Admits a query issued at `sink` — any class (RangeQuery converts
  /// implicitly). Cache hits and serial mode resolve immediately;
  /// otherwise the query joins the pending epoch. Every class shares the
  /// epoch's timing (it observes the store as of its flush); within
  /// DcsSystem::execute_batch only range queries merge, and only range
  /// results enter the cache.
  Ticket submit(net::NodeId sink, const storage::QueryRequest& query);

  /// Executes every pending query now, regardless of epoch triggers.
  void flush();

  bool ready(Ticket ticket) const { return results_.count(ticket) > 0; }
  std::size_t pending() const { return pending_.size(); }

  /// Redeems a ticket, flushing first if its query is still pending.
  /// Throws on unknown (or already-taken) tickets.
  storage::QueryReceipt take(Ticket ticket);

  /// Routes an insert through the engine so the cache invalidates every
  /// rectangle containing the new event before it can serve stale hits.
  storage::InsertReceipt insert(net::NodeId source, const storage::Event& e);

  /// Data aging passthrough. Cached entries shed their own aged events in
  /// place (the exact post-aging answers) instead of being cleared.
  std::size_t expire_before(double cutoff);

  /// Thin views assembled from the registry counters.
  EngineStats stats() const;
  ResultCacheStats cache_stats() const { return cache_.stats(); }

 private:
  struct PendingQuery {
    Ticket ticket;
    net::NodeId sink;
    storage::QueryRequest query;
  };

  /// Flushes the pending epoch when its deadline has passed.
  void advance_clock(std::uint64_t events);
  /// Runs requests from one sink as one DcsSystem::execute_batch call
  /// (serial mode: a group of one) and records their receipts.
  void execute_group(net::NodeId sink, std::vector<PendingQuery> members);
  void finish(Ticket ticket, const storage::QueryRequest& q,
              storage::QueryReceipt receipt);

  /// Folds the system's fault counters accumulated since the last call
  /// into the engine stats.
  void absorb_fault_stats();

  storage::DcsSystem& system_;
  QueryEngineConfig config_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  ///< fallback
  ResultCache cache_;  ///< after owned_metrics_: may register into it
  std::vector<PendingQuery> pending_;
  std::uint64_t epoch_opened_ = 0;  ///< now() when pending_ got its first entry
  std::unordered_map<Ticket, storage::QueryReceipt> results_;

  obs::MetricsRegistry::Counter submitted_, cache_hits_, batches_,
      serial_executions_, skyline_queries_, knn_queries_, messages_,
      messages_saved_, serial_cell_visits_, unique_cell_visits_, retries_,
      failovers_, failed_legs_, events_lost_;
  sim::RunningStat batch_occupancy_;  ///< queries per flushed sink-group
  sim::RunningStat dedup_ratio_;      ///< serial / unique visits, per batch

  storage::FaultStats fault_seen_;  ///< system counters at the last absorb
  std::uint64_t now_ = 0;
  Ticket next_ticket_ = 1;
};

}  // namespace poolnet::engine
