// GHT — a Geographic Hash Table (Ratnasamy et al., MONET 2003).
//
// The original data-centric storage scheme and the paper's reference
// [13]: events are hashed BY VALUE to a geographic location and stored at
// the home node nearest that location. Lookups of a known value hash to
// the same place — an exact-match point query costs two unicasts.
//
// The paper's introduction uses GHT as the motivating negative example:
// it has no value-locality whatsoever, so a RANGE query cannot be routed
// anywhere — it must flood the network. This implementation is faithful
// to both halves: point queries are cheap, and range/partial queries fall
// back to a network-wide flood so the cost blow-up Pool eliminates can be
// measured rather than asserted.
//
// Multi-dimensional events are keyed by their value vector quantized at
// `quantum` (GHT named events by type; a quantized tuple is the natural
// multi-attribute analogue — two readings agreeing to the quantum share a
// home node).
//
// One walk (DESIGN.md §16): every non-point query class — range,
// skyline, k-NN, aggregate — is a local operation over flood_collect().
// Point queries and inserts reach a home through LegSender::reach(), the
// one place a key re-homes; replies go through the same storage::LegSender.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "routing/router.h"
#include "storage/column/column_store.h"
#include "storage/dcs_system.h"
#include "storage/leg_sender.h"

namespace poolnet::ght {

struct GhtConfig {
  /// Value-quantization step for the hash key. Queried points must match
  /// stored values to this resolution to hash to the same home node.
  double quantum = 0.01;

  /// Salt for the key-to-location hash.
  std::uint64_t hash_seed = 0x6e7f1a2b3c4d5e6fULL;
};

class GhtSystem final : public storage::DcsSystem {
 public:
  GhtSystem(net::Network& network, const routing::Router& router,
            std::size_t dims, GhtConfig config = {});

  std::string name() const override { return "GHT"; }
  std::string describe() const override;
  std::size_t dims() const override { return dims_; }

  storage::InsertReceipt insert(net::NodeId source,
                                const storage::Event& event) override;

  std::size_t stored_count() const override { return stored_count_; }
  std::size_t expire_before(double cutoff) override;

  const storage::column::ScanStats* scan_stats() const override {
    return &scan_stats_;
  }

  /// Online failover: the dead node's store is counted lost (GHT keeps a
  /// single copy per key), and every cached home pointing at it is
  /// forgotten so affected keys re-home at the nearest survivor — the
  /// perimeter-walk convention applied to the survivor set. Idempotent.
  void handle_node_failure(net::NodeId dead) override;

  /// Home node for an event's (quantized) value vector.
  net::NodeId home_node(const storage::Values& values) const;

 protected:
  /// Exact-match point queries hash to the home node (two unicasts).
  /// Everything else floods: one broadcast over the connectivity graph
  /// plus a unicast reply from every node holding matches.
  storage::QueryReceipt query(net::NodeId sink,
                              const storage::RangeQuery& query) override;

  /// Skyline by flood: value hashing gives no dominance locality at all,
  /// so every node is visited; each holder replies with its LOCAL skyline
  /// and the sink merges. The flood-baseline cost Pool's corner pruning
  /// is measured against.
  storage::QueryReceipt skyline(net::NodeId sink,
                                const storage::SkylineQuery& query) override;

  /// k-NN by flood: no distance locality either — one network-wide flood,
  /// each holder replies with its local top-k, the sink keeps the best k
  /// (always a single round).
  storage::QueryReceipt k_nearest(
      net::NodeId sink, const storage::KNearestQuery& query) override;

  /// Merged range execution: point queries hashing to the same home
  /// node share one probe, all range/partial queries in the batch share a
  /// SINGLE network flood, and every answering node replies once with the
  /// distinct matching events of all askers. Per-query results are
  /// identical to serial range queries (DESIGN.md §8).
  storage::BatchQueryReceipt merge_ranges(
      net::NodeId sink,
      const std::vector<storage::RangeQuery>& queries) override;

  /// Aggregates flood like ranges; each holder sends one partial home.
  storage::QueryReceipt aggregate(
      net::NodeId sink, const storage::AggregateQuery& query) override;

 private:
  std::uint64_t key_of(const storage::Values& values) const;
  Point location_of(std::uint64_t key) const;

  /// The flood every non-point query rides: one flood from `sink`, dead
  /// holders absorbed, then every holder runs `local` on its store — which
  /// returns the rows it replies with — and replies straight to the sink
  /// (one fixed-size partial when `partial`). `keep()` runs once a reply
  /// arrived. Returns the number of holders that replied.
  template <class Local, class Keep>
  std::size_t flood_collect(net::NodeId sink, bool partial, Local&& local,
                            Keep&& keep);

  /// Charges a network-wide flood rooted at `sink` (each node rebroadcasts
  /// once: n-1 Query transmissions over a BFS tree) and returns the number
  /// of nodes reached. The tree is recomputed per call — GHT keeps no
  /// routing state; only the BFS buffers below persist.
  std::size_t charge_flood(net::NodeId sink);

  net::Network& net_;
  std::size_t dims_;
  GhtConfig config_;

  storage::LegSender legs_;
  std::vector<storage::column::ColumnStore> store_;  // per home node
  mutable storage::column::ScanStats scan_stats_;
  std::size_t stored_count_ = 0;

  /// Quantized-key → home node; the nearest_node expanding-ring search
  /// runs once per distinct key (the hash is deterministic, so so is the
  /// home node).
  mutable std::unordered_map<std::uint64_t, net::NodeId> home_cache_;

  /// Nodes whose failure has already been absorbed (failover is
  /// idempotent per node). Allocated lazily on the first failure.
  std::vector<char> known_dead_;

  /// charge_flood's scratch, reused across floods: reached-node marks
  /// and the BFS frontier, kept as a vector read front to back.
  std::vector<char> flood_seen_;
  std::vector<net::NodeId> flood_frontier_;
};

}  // namespace poolnet::ght
