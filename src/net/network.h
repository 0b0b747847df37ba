// One system's ledger over a shared deployment: its node records and
// traffic tally, over an immutable net::Topology.
//
// Network is the single source of truth for the paper's evaluation
// metric. Routing layers compute paths; every per-hop transmission must be
// charged through transmit() / transmit_path() so the ledger
// (TrafficTally + per-node counters + energy) stays consistent.
//
// A Network holds only what one system mutates (alive bits, counters,
// energy, the loss RNG, traffic, trace) plus each record's copy of its
// position; its other topology accessors forward inline to the Topology
// it shares. A hop's link check is O(1): neighbors are by definition the
// nodes within radio range, so transmit_hop tests the same within_reach
// predicate on the same squared distance the table was built from, and
// reuses that distance for the energy charge.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/assert.h"
#include "common/geometry.h"
#include "common/rng.h"
#include "net/message.h"
#include "net/node.h"
#include "net/topology.h"
#include "obs/trace.h"
#include "sim/energy.h"

namespace poolnet::net {

class Network {
 public:
  /// A ledger over a shared deployment. `loss` configures per-hop frame
  /// loss + ARQ accounting; the loss draws are deterministic per
  /// `loss_seed`.
  explicit Network(std::shared_ptr<const Topology> topology,
                   MessageSizes sizes = {}, sim::EnergyModel energy = {},
                   LinkLossModel loss = {},
                   std::uint64_t loss_seed = 0x10552);

  /// Builds a Topology of its own from node positions (all nodes within
  /// `radio_range_m` linked) and a ledger over it.
  Network(std::vector<Point> positions, Rect field, double radio_range_m,
          MessageSizes sizes = {}, sim::EnergyModel energy = {},
          LinkLossModel loss = {}, std::uint64_t loss_seed = 0x10552);

  // --- topology: shared, forwarded to net::Topology ---
  const Topology& topology() const { return *topo_; }
  std::size_t size() const { return nodes_.size(); }
  const Rect& field() const { return topo_->field(); }
  double radio_range() const { return topo_->radio_range(); }
  std::span<const NodeId> neighbors(NodeId id) const {
    return topo_->neighbors(id);
  }
  bool are_neighbors(NodeId a, NodeId b) const {
    return topo_->are_neighbors(a, b);
  }
  NodeId nearest_node(Point p) const { return topo_->nearest_node(p); }
  std::vector<NodeId> nodes_within(Point p, double radius) const {
    return topo_->nodes_within(p, radius);
  }
  bool is_connected() const { return topo_->is_connected(); }
  double average_degree() const { return topo_->average_degree(); }

  // --- per-node state, this system's own ---
  const Node& node(NodeId id) const {
    POOLNET_ASSERT(id < nodes_.size());
    return nodes_[id];
  }
  Node& node_mut(NodeId id) {
    POOLNET_ASSERT(id < nodes_.size());
    return nodes_[id];
  }
  /// Per-node state, indexed by NodeId.
  const std::vector<Node>& nodes() const { return nodes_; }
  /// The record's copy of Topology::position(id), beside its alive bit
  /// and counters, so a per-hop reader touches one record.
  Point position(NodeId id) const { return node(id).pos; }

  /// Nearest LIVING node to `p`. Identical to nearest_node() until a
  /// fault plan kills something; kNoNode if every node is dead.
  NodeId nearest_alive_node(Point p) const;

  // --- fault state (all nodes start alive; see net::FaultInjector) ---
  bool alive(NodeId id) const { return node(id).alive; }
  std::size_t dead_count() const { return dead_count_; }
  bool has_failures() const { return dead_count_ > 0; }

  /// Crashes a node: it stops acking and forwarding. Idempotent. Its
  /// stored events are NOT reclaimed here — that is the DCS layers'
  /// failover job (DcsSystem::handle_node_failure).
  void kill(NodeId id);

  /// Transient link degradation: extra per-attempt loss composed with the
  /// base model, effective = 1 - (1-base)(1-extra). 0 restores the base.
  void set_extra_loss(double p);
  double extra_loss() const { return extra_loss_; }

  // --- traffic ledger ---
  const MessageSizes& sizes() const { return sizes_; }
  const LinkLossModel& loss_model() const { return loss_; }

  /// Charge one hop from `from` to `to` (must be neighbors or equal; a
  /// self-delivery charges nothing; out-of-range ids or a hop between
  /// non-neighbors throws AssertionError). Returns true when the frame was
  /// delivered. A dead sender transmits nothing (false, nothing charged).
  /// A dead receiver never acks: the sender burns its full ARQ attempt
  /// budget (all charged as messages + TX energy, no RX), the frame
  /// counts in TrafficTally::lost, and the call returns false — this is
  /// how upper layers DETECT a failure.
  bool transmit(NodeId from, NodeId to, MessageKind kind, std::uint64_t bits);

  /// Delivery outcome of a multi-hop transmission.
  struct PathDelivery {
    NodeId reached = kNoNode;         ///< last node holding the message
    std::size_t hops_delivered = 0;   ///< successful hops before any failure
    bool complete = false;            ///< every hop of the path succeeded
  };

  /// Charge every hop of `path` (consecutive entries must be neighbors),
  /// stopping at the first failed hop. A path of size <2 charges nothing
  /// and is trivially complete.
  PathDelivery transmit_path(const std::vector<NodeId>& path, MessageKind kind,
                             std::uint64_t bits);

  const TrafficTally& traffic() const { return traffic_; }
  void reset_traffic();

  // --- hop tracing ---
  /// Attaches (or with nullptr, detaches) a hop-trace sink. Not owned.
  /// Disabled tracing costs one null-pointer test per hop. Each
  /// transmit() call is one traced message; a transmit_path() call
  /// shares one message id across its hops with ascending hop indices.
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }
  obs::TraceSink* trace() const { return trace_; }

 private:
  /// One charged hop of message `msg_id` at position `hop_index`.
  bool transmit_hop(NodeId from, NodeId to, MessageKind kind,
                    std::uint64_t bits, std::uint64_t msg_id,
                    std::uint32_t hop_index);

  std::shared_ptr<const Topology> topo_;
  std::vector<Node> nodes_;
  MessageSizes sizes_;
  sim::EnergyModel energy_;
  LinkLossModel loss_;
  Rng loss_rng_;
  TrafficTally traffic_;
  std::size_t dead_count_ = 0;
  double extra_loss_ = 0.0;
  obs::TraceSink* trace_ = nullptr;
  std::uint64_t next_msg_id_ = 0;
};

}  // namespace poolnet::net
