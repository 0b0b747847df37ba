// GPSR — Greedy Perimeter Stateless Routing (Karp & Kung, MobiCom 2000).
//
// The routing substrate shared by Pool, DIM, and GHT-style schemes. Routes
// a packet toward a geographic destination:
//  * greedy mode: forward to the living neighbor closest to the
//    destination, while one is strictly closer than the current node.
//    Exact distance ties go to the lowest id. Neighbor rows ascend by id
//    (Topology::build_rows), so the scan keeps the first strict minimum
//    with a bare `<`: no tie clause, and the compiler emits the min
//    without a branch. The perimeter sweep breaks its angle ties the
//    same way over the planar rows, which also ascend;
//  * perimeter mode: on a local minimum, walk faces of the planarized
//    graph with the right-hand rule, changing faces where edges cross the
//    line from the perimeter-entry point to the destination, until a node
//    closer than the entry point is found (then back to greedy).
//
// Termination: the distance of successive perimeter-entry points to the
// destination strictly decreases, so a packet to a reachable node position
// always arrives. A packet to an arbitrary location terminates when a
// perimeter tour would re-traverse its first edge — it is then delivered
// at the node that started the tour (the GHT "home node" convention, used
// by data-centric storage to make locations addressable).
//
// Greedy next-hop memo: the greedy step out of a node depends only on that
// node, the exact destination point and the set of living nodes. Nodes
// never revive (Network::kill is the only writer of `alive`), so
// Network::dead_count() is a generation number for that set. Gpsr keeps a
// few per-destination tables of greedy choices for recurring destinations
// and reuses one while its destination is bit-identical and no node has
// died since it was filled, so the many legs that converge on one sink
// (GHT's flood replies, DIM's owner replies) compute each shared greedy
// hop once. Perimeter mode is not memoized. Every RouteResult is
// identical to a memo-less router's.
//
// NOT thread-safe: the memo is mutable state behind the const routing
// calls. One Gpsr per system, like RouteCache and the Network it routes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/geometry.h"
#include "net/network.h"
#include "routing/router.h"

namespace poolnet::routing {

class Gpsr final : public Router {
 public:
  /// Routes over the topology's Gabriel planar graph, built once per
  /// deployment. Packets carry no state between calls; only the greedy
  /// next-hop memo persists.
  explicit Gpsr(const net::Network& network);

  /// Routes over another planar subgraph of the same topology (the RNG
  /// rule, in tests); `planar` must outlive the router.
  Gpsr(const net::Network& network, const net::PlanarGraph& planar);

  /// In place: the path is built directly in `out.path`, so a warm
  /// scratch RouteResult routes with zero allocations.
  void route_to_node_into(net::NodeId src, net::NodeId dst,
                          RouteResult& out) const override;

  /// Route from `src` toward an arbitrary location; delivers at the home
  /// node (the node whose face tour encloses the location). Not part of
  /// Router, since systems address nodes only; it pins the face-tour
  /// termination that route_to_node relies on when faults cut a target
  /// off.
  RouteResult route_to_location(net::NodeId src, Point dest) const;

  const net::Network* network() const override { return &net_; }

 private:
  void route_impl(net::NodeId src, Point dest, net::NodeId exact_target,
                  RouteResult& result) const;

  /// First planar neighbor of `at` counter-clockwise from direction
  /// `ref_angle`; `exclude_zero` skips an edge at exactly the reference
  /// angle (used so the right-hand rule does not immediately bounce back).
  net::NodeId first_ccw_neighbor(net::NodeId at, double ref_angle,
                                 net::NodeId skip) const;

  /// Greedy choices toward one destination point: hop[n].next is the
  /// greedy next hop out of n (kNoNode at a local minimum), valid only
  /// where hop[n].stamp == epoch. Bumping `epoch` empties the table in
  /// O(1).
  struct GreedyMemo {
    struct Hop {
      net::NodeId next = net::kNoNode;
      std::uint32_t stamp = 0;
    };
    Point dest{};
    std::size_t dead_count = 0;
    std::uint64_t last_used = 0;
    std::uint32_t epoch = 0;  ///< 0 = never bound
    std::vector<Hop> hop;
  };
  /// Enough for DIM's sink->owner / owner->sink alternation to keep the
  /// sink's table.
  static constexpr std::size_t kMemoSlots = 4;
  /// A destination gets a table only when it recurs within this many
  /// unmemoized routes, so one-shot legs (inserts to hashed homes, cold
  /// probes) pay no memo writes and evict no converging leg's table.
  static constexpr std::size_t kRecentDests = 8;

  /// The table for `dest` under the current dead set: its bound slot,
  /// or, for a recurring destination, the least recently used slot
  /// emptied and rebound to it. nullptr for a first sighting.
  GreedyMemo* memo_for(Point dest) const;

  const net::Network& net_;
  const net::PlanarGraph& planar_;
  mutable std::array<GreedyMemo, kMemoSlots> memo_;
  mutable std::uint64_t memo_clock_ = 0;
  mutable std::array<Point, kRecentDests> recent_dests_{};
  mutable std::size_t recent_next_ = 0;
};

}  // namespace poolnet::routing
