// The routing abstraction shared by every DCS system.
//
// Pool, DIM, GHT and the centralized oracle only ever ask one question of
// the substrate: "route to this node" (GHT resolves a hashed location to
// its home node before it sends). Router is that one-method interface;
// Gpsr is the protocol implementation and RouteCache a memoizing
// decorator over any Router. Systems hold a `const Router&` so a testbed
// can interpose the cache without the systems knowing. The returned
// RouteResult is identical either way, which keeps every message count
// bit-identical with caching on or off, under faults too: the cache drops
// every stored path through a node killed since the path was stored
// before it serves another route.
#pragma once

#include <cstddef>
#include <vector>

#include "net/node.h"

namespace poolnet::net {
class Network;
}

namespace poolnet::routing {

/// Outcome of one routed packet.
struct RouteResult {
  /// Nodes visited, source first, delivery node last. Consecutive entries
  /// are radio neighbors; hops() = path.size() - 1.
  std::vector<net::NodeId> path;

  /// Node where the packet was delivered.
  net::NodeId delivered = net::kNoNode;

  /// True when `delivered` is the requested target (always true for a
  /// node route on a connected network).
  bool exact = false;

  /// Hops spent in perimeter mode (diagnostic; 0 on pure-greedy paths).
  std::size_t perimeter_hops = 0;

  std::size_t hops() const { return path.empty() ? 0 : path.size() - 1; }
};

class Router {
 public:
  virtual ~Router() = default;

  /// Route from `src` to the position of `dst`, written into `out`:
  /// `out.path`'s capacity is reused across calls, so a warm caller
  /// routes without touching the heap. On a connected network this always
  /// delivers at `dst`.
  virtual void route_to_node_into(net::NodeId src, net::NodeId dst,
                                  RouteResult& out) const = 0;

  /// Returning form of route_to_node_into().
  RouteResult route_to_node(net::NodeId src, net::NodeId dst) const {
    RouteResult out;
    route_to_node_into(src, dst, out);
    return out;
  }

  /// Failure feedback from the delivery layer: `dead` was discovered
  /// unreachable (ack timeouts exhausted). Routers that store no paths
  /// ignore it (Gpsr's greedy memo keys on Network::dead_count());
  /// caching decorators must drop every stored path traversing the node so
  /// stale routes through dead nodes are never served again. `const`
  /// because systems hold routers by const reference (caches mutate their
  /// internal, already-mutable state).
  virtual void note_dead(net::NodeId dead) const { (void)dead; }

  /// The network this router routes over (null if none). Caching
  /// decorators read its dead_count() to notice kills nobody reported.
  virtual const net::Network* network() const { return nullptr; }
};

}  // namespace poolnet::routing
