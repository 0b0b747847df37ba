// The routing abstraction shared by every DCS system.
//
// Pool, DIM, GHT and the centralized oracle only ever ask two questions of
// the substrate: "route to this node" and "route toward this location".
// Router is that two-method interface; Gpsr is the protocol implementation
// and RouteCache a memoizing decorator over any Router. Systems hold a
// `const Router&` so a testbed can interpose the cache without the systems
// knowing. The returned RouteResult is identical either way, which keeps
// every message count bit-identical with caching on or off, under faults
// too: the cache drops every stored path through a node killed since the
// path was stored before it serves another route.
#pragma once

#include <cstddef>
#include <vector>

#include "common/geometry.h"
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

  /// True when `delivered` sits exactly at the requested location (always
  /// true for route_to_node on a connected network).
  bool exact = false;

  /// Hops spent in perimeter mode (diagnostic; 0 on pure-greedy paths).
  std::size_t perimeter_hops = 0;

  std::size_t hops() const { return path.empty() ? 0 : path.size() - 1; }
};

class Router {
 public:
  virtual ~Router() = default;

  /// Route from `src` to the position of `dst`. On a connected network
  /// this always delivers at `dst`.
  virtual RouteResult route_to_node(net::NodeId src,
                                    net::NodeId dst) const = 0;

  /// Route from `src` toward an arbitrary location; delivers at the home
  /// node (the node whose face tour encloses the location).
  virtual RouteResult route_to_location(net::NodeId src, Point dest) const = 0;

  /// Scratch-handle forms: write the route into `out`, reusing
  /// `out.path`'s capacity across calls so a warm caller routes without
  /// touching the heap. Value-identical to the returning overloads (the
  /// defaults delegate to them; real routers override with an in-place
  /// implementation).
  virtual void route_to_node_into(net::NodeId src, net::NodeId dst,
                                  RouteResult& out) const {
    out = route_to_node(src, dst);
  }
  virtual void route_to_location_into(net::NodeId src, Point dest,
                                      RouteResult& out) const {
    out = route_to_location(src, dest);
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
