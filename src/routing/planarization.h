// Local planarization of the unit-disk graph.
//
// GPSR's perimeter mode requires a planar subgraph. Both standard local
// rules are implemented:
//  * Gabriel graph (GG): keep (u,v) unless some witness w lies strictly
//    inside the circle with diameter uv. Denser than RNG, shorter detours.
//  * Relative neighborhood graph (RNG): keep (u,v) unless some w is
//    strictly closer to both u and v than they are to each other.
//
// Both rules are computable from one-hop neighbor tables only (every
// candidate witness for an edge within radio range is itself within range
// of both endpoints), preserve connectivity of a connected unit-disk graph,
// and yield planar graphs when node positions are in general position.
#pragma once

#include <span>
#include <vector>

#include "net/network.h"

namespace poolnet::routing {

enum class PlanarizationRule { Gabriel, RelativeNeighborhood };

/// The planar subgraph: per-node adjacency (sorted by id, symmetric).
class PlanarGraph {
 public:
  PlanarGraph(const net::Network& network, PlanarizationRule rule);

  std::span<const net::NodeId> neighbors(net::NodeId id) const;
  bool has_edge(net::NodeId a, net::NodeId b) const;
  std::size_t edge_count() const;  ///< undirected edges
  PlanarizationRule rule() const { return rule_; }

  /// True when the planar subgraph is connected (it must be whenever the
  /// underlying unit-disk graph is).
  bool is_connected() const;

 private:
  std::vector<std::vector<net::NodeId>> adj_;
  PlanarizationRule rule_;
};

}  // namespace poolnet::routing
