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

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/node.h"

namespace poolnet::net {

class Topology;

enum class PlanarizationRule { Gabriel, RelativeNeighborhood };

/// Whether the graph over nodes 0..n-1 whose rows `neighbors(u)` yields is
/// one connected component (a depth-first search from node 0; n >= 1).
template <class Rows>
bool connected(std::size_t n, Rows neighbors) {
  std::vector<char> seen(n, 0);
  std::vector<NodeId> stack{0};
  seen[0] = 1;
  std::size_t visited = 0;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    ++visited;
    for (const NodeId v : neighbors(u)) {
      if (!seen[v]) {
        seen[v] = 1;
        stack.push_back(v);
      }
    }
  }
  return visited == n;
}

/// The planar subgraph: one CSR adjacency like the topology's (rows
/// sorted by id, symmetric). It depends only on positions and neighbor
/// rows, so one Gabriel graph is built per Topology and shared by every
/// router over it.
class PlanarGraph {
 public:
  PlanarGraph(const Topology& topology, PlanarizationRule rule);

  std::span<const NodeId> neighbors(NodeId id) const;
  bool has_edge(NodeId a, NodeId b) const;
  std::size_t edge_count() const;  ///< undirected edges

  /// True when the planar subgraph is connected (it must be whenever the
  /// underlying unit-disk graph is).
  bool is_connected() const;

 private:
  /// Node i's planar neighbors are ids_[offsets_[i] .. offsets_[i + 1]).
  std::vector<std::uint32_t> offsets_;
  std::vector<NodeId> ids_;
};

}  // namespace poolnet::net
