// The static unit-disk deployment every system routes over (§5.1).
//
// A Topology is immutable once built and is shared through
// std::shared_ptr<const Topology>: the positions, the spatial index, the
// neighbor tables and GPSR's Gabriel planar subgraph are built once per
// deployment, however many systems (each with its own net::Network
// ledger) run on it. None of it depends on which nodes are alive:
// routing skips dead nodes at use.
//
// Neighbor tables are one CSR adjacency (row offsets plus ids, ascending
// within each row), so neighbors() is a span into a shared array. The
// accessors GPSR calls per neighbor are inline and keep their bounds
// assertions.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.h"
#include "common/geometry.h"
#include "net/node.h"
#include "net/planarization.h"
#include "net/spatial_index.h"

namespace poolnet::net {

class Topology {
 public:
  /// Links every pair of nodes within `radio_range_m` (unit-disk model,
  /// symmetric links), then planarizes with the Gabriel rule.
  Topology(std::vector<Point> positions, Rect field, double radio_range_m);

  std::size_t size() const { return positions_.size(); }
  const Rect& field() const { return field_; }
  double radio_range() const { return radio_range_; }
  /// The squared radio range: the bound within_reach() tests links with.
  double range_sq() const { return range_sq_; }

  Point position(NodeId id) const {
    POOLNET_ASSERT(id < positions_.size());
    return positions_[id];
  }
  /// Ids within radio range of `id` (itself excluded), ascending.
  std::span<const NodeId> neighbors(NodeId id) const {
    POOLNET_ASSERT(id < positions_.size());
    return {adj_ids_.data() + adj_offsets_[id],
            adj_ids_.data() + adj_offsets_[id + 1]};
  }
  /// Whether `a` and `b` are distinct nodes within radio range: the
  /// relation neighbors() tabulates, evaluated in O(1).
  bool are_neighbors(NodeId a, NodeId b) const {
    return a != b && within_reach(distance_sq(position(a), position(b)),
                                  range_sq_);
  }

  /// Node nearest to an arbitrary location (the GHT-style "home node").
  NodeId nearest_node(Point p) const;

  /// All nodes within `radius` of `p`.
  std::vector<NodeId> nodes_within(Point p, double radius) const;

  /// True when the unit-disk graph is a single connected component.
  bool is_connected() const;

  /// Mean neighbor-table size (sanity check against the paper's ~20).
  double average_degree() const;

  /// The Gabriel planar subgraph GPSR's perimeter mode walks.
  const PlanarGraph& planar() const { return planar_; }

 private:
  /// Fills the CSR rows from the spatial index; returns *this so the
  /// planar graph can be built from the finished rows in the init list.
  const Topology& build_rows();

  Rect field_;
  double radio_range_;
  double range_sq_;
  std::vector<Point> positions_;
  SpatialIndex index_;
  /// CSR neighbor tables: node i's neighbors are
  /// adj_ids_[adj_offsets_[i] .. adj_offsets_[i + 1]), ascending.
  std::vector<std::uint32_t> adj_offsets_;
  std::vector<NodeId> adj_ids_;
  /// Declared last: built from the positions and rows above.
  PlanarGraph planar_;
};

}  // namespace poolnet::net
