// Bucket-grid spatial index over node positions.
//
// Supports the two queries the network layer needs in O(1) expected time:
//   * all points within radius r of a point (neighbor-table construction),
//   * the nearest point to an arbitrary location (home-node selection and
//     GPSR greedy checks in tests).
//
// Storage is structure-of-arrays: point coordinates live in separate x/y
// arrays and the cell buckets are flattened CSR-style into one offsets
// array plus one ids array. A radius scan then walks two contiguous
// double arrays and one contiguous id array instead of chasing a
// vector-of-vectors — the difference between ~3 cache lines and ~3
// pointer dereferences per candidate, which dominates neighbor-table
// construction at 100k-node deployments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/geometry.h"

namespace poolnet::net {

/// The unit-disk reach test: a point at squared distance `d2` lies within
/// a radius whose square is `radius_sq`. SpatialIndex::within selects with
/// it and Network checks every hop with it, so the neighbor table built
/// from within() and the per-hop link check are one relation.
constexpr bool within_reach(double d2, double radius_sq) {
  return d2 <= radius_sq;
}

class SpatialIndex {
 public:
  /// Builds over `points` covering `bounds`; `cell_size` should be on the
  /// order of the typical query radius (the radio range).
  SpatialIndex(const std::vector<Point>& points, const Rect& bounds,
               double cell_size);

  /// Indices of points with distance(p, q) <= radius, appended into `out`
  /// (cleared first — capacity is the caller's scratch to reuse across
  /// calls). Ascending index order when `sorted` (callers that
  /// binary_search the result need it); pass false to skip the sort when
  /// only membership or cardinality matters. `q` need not be inside
  /// bounds.
  void within(Point q, double radius, std::vector<std::size_t>& out,
              bool sorted = true) const;

  /// Convenience wrapper returning a fresh vector; hot callers should
  /// hold a scratch buffer and use the out-parameter overload.
  std::vector<std::size_t> within(Point q, double radius,
                                  bool sorted = true) const;

  /// Index of the point nearest to q (ties by lowest index). Requires a
  /// non-empty point set.
  std::size_t nearest(Point q) const;

  std::size_t size() const { return xs_.size(); }

 private:
  std::size_t cell_of(Point p) const;
  void cell_coords(Point p, std::int64_t& cx, std::int64_t& cy) const;

  Rect bounds_;
  double cell_size_;
  std::size_t nx_ = 0, ny_ = 0;

  // SoA point storage: xs_[i], ys_[i] are point i's coordinates.
  std::vector<double> xs_, ys_;

  // CSR buckets: the ids of cell c sit in
  // cell_ids_[cell_offsets_[c] .. cell_offsets_[c + 1]), ascending.
  std::vector<std::uint32_t> cell_offsets_;
  std::vector<std::uint32_t> cell_ids_;
};

}  // namespace poolnet::net
