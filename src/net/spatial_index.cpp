#include "net/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.h"
#include "common/error.h"

namespace poolnet::net {

SpatialIndex::SpatialIndex(const std::vector<Point>& points,
                           const Rect& bounds, double cell_size)
    : bounds_(bounds), cell_size_(cell_size) {
  if (cell_size <= 0.0) throw ConfigError("SpatialIndex: cell_size <= 0");
  if (points.size() > std::numeric_limits<std::uint32_t>::max())
    throw ConfigError("SpatialIndex: too many points for 32-bit ids");
  nx_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(bounds.width() / cell_size)));
  ny_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(bounds.height() / cell_size)));

  xs_.resize(points.size());
  ys_.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    xs_[i] = points[i].x;
    ys_[i] = points[i].y;
  }

  // Counting sort into CSR: one pass to size each bucket, prefix-sum into
  // offsets, one pass to place ids. Filling in ascending point order
  // leaves every bucket internally ascending (the same order the old
  // vector-of-vectors build produced).
  const std::size_t n_cells = nx_ * ny_;
  cell_offsets_.assign(n_cells + 1, 0);
  for (std::size_t i = 0; i < points.size(); ++i)
    ++cell_offsets_[cell_of(points[i]) + 1];
  for (std::size_t c = 1; c <= n_cells; ++c)
    cell_offsets_[c] += cell_offsets_[c - 1];
  cell_ids_.resize(points.size());
  std::vector<std::uint32_t> fill(cell_offsets_.begin(),
                                  cell_offsets_.end() - 1);
  for (std::size_t i = 0; i < points.size(); ++i)
    cell_ids_[fill[cell_of(points[i])]++] = static_cast<std::uint32_t>(i);
}

void SpatialIndex::cell_coords(Point p, std::int64_t& cx,
                               std::int64_t& cy) const {
  cx = static_cast<std::int64_t>(std::floor((p.x - bounds_.min_x) / cell_size_));
  cy = static_cast<std::int64_t>(std::floor((p.y - bounds_.min_y) / cell_size_));
  cx = std::clamp<std::int64_t>(cx, 0, static_cast<std::int64_t>(nx_) - 1);
  cy = std::clamp<std::int64_t>(cy, 0, static_cast<std::int64_t>(ny_) - 1);
}

std::size_t SpatialIndex::cell_of(Point p) const {
  std::int64_t cx, cy;
  cell_coords(p, cx, cy);
  return static_cast<std::size_t>(cy) * nx_ + static_cast<std::size_t>(cx);
}

void SpatialIndex::within(Point q, double radius,
                          std::vector<std::size_t>& out, bool sorted) const {
  POOLNET_ASSERT(radius >= 0.0);
  out.clear();
  const double r2 = radius * radius;
  std::int64_t cx, cy;
  cell_coords(q, cx, cy);
  const auto reach = static_cast<std::int64_t>(
      std::ceil(radius / cell_size_)) + 1;
  const std::int64_t y_lo = std::max<std::int64_t>(0, cy - reach);
  const std::int64_t y_hi =
      std::min<std::int64_t>(static_cast<std::int64_t>(ny_) - 1, cy + reach);
  const std::int64_t x_lo = std::max<std::int64_t>(0, cx - reach);
  const std::int64_t x_hi =
      std::min<std::int64_t>(static_cast<std::int64_t>(nx_) - 1, cx + reach);
  for (std::int64_t yy = y_lo; yy <= y_hi; ++yy) {
    const std::size_t row = static_cast<std::size_t>(yy) * nx_;
    // The row's candidate cells are adjacent in CSR, so the whole row
    // strip is one contiguous id range.
    const std::uint32_t begin =
        cell_offsets_[row + static_cast<std::size_t>(x_lo)];
    const std::uint32_t end =
        cell_offsets_[row + static_cast<std::size_t>(x_hi) + 1];
    for (std::uint32_t k = begin; k < end; ++k) {
      const std::uint32_t idx = cell_ids_[k];
      if (within_reach(distance_sq({xs_[idx], ys_[idx]}, q), r2))
        out.push_back(idx);
    }
  }
  if (sorted) std::sort(out.begin(), out.end());
}

std::vector<std::size_t> SpatialIndex::within(Point q, double radius,
                                              bool sorted) const {
  std::vector<std::size_t> out;
  within(q, radius, out, sorted);
  return out;
}

std::size_t SpatialIndex::nearest(Point q) const {
  POOLNET_ASSERT_MSG(!xs_.empty(), "nearest() on empty index");
  // Expanding ring search over cells; falls back to full scan only when the
  // query point is far outside the bounds.
  std::int64_t cx, cy;
  cell_coords(q, cx, cy);
  std::size_t best = std::numeric_limits<std::size_t>::max();
  double best_d2 = std::numeric_limits<double>::infinity();
  const auto max_ring = static_cast<std::int64_t>(std::max(nx_, ny_));
  for (std::int64_t ring = 0; ring <= max_ring; ++ring) {
    // Once we have a candidate, we can stop after scanning every cell that
    // could contain a closer point: ring distance > best distance.
    if (best != std::numeric_limits<std::size_t>::max()) {
      const double ring_min_dist =
          (static_cast<double>(ring) - 1.0) * cell_size_;
      if (ring_min_dist > 0.0 && ring_min_dist * ring_min_dist > best_d2) break;
    }
    for (std::int64_t dy = -ring; dy <= ring; ++dy) {
      for (std::int64_t dx = -ring; dx <= ring; ++dx) {
        if (std::max(std::abs(dx), std::abs(dy)) != ring) continue;  // shell only
        const std::int64_t xx = cx + dx, yy = cy + dy;
        if (xx < 0 || xx >= static_cast<std::int64_t>(nx_) || yy < 0 ||
            yy >= static_cast<std::int64_t>(ny_))
          continue;
        const std::size_t cell =
            static_cast<std::size_t>(yy) * nx_ + static_cast<std::size_t>(xx);
        const std::uint32_t end = cell_offsets_[cell + 1];
        for (std::uint32_t k = cell_offsets_[cell]; k < end; ++k) {
          const std::uint32_t idx = cell_ids_[k];
          const double ddx = xs_[idx] - q.x;
          const double ddy = ys_[idx] - q.y;
          const double d2 = ddx * ddx + ddy * ddy;
          if (d2 < best_d2 || (d2 == best_d2 && idx < best)) {
            best_d2 = d2;
            best = idx;
          }
        }
      }
    }
  }
  POOLNET_ASSERT(best != std::numeric_limits<std::size_t>::max());
  return best;
}

}  // namespace poolnet::net
