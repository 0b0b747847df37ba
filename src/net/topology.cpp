#include "net/topology.h"

#include <algorithm>
#include <limits>

#include "common/error.h"

namespace poolnet::net {

namespace {
// Validates before the spatial index is built: a non-positive radio range
// would otherwise size the index grid absurdly.
const std::vector<Point>& validated(const std::vector<Point>& positions,
                                    double radio_range_m) {
  if (positions.empty()) throw ConfigError("Topology: no nodes");
  if (radio_range_m <= 0.0) throw ConfigError("Topology: radio range <= 0");
  return positions;
}
}  // namespace

Topology::Topology(std::vector<Point> positions, Rect field,
                   double radio_range_m)
    : field_(field),
      radio_range_(radio_range_m),
      range_sq_(radio_range_m * radio_range_m),
      positions_(std::move(positions)),
      index_(validated(positions_, radio_range_m), field, radio_range_m),
      planar_(build_rows(), PlanarizationRule::Gabriel) {}

const Topology& Topology::build_rows() {
  // Neighbor tables via the spatial index (the paper's periodic beacons),
  // one CSR row per node. The scan itself is unsorted (cheaper); each row
  // is then sorted so neighbor order is by id.
  adj_offsets_.reserve(positions_.size() + 1);
  adj_offsets_.push_back(0);
  std::vector<std::size_t> near;
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    index_.within(positions_[i], radio_range_, near, /*sorted=*/false);
    const auto row = static_cast<std::ptrdiff_t>(adj_ids_.size());
    for (const std::size_t j : near) {
      if (j != i) adj_ids_.push_back(static_cast<NodeId>(j));
    }
    std::sort(adj_ids_.begin() + row, adj_ids_.end());
    if (adj_ids_.size() > std::numeric_limits<std::uint32_t>::max())
      throw ConfigError("Topology: too many links for 32-bit row offsets");
    adj_offsets_.push_back(static_cast<std::uint32_t>(adj_ids_.size()));
  }
  adj_ids_.shrink_to_fit();
  return *this;
}

NodeId Topology::nearest_node(Point p) const {
  return static_cast<NodeId>(index_.nearest(p));
}

std::vector<NodeId> Topology::nodes_within(Point p, double radius) const {
  std::vector<NodeId> out;
  for (const std::size_t i : index_.within(p, radius, /*sorted=*/false))
    out.push_back(static_cast<NodeId>(i));
  return out;
}

bool Topology::is_connected() const {
  return connected(size(), [this](NodeId u) { return neighbors(u); });
}

double Topology::average_degree() const {
  return static_cast<double>(adj_ids_.size()) / static_cast<double>(size());
}

}  // namespace poolnet::net
