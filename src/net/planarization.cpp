#include "net/planarization.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/assert.h"
#include "net/topology.h"

namespace poolnet::net {

namespace {

bool gabriel_keeps(const Topology& topo, NodeId u, NodeId v) {
  const Point pu = topo.position(u);
  const Point pv = topo.position(v);
  const Point mid = {(pu.x + pv.x) / 2.0, (pu.y + pv.y) / 2.0};
  const double r2 = distance_sq(pu, pv) / 4.0;
  if (r2 == 0.0) return false;  // coincident nodes: no planar edge
  for (const NodeId w : topo.neighbors(u)) {
    if (w == v) continue;
    if (distance_sq(topo.position(w), mid) < r2) return false;
  }
  return true;
}

bool rng_keeps(const Topology& topo, NodeId u, NodeId v) {
  const Point pu = topo.position(u);
  const Point pv = topo.position(v);
  const double duv2 = distance_sq(pu, pv);
  if (duv2 == 0.0) return false;
  for (const NodeId w : topo.neighbors(u)) {
    if (w == v) continue;
    const Point pw = topo.position(w);
    if (distance_sq(pu, pw) < duv2 && distance_sq(pv, pw) < duv2) return false;
  }
  return true;
}

}  // namespace

PlanarGraph::PlanarGraph(const Topology& topology, PlanarizationRule rule)
    : offsets_(topology.size() + 1, 0) {
  // Each edge is tested once, from its lower endpoint, in ascending (u, v)
  // order, then fills both rows: row x gets its lower neighbors before its
  // higher ones, each in ascending order, so every row comes out sorted.
  std::vector<std::pair<NodeId, NodeId>> kept;
  for (NodeId u = 0; u < topology.size(); ++u) {
    for (const NodeId v : topology.neighbors(u)) {
      if (v > u && (rule == PlanarizationRule::Gabriel
                        ? gabriel_keeps(topology, u, v)
                        : rng_keeps(topology, u, v)))
        kept.emplace_back(u, v);
    }
  }
  for (const auto& [u, v] : kept) {
    ++offsets_[u + 1];
    ++offsets_[v + 1];
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  ids_.resize(offsets_.back());
  std::vector<std::uint32_t> next(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [u, v] : kept) {
    ids_[next[u]++] = v;
    ids_[next[v]++] = u;
  }
}

std::span<const NodeId> PlanarGraph::neighbors(NodeId id) const {
  POOLNET_ASSERT(id + 1 < offsets_.size());
  return {ids_.data() + offsets_[id], ids_.data() + offsets_[id + 1]};
}

bool PlanarGraph::has_edge(NodeId a, NodeId b) const {
  const std::span<const NodeId> row = neighbors(a);
  return std::binary_search(row.begin(), row.end(), b);
}

std::size_t PlanarGraph::edge_count() const { return ids_.size() / 2; }

bool PlanarGraph::is_connected() const {
  return connected(offsets_.size() - 1,
                   [this](NodeId u) { return neighbors(u); });
}

}  // namespace poolnet::net
