#include "routing/planarization.h"

#include <algorithm>

#include "common/assert.h"

namespace poolnet::routing {

using net::NodeId;

namespace {

bool gabriel_keeps(const net::Network& net, NodeId u, NodeId v) {
  const Point pu = net.position(u);
  const Point pv = net.position(v);
  const Point mid = {(pu.x + pv.x) / 2.0, (pu.y + pv.y) / 2.0};
  const double r2 = distance_sq(pu, pv) / 4.0;
  if (r2 == 0.0) return false;  // coincident nodes: no planar edge
  for (const NodeId w : net.neighbors(u)) {
    if (w == v) continue;
    if (distance_sq(net.position(w), mid) < r2) return false;
  }
  return true;
}

bool rng_keeps(const net::Network& net, NodeId u, NodeId v) {
  const Point pu = net.position(u);
  const Point pv = net.position(v);
  const double duv2 = distance_sq(pu, pv);
  if (duv2 == 0.0) return false;
  for (const NodeId w : net.neighbors(u)) {
    if (w == v) continue;
    const Point pw = net.position(w);
    if (distance_sq(pu, pw) < duv2 && distance_sq(pv, pw) < duv2) return false;
  }
  return true;
}

}  // namespace

PlanarGraph::PlanarGraph(const net::Network& network, PlanarizationRule rule)
    : adj_(network.size()), rule_(rule) {
  for (NodeId u = 0; u < network.size(); ++u) {
    for (const NodeId v : network.neighbors(u)) {
      if (v < u) continue;  // each undirected edge once
      const bool keep = rule == PlanarizationRule::Gabriel
                            ? gabriel_keeps(network, u, v)
                            : rng_keeps(network, u, v);
      if (keep) {
        adj_[u].push_back(v);
        adj_[v].push_back(u);
      }
    }
  }
  for (auto& nb : adj_) std::sort(nb.begin(), nb.end());
}

std::span<const NodeId> PlanarGraph::neighbors(NodeId id) const {
  POOLNET_ASSERT(id < adj_.size());
  return adj_[id];
}

bool PlanarGraph::has_edge(NodeId a, NodeId b) const {
  POOLNET_ASSERT(a < adj_.size());
  return std::binary_search(adj_[a].begin(), adj_[a].end(), b);
}

std::size_t PlanarGraph::edge_count() const {
  std::size_t total = 0;
  for (const auto& nb : adj_) total += nb.size();
  return total / 2;
}

bool PlanarGraph::is_connected() const {
  if (adj_.empty()) return true;
  std::vector<char> seen(adj_.size(), 0);
  std::vector<NodeId> stack{0};
  seen[0] = 1;
  std::size_t visited = 0;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    ++visited;
    for (const NodeId v : adj_[u]) {
      if (!seen[v]) {
        seen[v] = 1;
        stack.push_back(v);
      }
    }
  }
  return visited == adj_.size();
}

}  // namespace poolnet::routing
