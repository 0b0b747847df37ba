#include "net/network.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.h"
#include "common/error.h"

namespace poolnet::net {

namespace {
// Validates before the spatial index is built: a non-positive radio range
// would otherwise size the index grid absurdly.
const std::vector<Point>& validated(const std::vector<Point>& positions,
                                    double radio_range_m) {
  if (positions.empty()) throw ConfigError("Network: no nodes");
  if (radio_range_m <= 0.0) throw ConfigError("Network: radio range <= 0");
  return positions;
}
}  // namespace

Network::Network(std::vector<Point> positions, Rect field,
                 double radio_range_m, MessageSizes sizes,
                 sim::EnergyModel energy, LinkLossModel loss,
                 std::uint64_t loss_seed)
    : field_(field),
      radio_range_(radio_range_m),
      range_sq_(radio_range_m * radio_range_m),
      sizes_(sizes),
      energy_(energy),
      loss_(loss),
      loss_rng_(loss_seed),
      index_(validated(positions, radio_range_m), field, radio_range_m) {
  if (loss_.loss_probability < 0.0 || loss_.loss_probability >= 1.0)
    throw ConfigError("Network: loss probability must be in [0, 1)");
  if (loss_.max_attempts == 0)
    throw ConfigError("Network: max_attempts must be positive");
  nodes_.resize(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    nodes_[i].id = static_cast<NodeId>(i);
    nodes_[i].pos = positions[i];
  }
  // Neighbor tables via the spatial index (the paper's periodic beacons),
  // one CSR row per node. The scan itself is unsorted (cheaper); each row
  // is then sorted so neighbor order is by id.
  adj_offsets_.reserve(nodes_.size() + 1);
  adj_offsets_.push_back(0);
  std::vector<std::size_t> near;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    index_.within(nodes_[i].pos, radio_range_, near, /*sorted=*/false);
    const auto row = static_cast<std::ptrdiff_t>(adj_ids_.size());
    for (const std::size_t j : near) {
      if (j != i) adj_ids_.push_back(static_cast<NodeId>(j));
    }
    std::sort(adj_ids_.begin() + row, adj_ids_.end());
    if (adj_ids_.size() > std::numeric_limits<std::uint32_t>::max())
      throw ConfigError("Network: too many links for 32-bit row offsets");
    adj_offsets_.push_back(static_cast<std::uint32_t>(adj_ids_.size()));
  }
  adj_ids_.shrink_to_fit();
}

NodeId Network::nearest_node(Point p) const {
  return static_cast<NodeId>(index_.nearest(p));
}

NodeId Network::nearest_alive_node(Point p) const {
  const NodeId n = nearest_node(p);
  if (dead_count_ == 0 || nodes_[n].alive) return n;
  // Failover elections are rare; a linear scan over survivors is fine.
  NodeId best = kNoNode;
  double best_d2 = 0.0;
  for (const Node& cand : nodes_) {
    if (!cand.alive) continue;
    const double dx = cand.pos.x - p.x;
    const double dy = cand.pos.y - p.y;
    const double d2 = dx * dx + dy * dy;
    if (best == kNoNode || d2 < best_d2) {
      best = cand.id;
      best_d2 = d2;
    }
  }
  return best;
}

void Network::kill(NodeId id) {
  Node& n = node_mut(id);
  if (!n.alive) return;
  n.alive = false;
  ++dead_count_;
}

void Network::set_extra_loss(double p) {
  if (p < 0.0 || p >= 1.0)
    throw ConfigError("Network: extra loss must be in [0, 1)");
  extra_loss_ = p;
}

std::vector<NodeId> Network::nodes_within(Point p, double radius) const {
  std::vector<NodeId> out;
  for (const std::size_t i : index_.within(p, radius, /*sorted=*/false))
    out.push_back(static_cast<NodeId>(i));
  return out;
}

bool Network::is_connected() const {
  if (nodes_.empty()) return true;
  std::vector<char> seen(nodes_.size(), 0);
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
  return visited == nodes_.size();
}

double Network::average_degree() const {
  if (nodes_.empty()) return 0.0;
  return static_cast<double>(adj_ids_.size()) /
         static_cast<double>(nodes_.size());
}

bool Network::transmit(NodeId from, NodeId to, MessageKind kind,
                       std::uint64_t bits) {
  return transmit_hop(from, to, kind, bits, next_msg_id_++, 0);
}

bool Network::transmit_hop(NodeId from, NodeId to, MessageKind kind,
                           std::uint64_t bits, std::uint64_t msg_id,
                           std::uint32_t hop_index) {
  if (from == to) return true;  // local delivery, no radio use
  POOLNET_ASSERT(from < nodes_.size() && to < nodes_.size());
  // The neighbor predicate itself, on the squared distance the table was
  // built from ((a-b)^2 == (b-a)^2 exactly), so no table lookup is needed
  // and the energy charge below reuses the same distance.
  const double d2 = distance_sq(nodes_[from].pos, nodes_[to].pos);
  POOLNET_ASSERT_MSG(within_reach(d2, range_sq_),
                     "transmit between non-neighbors");
  Node& src = nodes_[from];
  Node& dst = nodes_[to];
  if (!src.alive) return false;  // a crashed radio sends nothing

  // Link-layer ARQ: retransmit until the frame survives the channel (or
  // the attempt budget forces delivery). Every attempt is a message and
  // costs transmit energy; reception is charged once. A dead receiver
  // never acks, so the sender always exhausts the budget — that exhausted
  // burst IS the failure detection signal (and its cost).
  const double loss_p =
      extra_loss_ == 0.0
          ? loss_.loss_probability
          : 1.0 - (1.0 - loss_.loss_probability) * (1.0 - extra_loss_);
  std::uint32_t attempts = 1;
  if (!dst.alive) {
    attempts = loss_.max_attempts;
  } else {
    while (attempts < loss_.max_attempts &&
           loss_p > 0.0 &&
           loss_rng_.bernoulli(loss_p)) {
      ++attempts;
    }
  }

  src.tx_count += attempts;
  src.retry_count += attempts - 1;
  const double tx_e = energy_.tx_cost(bits, std::sqrt(d2)) * attempts;
  src.energy_spent_j += tx_e;
  traffic_.by_kind[static_cast<std::size_t>(kind)] += attempts;
  traffic_.total += attempts;
  const bool delivered = dst.alive;
  if (trace_ != nullptr) {
    trace_->on_hop({msg_id, traffic_.total, from, to, hop_index,
                    static_cast<std::uint8_t>(kind), delivered});
  }
  if (!delivered) {
    ++src.drop_count;
    traffic_.energy_j += tx_e;
    ++traffic_.lost;
    return false;
  }
  ++dst.rx_count;
  const double rx_e = energy_.rx_cost(bits);
  dst.energy_spent_j += rx_e;
  traffic_.energy_j += tx_e + rx_e;
  return true;
}

Network::PathDelivery Network::transmit_path(const std::vector<NodeId>& path,
                                             MessageKind kind,
                                             std::uint64_t bits) {
  PathDelivery out;
  out.complete = true;
  if (!path.empty()) out.reached = path[0];
  const std::uint64_t msg_id = next_msg_id_++;
  for (std::size_t i = 1; i < path.size(); ++i) {
    if (!transmit_hop(path[i - 1], path[i], kind, bits, msg_id,
                      static_cast<std::uint32_t>(i - 1))) {
      out.complete = false;
      return out;
    }
    out.reached = path[i];
    ++out.hops_delivered;
  }
  return out;
}

void Network::reset_traffic() { traffic_.clear(); }

}  // namespace poolnet::net
