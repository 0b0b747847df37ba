#include "net/network.h"

#include <cmath>

#include "common/assert.h"
#include "common/error.h"

namespace poolnet::net {

Network::Network(std::shared_ptr<const Topology> topology, MessageSizes sizes,
                 sim::EnergyModel energy, LinkLossModel loss,
                 std::uint64_t loss_seed)
    : topo_(std::move(topology)),
      nodes_(topo_->size()),
      sizes_(sizes),
      energy_(energy),
      loss_(loss),
      loss_rng_(loss_seed) {
  if (loss_.loss_probability < 0.0 || loss_.loss_probability >= 1.0)
    throw ConfigError("Network: loss probability must be in [0, 1)");
  if (loss_.max_attempts == 0)
    throw ConfigError("Network: max_attempts must be positive");
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].id = static_cast<NodeId>(i);
    nodes_[i].pos = topo_->position(nodes_[i].id);
  }
}

Network::Network(std::vector<Point> positions, Rect field,
                 double radio_range_m, MessageSizes sizes,
                 sim::EnergyModel energy, LinkLossModel loss,
                 std::uint64_t loss_seed)
    : Network(std::make_shared<const Topology>(std::move(positions), field,
                                               radio_range_m),
              sizes, energy, loss, loss_seed) {}

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
  POOLNET_ASSERT_MSG(within_reach(d2, topo_->range_sq()),
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
