#include "net/fault_injector.h"

#include <algorithm>
#include <string>

#include "common/assert.h"
#include "common/error.h"

namespace poolnet::net {

FaultInjector::FaultInjector(sim::FaultPlan plan, std::vector<Network*> nets)
    : plan_(std::move(plan)), nets_(std::move(nets)), rng_(plan_.seed) {
  if (nets_.empty()) throw ConfigError("FaultInjector: no networks");
  for (const Network* n : nets_) {
    POOLNET_ASSERT(n != nullptr);
    POOLNET_ASSERT_MSG(n->size() == nets_[0]->size(),
                       "FaultInjector: networks must be co-deployed");
  }
  const std::size_t size = nets_[0]->size();
  for (const sim::FaultAction& a : plan_.actions) {
    if (a.kind == sim::FaultKind::KillNode && a.node >= size)
      throw ConfigError("fault plan kills node " + std::to_string(a.node) +
                        ", past the " + std::to_string(size) +
                        "-node network");
  }
}

void FaultInjector::kill_everywhere(NodeId id, std::vector<NodeId>* newly) {
  if (!nets_[0]->alive(id)) return;
  for (Network* n : nets_) n->kill(id);
  newly->push_back(id);
  ++killed_;
}

std::vector<NodeId> FaultInjector::advance(double now) {
  std::vector<NodeId> newly;
  const Network& world = *nets_[0];
  while (next_ < plan_.actions.size() && plan_.actions[next_].at <= now) {
    const sim::FaultAction& a = plan_.actions[next_++];
    switch (a.kind) {
      case sim::FaultKind::KillNode:
        POOLNET_ASSERT(a.node < world.size());  // checked at construction
        kill_everywhere(a.node, &newly);
        break;
      case sim::FaultKind::KillFraction: {
        // Sample without replacement from the current survivors so
        // repeated kill clauses compose (partial Fisher–Yates).
        std::vector<NodeId> pool;
        pool.reserve(world.size());
        for (NodeId id = 0; id < world.size(); ++id)
          if (world.alive(id)) pool.push_back(id);
        std::size_t want = static_cast<std::size_t>(
            a.fraction * static_cast<double>(pool.size()) + 0.5);
        want = std::min(want, pool.size());
        for (std::size_t i = 0; i < want; ++i) {
          const std::size_t j = static_cast<std::size_t>(rng_.uniform_int(
              static_cast<std::int64_t>(i),
              static_cast<std::int64_t>(pool.size()) - 1));
          std::swap(pool[i], pool[j]);
          kill_everywhere(pool[i], &newly);
        }
        break;
      }
      case sim::FaultKind::Blackout:
        for (const Node& n : world.nodes())
          if (n.alive && distance(n.pos, a.center) <= a.radius)
            kill_everywhere(n.id, &newly);
        break;
      case sim::FaultKind::DegradeStart:
        for (Network* n : nets_) n->set_extra_loss(a.extra_loss);
        break;
      case sim::FaultKind::DegradeEnd:
        for (Network* n : nets_) n->set_extra_loss(0.0);
        break;
    }
  }
  return newly;
}

}  // namespace poolnet::net
