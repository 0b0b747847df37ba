// Replays a sim::FaultPlan against live Networks.
//
// The CLI/bench drivers co-deploy several systems (Pool/DIM/GHT) on
// networks built from the SAME node positions; the injector applies each
// action to every registered network so all systems observe one
// consistent world. Failure DETECTION stays reactive: the injector only
// flips alive bits — systems learn about a death when a send into the
// dead node exhausts its ack/retry budget (routing::send_reliable).
#pragma once

#include <vector>

#include "common/rng.h"
#include "net/network.h"
#include "sim/fault_plan.h"

namespace poolnet::net {

class FaultInjector {
 public:
  /// `nets` must all have the same size and node positions (the testbed
  /// convention). A disabled plan makes advance() a cheap no-op. Throws
  /// ConfigError when the plan kills a node id at or past that size.
  FaultInjector(sim::FaultPlan plan, std::vector<Network*> nets);

  /// Applies every not-yet-fired action with `at` <= now, in schedule
  /// order. Returns the ids newly killed by this call.
  std::vector<NodeId> advance(double now);

  bool exhausted() const { return next_ >= plan_.actions.size(); }
  std::size_t total_killed() const { return killed_; }

 private:
  void kill_everywhere(NodeId id, std::vector<NodeId>* newly);

  sim::FaultPlan plan_;
  std::vector<Network*> nets_;
  std::size_t next_ = 0;
  Rng rng_;
  std::size_t killed_ = 0;
};

}  // namespace poolnet::net
