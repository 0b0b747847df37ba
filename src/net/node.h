// Sensor node state.
#pragma once

#include <cstdint>

#include "common/geometry.h"

namespace poolnet::net {

/// Dense node identifier, 0..n-1 within a Network.
using NodeId = std::uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// One system's record of a sensor node. Each Network keeps its own
/// contiguous array of them (Network::nodes(), indexed by id), so alive
/// bits and counters never mix across systems. Position is fixed after
/// deployment (static sensornet, as in the paper) and belongs to the
/// shared Topology; `pos` is a copy of it, so per-hop readers (GPSR's
/// greedy scan, the ledger's charge) find position, alive bit and
/// counters in one record. Counters are maintained by
/// Network::transmit_* and by the DCS systems (stored_events).
struct Node {
  NodeId id = kNoNode;

  /// False once a fault plan crashes the node: it stops forwarding,
  /// acking, and answering; its stored events are gone with it.
  bool alive = true;

  Point pos;  ///< == Topology::position(id)

  // --- accounting ---
  std::uint64_t tx_count = 0;       ///< messages transmitted
  std::uint64_t rx_count = 0;       ///< messages received
  std::uint64_t retry_count = 0;    ///< ARQ retransmissions (attempts beyond 1)
  std::uint64_t drop_count = 0;     ///< frames abandoned after the ARQ budget
  std::uint64_t stored_events = 0;  ///< events resident at this node
  double energy_spent_j = 0.0;      ///< radio energy consumed
};

}  // namespace poolnet::net
