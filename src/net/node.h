// Sensor node state.
#pragma once

#include <cstdint>

#include "common/geometry.h"

namespace poolnet::net {

/// Dense node identifier, 0..n-1 within a Network.
using NodeId = std::uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// A sensor node. Position is fixed after deployment (static sensornet, as
/// in the paper). Node records are the one copy of each position: they sit
/// in one contiguous array (Network::nodes(), indexed by id), while the
/// neighbor tables live in Network's CSR adjacency, not here. Counters are
/// maintained by Network::transmit_* and by the DCS systems
/// (stored_events).
struct Node {
  NodeId id = kNoNode;

  /// False once a fault plan crashes the node: it stops forwarding,
  /// acking, and answering; its stored events are gone with it.
  bool alive = true;

  Point pos;

  // --- accounting ---
  std::uint64_t tx_count = 0;       ///< messages transmitted
  std::uint64_t rx_count = 0;       ///< messages received
  std::uint64_t retry_count = 0;    ///< ARQ retransmissions (attempts beyond 1)
  std::uint64_t drop_count = 0;     ///< frames abandoned after the ARQ budget
  std::uint64_t stored_events = 0;  ///< events resident at this node
  double energy_spent_j = 0.0;      ///< radio energy consumed
};

}  // namespace poolnet::net
