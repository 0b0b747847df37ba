// The transport every distributed DCS system shares: one reliable leg,
// the one retry policy toward an elected node, and one reply of `rows`
// events along such a leg.
//
// A leg is routing::send_reliable_into() into a reused scratch outcome,
// plus the owning system's bookkeeping: retries and abandoned legs land
// in its FaultStats, and every node the delivery found dead goes to its
// handle_node_failure(). A reply is the "first batch reliable, the rest
// along the acked path" loop: on a fault-free network it is exactly one
// route plus one transmit_path per batch.
#pragma once

#include <cstdint>

#include "net/network.h"
#include "routing/reliable.h"
#include "routing/router.h"
#include "storage/dcs_system.h"

namespace poolnet::storage {

class LegSender {
 public:
  LegSender(DcsSystem& owner, FaultStats& stats, net::Network& net,
            const routing::Router& router, std::size_t dims)
      : owner_(owner), stats_(stats), net_(net), router_(router), dims_(dims) {}

  // Bound to its owner for life: a copy would report to the wrong system.
  LegSender(const LegSender&) = delete;
  LegSender& operator=(const LegSender&) = delete;

  /// One reliable leg. The returned outcome is the sender's scratch: it
  /// stays valid until the next send() or reply(). A from == to leg is
  /// delivered without any traffic.
  const routing::LegOutcome& send(net::NodeId from, net::NodeId to,
                                  net::MessageKind kind, std::uint64_t bits);

  /// Delivers `leg(to)` to the node `elect()` names: a splitter, a cell's
  /// index node, a zone's owner or a key's home. A failed leg ran
  /// failover, which may have re-elected; the leg is then retried once
  /// toward the new election. Returns the node reached, or kNoNode.
  template <class Elect, class Leg>
  net::NodeId reach(Elect&& elect, Leg&& leg) {
    const net::NodeId first = elect();
    if (first == net::kNoNode) return net::kNoNode;
    if (leg(first)) return first;
    // Only a death found on the leg re-elects; without one nothing moved.
    if (!net_.has_failures()) return net::kNoNode;
    const net::NodeId again = elect();
    if (again == first || again == net::kNoNode) return net::kNoNode;
    return leg(again) ? again : net::kNoNode;
  }

  /// reach() with the common leg: one send() of `kind` from `from`.
  template <class Elect>
  net::NodeId reach(net::NodeId from, net::MessageKind kind,
                    std::uint64_t bits, Elect&& elect) {
    return reach(elect, [&](net::NodeId to) {
      return send(from, to, kind, bits).delivered;
    });
  }

  /// Messages a reply of `rows` events takes, and the bits of each. With
  /// `partial`, any rows reduce to one fixed-size aggregate partial.
  struct Shape {
    std::uint64_t batches = 0;
    std::uint64_t bits = 0;
  };
  Shape shape(std::uint32_t rows, bool partial) const;

  /// Sends the reply for `rows` from `from` to `to`; nothing travels when
  /// rows == 0 or from == to. Returns whether the reply arrived. After a
  /// reply that traveled, last() is its first leg.
  bool reply(net::NodeId from, net::NodeId to, std::uint32_t rows,
             bool partial = false);

  const routing::LegOutcome& last() const { return out_; }

 private:
  DcsSystem& owner_;
  FaultStats& stats_;
  net::Network& net_;
  const routing::Router& router_;
  std::size_t dims_;
  /// Reused across every leg so a warm system sends without heap traffic.
  routing::LegOutcome out_;
};

}  // namespace poolnet::storage
