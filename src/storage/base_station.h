// The transport of the central stores (BruteForceStore, PagedStore):
// every event travels to one base station, and every query is answered
// there. Both stores charge the ledger through this one class, so their
// message counts cannot drift apart.
#pragma once

#include "net/network.h"
#include "routing/router.h"
#include "storage/dcs_system.h"

namespace poolnet::storage {

class BaseStationLink {
 public:
  /// Unbound: the pure-oracle mode, which charges nothing.
  BaseStationLink() = default;
  BaseStationLink(net::Network& network, const routing::Router& router,
                  net::NodeId base_station, std::size_t dims)
      : net_(&network), router_(&router), base_(base_station), dims_(dims) {}

  /// Charges the insert leg source → base station; unbound, the event
  /// stays (logically) at `source`.
  InsertReceipt insert(net::NodeId source) const;

  /// Stamps `receipt` as answered at the base station: one visit, plus
  /// the query leg sink → base station and the reply back — packed
  /// batches of its events, or with `partial` one aggregate partial.
  void answer(net::NodeId sink, QueryReceipt& receipt,
              bool partial = false) const;

 private:
  net::Network* net_ = nullptr;
  const routing::Router* router_ = nullptr;
  net::NodeId base_ = net::kNoNode;
  std::size_t dims_ = 0;
};

}  // namespace poolnet::storage
