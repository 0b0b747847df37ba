// Continuous nearest-neighbor monitoring — the paper's closing sentence:
// "we are extending the capability of Pool for providing more advanced
// functionalities including the continuous monitoring of the nearest
// neighbor queries."
//
// Semantics: the monitor tracks, at a sink node, the stored event nearest
// (Euclidean, attribute space) to a fixed target as NEW events keep
// arriving. Strategy:
//  1. resolve the current nearest with one expanding-box search;
//  2. subscribe a standing box query of half-width = current distance —
//     any future event that could beat the champion must land in that box;
//  3. on each notification, update the champion and, when the box has
//     shrunk enough to pay for re-registration, tighten the subscription.
//
// Tightening trades subscription churn (two Control trees) against
// notification traffic from the now-too-wide box; `tighten_factor`
// controls the trade (re-register when new_dist < factor * sub_dist).
// The initial resolve is an ordinary KNearestQuery through execute().
#pragma once

#include <optional>

#include "core/pool_system.h"

namespace poolnet::core {

class NearestMonitor {
 public:
  /// Starts monitoring. Charges the initial NN search plus one
  /// subscription tree.
  NearestMonitor(PoolSystem& pool, net::NodeId sink,
                 storage::Values target, double tighten_factor = 0.5);

  NearestMonitor(const NearestMonitor&) = delete;
  NearestMonitor& operator=(const NearestMonitor&) = delete;

  /// Stops monitoring (cancels the standing subscription).
  ~NearestMonitor();

  /// Drains pending notifications and updates the champion. Returns true
  /// when the nearest event changed since the last poll.
  bool poll();

  /// Current nearest stored event (nullopt while the store is empty).
  const std::optional<storage::Event>& nearest() const { return nearest_; }

  /// Euclidean distance of the champion (meaningless when !nearest()).
  double distance() const { return distance_; }

  /// Subscription re-registrations performed so far (cost diagnostic).
  std::size_t retightenings() const { return retightenings_; }

 private:
  storage::RangeQuery box_query(double radius) const;
  double dist_to_target(const storage::Event& e) const;
  void resubscribe(double radius);

  PoolSystem& pool_;
  net::NodeId sink_;
  storage::Values target_;
  double tighten_factor_;

  std::optional<storage::Event> nearest_;
  double distance_ = 0.0;
  double subscribed_radius_ = 0.0;
  PoolSystem::SubscriptionId subscription_ = 0;
  std::size_t retightenings_ = 0;
};

}  // namespace poolnet::core
