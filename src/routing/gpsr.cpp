#include "routing/gpsr.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/assert.h"
#include "common/logging.h"

namespace poolnet::routing {

using net::NodeId;

namespace {
constexpr double kEps = 1e-12;
constexpr double kTwoPi = 2.0 * 3.14159265358979323846;
}  // namespace

Gpsr::Gpsr(const net::Network& network)
    : Gpsr(network, network.topology().planar()) {}

Gpsr::Gpsr(const net::Network& network, const net::PlanarGraph& planar)
    : net_(network), planar_(planar) {}

void Gpsr::route_to_node_into(NodeId src, NodeId dst, RouteResult& out) const {
  route_impl(src, net_.position(dst), dst, out);
}

RouteResult Gpsr::route_to_location(NodeId src, Point dest) const {
  RouteResult result;
  route_impl(src, dest, net::kNoNode, result);
  return result;
}

Gpsr::GreedyMemo* Gpsr::memo_for(Point dest) const {
  const auto same = [dest](Point p) {
    return std::bit_cast<std::uint64_t>(p.x) ==
               std::bit_cast<std::uint64_t>(dest.x) &&
           std::bit_cast<std::uint64_t>(p.y) ==
               std::bit_cast<std::uint64_t>(dest.y);
  };
  const auto it = std::find_if(memo_.begin(), memo_.end(),
                               [&](const GreedyMemo& m) {
                                 return m.epoch != 0 && same(m.dest);
                               });
  const bool bound = it != memo_.end();
  if (!bound &&
      std::none_of(recent_dests_.begin(), recent_dests_.end(), same)) {
    recent_dests_[recent_next_++ % kRecentDests] = dest;
    return nullptr;
  }
  GreedyMemo& slot =
      bound ? *it
            : *std::min_element(memo_.begin(), memo_.end(),
                                [](const GreedyMemo& a, const GreedyMemo& b) {
                                  return a.last_used < b.last_used;
                                });
  slot.last_used = ++memo_clock_;
  if (bound && slot.dead_count == net_.dead_count()) return &slot;

  // Rebind: a new destination, or a node died since the table was filled.
  if (slot.hop.empty()) slot.hop.resize(net_.size());
  if (++slot.epoch == 0) {  // wrapped: stale stamps could match again
    slot.hop.assign(net_.size(), GreedyMemo::Hop{});
    slot.epoch = 1;
  }
  slot.dest = dest;
  slot.dead_count = net_.dead_count();
  return &slot;
}

NodeId Gpsr::first_ccw_neighbor(NodeId at, double ref_angle,
                                NodeId skip) const {
  const Point p = net_.position(at);
  NodeId best = net::kNoNode;
  double best_sweep = kTwoPi + 1.0;
  for (const NodeId nb : planar_.neighbors(at)) {
    if (!net_.alive(nb)) continue;  // dead nodes drop out of the face tour
    double sweep;
    if (nb == skip) {
      sweep = kTwoPi;  // bounce back only when nothing else exists
    } else {
      sweep = ccw_sweep(ref_angle, angle_of(p, net_.position(nb)));
    }
    if (sweep < best_sweep) {  // the row ascends: lowest id wins ties
      best_sweep = sweep;
      best = nb;
    }
  }
  return best;
}

void Gpsr::route_impl(NodeId src, Point dest, NodeId exact_target,
                      RouteResult& result) const {
  result.path.clear();
  result.delivered = net::kNoNode;
  result.exact = false;
  result.perimeter_hops = 0;
  // One reallocation for the common case: the greedy path length is about
  // the line-of-sight distance in radio ranges; leave headroom for detours.
  // A warm scratch result usually already holds the capacity.
  result.path.reserve(static_cast<std::size_t>(distance(net_.position(src),
                                                        dest) /
                                               net_.radio_range()) *
                          2 +
                      8);
  result.path.push_back(src);

  enum class Mode { Greedy, Perimeter };
  Mode mode = Mode::Greedy;

  NodeId cur = src;
  NodeId prev = net::kNoNode;

  // Perimeter state (packet header fields in the protocol).
  Point lp{};                 // location where perimeter mode was entered
  double lp_d2 = 0.0;         // distance^2 of lp to dest
  double lf_d2 = 0.0;         // distance^2 of the current face's crossing
  NodeId e0_from = net::kNoNode, e0_to = net::kNoNode;  // first face edge
  bool e0_traversed = false;

  NodeId best_seen = src;
  double best_seen_d2 = distance_sq(net_.position(src), dest);

  const std::size_t max_hops = 16 * net_.size() + 256;

  GreedyMemo* const memo = memo_for(dest);

  // Chooses the perimeter edge out of `cur`, applying GPSR's face-change
  // rule: while the candidate edge crosses the segment lp->dest strictly
  // closer to dest than the current face's crossing point, move to the new
  // face by continuing the angular sweep past the candidate.
  const auto choose_perimeter_edge = [&](double ref_angle,
                                         NodeId skip) -> NodeId {
    NodeId cand = first_ccw_neighbor(cur, ref_angle, skip);
    if (cand == net::kNoNode) return net::kNoNode;
    const Point pc = net_.position(cur);
    // Bounded sweep: at most one full pass over the adjacency.
    for (std::size_t i = 0; i <= planar_.neighbors(cur).size(); ++i) {
      const auto xi =
          segment_intersection(pc, net_.position(cand), lp, dest);
      if (xi.has_value()) {
        const double xi_d2 = distance_sq(*xi, dest);
        if (xi_d2 < lf_d2 - kEps) {
          lf_d2 = xi_d2;  // enter the face on the other side of the crossing
          const double new_ref = angle_of(pc, net_.position(cand));
          cand = first_ccw_neighbor(cur, new_ref, cand);
          e0_from = cur;
          e0_to = cand;
          e0_traversed = false;
          continue;
        }
      }
      break;
    }
    return cand;
  };

  while (result.path.size() <= max_hops) {
    const Point pc = net_.position(cur);
    const double cur_d2 = distance_sq(pc, dest);

    if (cur_d2 < best_seen_d2) {
      best_seen = cur;
      best_seen_d2 = cur_d2;
    }
    if (exact_target != net::kNoNode && cur == exact_target) {
      result.delivered = cur;
      result.exact = true;
      return;
    }
    if (cur_d2 <= kEps) {  // standing on the destination location
      result.delivered = cur;
      result.exact = true;
      return;
    }

    if (mode == Mode::Greedy) {
      // Forward to the neighbor strictly closest to dest. Any neighbor
      // chosen is strictly closer than cur, so kNoNode marks a local
      // minimum.
      NodeId next = net::kNoNode;
      GreedyMemo::Hop* const hop = memo ? &memo->hop[cur] : nullptr;
      if (hop != nullptr && hop->stamp == memo->epoch) {
        next = hop->next;
      } else {
        double next_d2 = cur_d2;
        for (const NodeId nb : net_.neighbors(cur)) {
          if (!net_.alive(nb)) continue;  // beacons stopped: not a candidate
          const double d2 = distance_sq(net_.position(nb), dest);
          // The row ascends by id, so the first strict minimum is the
          // lowest id among exact ties.
          if (d2 < next_d2) {
            next_d2 = d2;
            next = nb;
          }
        }
        if (hop != nullptr) *hop = {next, memo->epoch};
      }
      if (next != net::kNoNode) {
        prev = cur;
        cur = next;
        result.path.push_back(cur);
        continue;
      }
      // Local minimum: enter perimeter mode.
      if (planar_.neighbors(cur).empty()) break;  // isolated: undeliverable
      mode = Mode::Perimeter;
      lp = pc;
      lp_d2 = cur_d2;
      lf_d2 = cur_d2;  // Lf starts at Lp
      e0_from = net::kNoNode;
      e0_to = net::kNoNode;
      e0_traversed = false;
      const NodeId next_p =
          choose_perimeter_edge(angle_of(pc, dest), net::kNoNode);
      if (next_p == net::kNoNode) break;
      if (e0_from == net::kNoNode) {  // no face change happened in selection
        e0_from = cur;
        e0_to = next_p;
        e0_traversed = false;
      }
      if (cur == e0_from && next_p == e0_to) {
        if (e0_traversed) {  // full tour with no progress: home node is cur
          result.delivered = cur;
          result.exact = false;
          return;
        }
        e0_traversed = true;
      }
      prev = cur;
      cur = next_p;
      result.path.push_back(cur);
      ++result.perimeter_hops;
      continue;
    }

    // Perimeter mode.
    if (cur_d2 < lp_d2) {  // progress: resume greedy
      mode = Mode::Greedy;
      e0_from = net::kNoNode;
      e0_to = net::kNoNode;
      e0_traversed = false;
      continue;  // no hop consumed
    }
    POOLNET_ASSERT(prev != net::kNoNode);
    const double ref = angle_of(pc, net_.position(prev));
    const NodeId next = choose_perimeter_edge(ref, prev);
    if (next == net::kNoNode) break;
    if (cur == e0_from && next == e0_to) {
      if (e0_traversed) {  // completed the tour of the face containing dest
        result.delivered = cur;
        result.exact = false;
        return;
      }
      e0_traversed = true;
    }
    prev = cur;
    cur = next;
    result.path.push_back(cur);
    ++result.perimeter_hops;
  }

  // Hop budget exhausted or dead end; deliver at the closest node seen.
  // This indicates a disconnected network (callers validate connectivity).
  POOLNET_WARN("GPSR: undelivered packet, falling back to best-seen node "
               << best_seen << " after " << result.path.size() - 1 << " hops");
  // Truncate the path at the last visit to best_seen so accounting does not
  // charge the fruitless tail.
  for (std::size_t i = result.path.size(); i-- > 0;) {
    if (result.path[i] == best_seen) {
      result.path.resize(i + 1);
      break;
    }
  }
  result.delivered = best_seen;
  result.exact = false;
  return;
}

}  // namespace poolnet::routing
