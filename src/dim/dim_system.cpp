#include "dim/dim_system.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <utility>

#include "common/error.h"
#include "storage/column/row_kernels.h"

namespace poolnet::dim {

using storage::Event;
using storage::InsertReceipt;
using storage::QueryReceipt;
using storage::RangeQuery;

DimSystem::DimSystem(net::Network& network,
                     const routing::Router& router, std::size_t dims)
    : net_(network),
      router_(router),
      legs_(*this, fault_stats_, network, router, dims),
      tree_(network, dims),
      store_(tree_.size(), storage::column::ColumnStore(dims)),
      rep_cache_(tree_.size(), net::kNoNode) {
  for (auto& cs : store_) cs.set_stats(&scan_stats_);
}

std::string DimSystem::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "DIM (dims=%zu, zones=%zu)", tree_.dims(),
                tree_.leaf_count());
  return buf;
}

net::NodeId DimSystem::representative(ZoneIndex zidx) const {
  net::NodeId& memo = rep_cache_[zidx];
  if (memo == net::kNoNode) {
    const ZoneNode& z = tree_.zone(zidx);
    memo = z.is_leaf() ? z.owner : net_.nearest_alive_node(z.region.center());
  }
  return memo;
}

void DimSystem::handle_node_failure(net::NodeId dead) {
  if (dead >= net_.size()) return;
  if (known_dead_.empty()) known_dead_.assign(net_.size(), 0);
  if (known_dead_[dead]) return;
  known_dead_[dead] = 1;

  // Forget every cached representative that points at the dead node:
  // internal zones re-elect the nearest survivor, leaves re-read their
  // (possibly reassigned) owner on the next lookup.
  for (net::NodeId& memo : rep_cache_)
    if (memo == dead) memo = net::kNoNode;

  for (const ZoneIndex leaf : tree_.leaves()) {
    if (tree_.zone(leaf).owner != dead) continue;
    auto& events = store_[leaf];
    if (!events.empty()) {
      // DIM keeps a single copy per event, so storage that was resident
      // at the dead owner is gone for good.
      fault_stats_.events_lost += events.size();
      stored_count_ -= events.size();
      net_.node_mut(dead).stored_events -= events.size();
      events.clear();
    }
    // Zone-tree neighbor adoption; kNoNode when nobody survives at all.
    tree_.reassign_leaf(leaf, tree_.adopting_neighbor(leaf, net_));
    ++fault_stats_.failovers;
  }
}

InsertReceipt DimSystem::insert(net::NodeId source, const Event& event) {
  storage::validate_event(event);
  if (event.dims() != dims())
    throw ConfigError("DIM: event dimensionality mismatch");

  const ZoneIndex leaf = tree_.leaf_for_event(event);
  const auto before = net_.traffic().total;
  const std::uint64_t bits = net_.sizes().event_bits(dims());
  // A dead owner is adopted on the failed leg and retried once.
  const net::NodeId owner =
      legs_.reach(source, net::MessageKind::Insert, bits,
                  [&] { return representative(leaf); });
  InsertReceipt receipt;
  receipt.messages = net_.traffic().total - before;
  if (owner == net::kNoNode) {  // unreachable, or every owner already dead
    ++fault_stats_.events_lost;
    return receipt;
  }

  store_[leaf].append(event);
  ++stored_count_;
  ++net_.node_mut(owner).stored_events;
  receipt.stored_at = owner;
  return receipt;
}

template <typename LegFn, typename LeafFn>
void DimSystem::walk_subtree(net::NodeId carrier, ZoneIndex zidx,
                             const RangeQuery& q, LegFn& leg,
                             LeafFn& on_leaf) {
  // One forwarding step: the carrier hands the query to the zone's node
  // (nothing travels when it already is that node).
  const auto forward = [&](ZoneIndex to_zone) {
    return legs_.reach([&] { return representative(to_zone); },
                       [&](net::NodeId to) {
                         return to == carrier || leg(carrier, to);
                       });
  };
  const ZoneNode& z = tree_.zone(zidx);
  if (z.is_leaf()) {
    // Final leg to the zone owner, then the leaf-local action.
    if (forward(zidx) != net::kNoNode) on_leaf(zidx);
    return;
  }

  const bool lower_hit = ZoneTree::zone_intersects(tree_.zone(z.lower), q);
  const bool upper_hit = ZoneTree::zone_intersects(tree_.zone(z.upper), q);
  if (lower_hit && upper_hit) {
    // The query splits here: one subquery message per child region.
    for (const ZoneIndex child : {z.lower, z.upper}) {
      const net::NodeId next = forward(child);
      if (next != net::kNoNode) walk_subtree(next, child, q, leg, on_leaf);
    }
  } else if (lower_hit) {
    walk_subtree(carrier, z.lower, q, leg, on_leaf);
  } else if (upper_hit) {
    walk_subtree(carrier, z.upper, q, leg, on_leaf);
  }
}

template <typename LeafFn>
void DimSystem::disseminate(net::NodeId sink, const RangeQuery& q,
                            LeafFn&& on_leaf) {
  // The sink addresses the query to the deepest zone that encloses it and
  // routes it there; refinement then happens inside the zone.
  const ZoneIndex start = tree_.enclosing_zone(q);
  if (!ZoneTree::zone_intersects(tree_.zone(start), q)) return;
  const std::uint64_t qbits = net_.sizes().query_bits(dims());
  const net::NodeId entry =
      legs_.reach(sink, net::MessageKind::Query, qbits,
                  [&] { return representative(start); });
  if (entry == net::kNoNode) return;
  auto subquery = [&](net::NodeId from, net::NodeId to) {
    return legs_.send(from, to, net::MessageKind::SubQuery, qbits).delivered;
  };
  walk_subtree(entry, start, q, subquery, on_leaf);
}

template <typename Reduce>
void DimSystem::visit_leaf(net::NodeId sink, ZoneIndex leaf,
                           QueryReceipt& receipt, std::vector<Event>& out,
                           Reduce&& reduce) {
  // The sink addresses the leaf's owner directly (the zone tree is global
  // knowledge, like insert's event-to-zone addressing); best-first and
  // ring orders have no use for the recursive split walk.
  const std::uint64_t qbits = net_.sizes().query_bits(dims());
  const net::NodeId owner =
      legs_.reach(sink, net::MessageKind::Query, qbits,
                  [&] { return representative(leaf); });
  if (owner == net::kNoNode) return;
  ++receipt.index_nodes_visited;
  const auto& cs = store_[leaf];
  reduce(cs, leaf_rows_);
  if (!legs_.reply(owner, sink, static_cast<std::uint32_t>(leaf_rows_.size())))
    return;
  for (const std::uint32_t row : leaf_rows_) out.push_back(cs.event_at(row));
}

QueryReceipt DimSystem::query(net::NodeId sink, const RangeQuery& q) {
  QueryReceipt receipt;
  const auto before = net_.traffic();
  std::vector<Event> matched;
  disseminate(sink, q, [&](ZoneIndex leaf) {
    ++receipt.index_nodes_visited;
    matched.clear();
    store_[leaf].matching_into(q, matched);
    // Answers only count once they actually reach the sink — a reply leg
    // that dies en route must show up as recall loss, not as data.
    if (legs_.reply(tree_.zone(leaf).owner, sink,
                    static_cast<std::uint32_t>(matched.size())))
      receipt.events.insert(receipt.events.end(), matched.begin(),
                            matched.end());
  });
  receipt.cost() = storage::cost_of(net_.traffic() - before);
  return receipt;
}

QueryReceipt DimSystem::skyline(net::NodeId sink,
                                const storage::SkylineQuery& q) {
  // The zone code fixes every leaf's value-range box, so the sink knows
  // each zone's best possible point — the top of its box — without a
  // single message. Visit leaves best-corner-first; collected skyline
  // points then veto later (worse-cornered) zones outright. Adoption
  // moves owners, never boxes, so one order per mask serves for good.
  if (skyline_order_.empty()) {
    std::vector<double> corners;
    corners.reserve(tree_.leaf_count() * dims());
    for (const ZoneIndex leaf : tree_.leaves())
      for (std::size_t d = 0; d < dims(); ++d)
        corners.push_back(tree_.zone(leaf).ranges[d].hi);
    skyline_order_ = storage::CornerOrder(dims(), std::move(corners));
  }

  QueryReceipt receipt;
  const auto before = net_.traffic();
  std::vector<Event> collected;
  for (const std::uint32_t unit : skyline_order_.order(q)) {
    // A zone whose corner is dominated can only hold dominated events
    // (strictness against the corner carries down to every event at or
    // below it) — prune it before any transmission.
    if (!storage::skyline_admits(q, collected, skyline_order_.corner(unit)))
      continue;
    // The owner replies with its LOCAL skyline: an event dominated within
    // its own zone is dominated globally. The reply lands after the
    // collected points and keeps, in order, each event that neither they
    // nor an earlier kept one dominate.
    const std::size_t first = collected.size();
    visit_leaf(sink, tree_.leaves()[unit], receipt, collected,
               [&](const auto& cs, auto& rows) {
                 storage::column::skyline_rows(cs, q, false, rows);
               });
    std::size_t kept = first;
    for (std::size_t i = first; i < collected.size(); ++i) {
      if (!storage::skyline_admits(
              q, std::span<const Event>(collected.data(), kept),
              collected[i].values))
        continue;
      if (i != kept) collected[kept] = std::move(collected[i]);
      ++kept;
    }
    collected.resize(kept);
  }

  storage::skyline_filter(q, collected);
  receipt.events = std::move(collected);
  receipt.cost() = storage::cost_of(net_.traffic() - before);
  return receipt;
}

QueryReceipt DimSystem::k_nearest(net::NodeId sink,
                                  const storage::KNearestQuery& q) {
  QueryReceipt receipt;
  const auto before = net_.traffic();
  knn_visited_.assign(tree_.size(), 0);  // by leaf ZoneIndex
  std::vector<Event> cand;

  double radius = q.initial_radius > 0.0 ? q.initial_radius : 0.05;
  while (true) {
    ++receipt.rounds;
    const RangeQuery box = storage::box_around(q.target, radius);
    for (const ZoneIndex leaf : tree_.leaves_overlapping(box)) {
      if (std::exchange(knn_visited_[leaf], 1)) continue;
      // The owner answers with its local top-k, box or not — the box
      // only picks WHICH zones to visit, so a visited zone never needs
      // re-querying when the ring later grows.
      const std::size_t held = cand.size();
      visit_leaf(sink, leaf, receipt, cand, [&](const auto& cs, auto& rows) {
        storage::column::knn_rows(cs, q, false, rows);
      });
      if (cand.size() == held) continue;
      storage::knn_filter(q, cand);  // sink keeps only the running top-k
    }

    // Complete when the k-th candidate lies within the proven-covered
    // radius, or the box already spans the whole value space.
    if (cand.size() >= q.k &&
        std::sqrt(storage::knn_kth_distance2(q, cand)) <= radius)
      break;
    if (radius >= 1.0) break;  // whole space searched
    radius = std::min(1.0, radius * 2.0);
  }

  storage::knn_filter(q, cand);
  receipt.events = std::move(cand);
  receipt.cost() = storage::cost_of(net_.traffic() - before);
  return receipt;
}

storage::BatchQueryReceipt DimSystem::merge_ranges(
    net::NodeId sink, const std::vector<RangeQuery>& queries) {
  // With dead nodes around, the merged probe's cost accounting and
  // pre-computed legs no longer hold; fall back to hardened serial
  // execution (which retries and fails over per leg).
  if (net_.has_failures()) return DcsSystem::merge_ranges(sink, queries);

  storage::BatchQueryReceipt batch;
  batch.per_query.resize(queries.size());
  const auto before = net_.traffic();
  const auto& sizes = net_.sizes();
  std::uint64_t serial_cost = 0;

  // Each query's serial walk is replayed WITHOUT charging the ledger: the
  // leg action records every leg it would send (computing each route
  // once) and adds the leg's hops to the serial cost.
  using LegMap =
      std::map<std::pair<net::NodeId, net::NodeId>, routing::RouteResult>;
  LegMap entry_legs;  // sink → enclosing-zone representative (Query kind)
  LegMap walk_legs;   // split-and-forward legs (SubQuery kind)
  const auto recorder = [&](LegMap& legs) {
    return [&legs, &serial_cost, this](net::NodeId from, net::NodeId to) {
      const auto [it, fresh] = legs.try_emplace({from, to});
      if (fresh) it->second = router_.route_to_node(from, to);
      serial_cost += it->second.hops();
      return true;
    };
  };
  auto to_entry = recorder(entry_legs);
  auto to_walk = recorder(walk_legs);
  // Per visited leaf: this batch's match count per query (visits with no
  // matches still count as visits, like serial index_nodes_visited).
  std::map<ZoneIndex, std::vector<std::uint32_t>> leaf_found;

  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const RangeQuery& q = queries[qi];
    const ZoneIndex start = tree_.enclosing_zone(q);
    if (!ZoneTree::zone_intersects(tree_.zone(start), q)) continue;
    const net::NodeId entry =
        legs_.reach([&] { return representative(start); },
                    [&](net::NodeId to) { return to_entry(sink, to); });
    auto on_leaf = [&](ZoneIndex leaf) {
      auto [it, fresh] = leaf_found.try_emplace(leaf);
      if (fresh) it->second.assign(queries.size(), 0);
      ++batch.per_query[qi].index_nodes_visited;
      ++batch.serial_cell_visits;
      const auto& cs = store_[leaf];
      cs.scan(q, false, [&](std::size_t row) {
        batch.per_query[qi].events.push_back(cs.event_at(row));
        ++it->second[qi];
      });
    };
    walk_subtree(entry, start, q, to_walk, on_leaf);
  }
  batch.unique_cell_visits = leaf_found.size();
  batch.index_nodes_visited = leaf_found.size();

  // Ship the merged probe: every distinct serial leg exactly once. Legs
  // shared by several queries carry all of them in one message.
  for (const auto& [key, leg] : entry_legs)
    net_.transmit_path(leg.path, net::MessageKind::Query,
                       sizes.query_bits(dims()));
  for (const auto& [key, leg] : walk_legs)
    net_.transmit_path(leg.path, net::MessageKind::SubQuery,
                       sizes.query_bits(dims()));

  // Each answering leaf replies once with the distinct matching events of
  // all askers; serial execution would have paid per asker.
  for (const auto& [leaf, counts] : leaf_found) {
    std::uint32_t union_found = 0;
    const auto& cs = store_[leaf];
    for (std::size_t row = 0; row < cs.size(); ++row) {
      for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        if (counts[qi] > 0 && cs.row_matches(queries[qi], row)) {
          ++union_found;
          break;
        }
      }
    }
    const net::NodeId owner = tree_.zone(leaf).owner;
    if (union_found == 0 || owner == sink) continue;
    legs_.reply(owner, sink, union_found);
    for (std::size_t qi = 0; qi < queries.size(); ++qi)
      serial_cost +=
          sizes.reply_batches(counts[qi]) * legs_.last().route.hops();
  }

  const auto delta = net_.traffic() - before;
  batch.cost() = storage::cost_of(delta);
  if (net_.loss_model().loss_probability == 0.0 && net_.extra_loss() == 0.0)
    POOLNET_ASSERT(serial_cost >= delta.total);
  batch.messages_saved =
      serial_cost >= delta.total ? serial_cost - delta.total : 0;
  return batch;
}

QueryReceipt DimSystem::aggregate(net::NodeId sink,
                                  const storage::AggregateQuery& q) {
  QueryReceipt receipt;
  const auto before = net_.traffic();
  storage::PartialAggregate total;
  disseminate(sink, q.range, [&](ZoneIndex leaf) {
    ++receipt.index_nodes_visited;
    storage::PartialAggregate partial;
    const auto& cs = store_[leaf];
    cs.scan(q.range, false, [&](std::size_t row) {
      partial.add(cs.value_at(row, q.value_dim));
    });
    // One fixed-size partial straight to the sink; it only joins the
    // aggregate if the leg actually delivers.
    if (legs_.reply(tree_.zone(leaf).owner, sink,
                    static_cast<std::uint32_t>(partial.count),
                    /*partial=*/true))
      total.merge(partial);
  });
  receipt.aggregate = total.finalize(q.kind);
  receipt.cost() = storage::cost_of(net_.traffic() - before);
  return receipt;
}

std::size_t DimSystem::expire_before(double cutoff) {
  std::size_t removed = 0;
  for (const ZoneIndex leaf : tree_.leaves()) {
    const auto gone = store_[leaf].expire_before(cutoff);
    if (gone > 0) {
      removed += gone;
      const net::NodeId owner = tree_.zone(leaf).owner;
      if (owner != net::kNoNode) net_.node_mut(owner).stored_events -= gone;
    }
  }
  stored_count_ -= removed;
  return removed;
}

}  // namespace poolnet::dim
