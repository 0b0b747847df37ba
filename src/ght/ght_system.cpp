#include "ght/ght_system.h"

#include <cmath>
#include <cstdio>

#include "common/error.h"
#include "storage/column/row_kernels.h"

namespace poolnet::ght {

using storage::Event;
using storage::InsertReceipt;
using storage::QueryReceipt;
using storage::RangeQuery;

namespace {
std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

GhtSystem::GhtSystem(net::Network& network,
                     const routing::Router& router, std::size_t dims,
                     GhtConfig config)
    : net_(network),
      dims_(dims),
      config_(config),
      legs_(*this, fault_stats_, network, router, dims) {
  if (dims == 0 || dims > storage::kMaxDims)
    throw ConfigError("GHT: bad dimensionality");
  if (config.quantum <= 0.0 || config.quantum > 1.0)
    throw ConfigError("GHT: quantum must be in (0,1]");
  store_.assign(network.size(), storage::column::ColumnStore(dims));
  for (auto& cs : store_) cs.set_stats(&scan_stats_);
}

std::string GhtSystem::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "GHT (dims=%zu, quantum=%g)", dims_,
                config_.quantum);
  return buf;
}

std::uint64_t GhtSystem::key_of(const storage::Values& values) const {
  std::uint64_t key = config_.hash_seed;
  for (std::size_t d = 0; d < values.size(); ++d) {
    double v = values[d];
    if (v >= 1.0) v = 1.0 - 1e-12;
    const auto bucket =
        static_cast<std::uint64_t>(std::floor(v / config_.quantum));
    key = mix(key ^ (bucket + 0x9e3779b97f4a7c15ULL * (d + 1)));
  }
  return key;
}

Point GhtSystem::location_of(std::uint64_t key) const {
  const Rect& f = net_.field();
  const double u = static_cast<double>(mix(key) >> 11) * 0x1.0p-53;
  const double v = static_cast<double>(mix(key ^ 0xabcdef0123456789ULL) >> 11) *
                   0x1.0p-53;
  return {f.min_x + u * f.width(), f.min_y + v * f.height()};
}

net::NodeId GhtSystem::home_node(const storage::Values& values) const {
  const std::uint64_t key = key_of(values);
  const auto [it, fresh] = home_cache_.try_emplace(key, net::kNoNode);
  if (fresh) it->second = net_.nearest_alive_node(location_of(key));
  return it->second;
}

void GhtSystem::handle_node_failure(net::NodeId dead) {
  if (dead >= net_.size()) return;
  if (known_dead_.empty()) known_dead_.assign(net_.size(), 0);
  if (known_dead_[dead]) return;
  known_dead_[dead] = 1;

  // GHT keeps one copy per key: whatever the dead home held is gone.
  auto& events = store_[dead];
  if (!events.empty()) {
    fault_stats_.events_lost += events.size();
    stored_count_ -= events.size();
    net_.node_mut(dead).stored_events -= events.size();
    events.clear();
  }
  // Forget every cached home at the dead node; the next use of each key
  // re-walks to the nearest survivor.
  for (auto it = home_cache_.begin(); it != home_cache_.end();) {
    if (it->second == dead) {
      it = home_cache_.erase(it);
      ++fault_stats_.failovers;
    } else {
      ++it;
    }
  }
}

InsertReceipt GhtSystem::insert(net::NodeId source, const Event& event) {
  storage::validate_event(event);
  if (event.dims() != dims_)
    throw ConfigError("GHT: event dimensionality mismatch");

  const auto before = net_.traffic().total;
  const std::uint64_t bits = net_.sizes().event_bits(dims_);
  // A failed leg evicts the dead home from the cache; the retry goes to
  // the re-homed survivor.
  const net::NodeId home =
      legs_.reach(source, net::MessageKind::Insert, bits,
                  [&] { return home_node(event.values); });
  InsertReceipt receipt;
  receipt.messages = net_.traffic().total - before;
  if (home == net::kNoNode) {  // unreachable, or nobody left to store at
    ++fault_stats_.events_lost;
    return receipt;
  }

  store_[home].append(event);
  ++stored_count_;
  ++net_.node_mut(home).stored_events;
  receipt.stored_at = home;
  return receipt;
}

std::size_t GhtSystem::charge_flood(net::NodeId sink) {
  // BFS broadcast: every reached node rebroadcasts exactly once, so each
  // tree edge is one Query transmission. (Real floods cost MORE — every
  // node transmits regardless of tree membership — so this undercounts in
  // GHT's favor; Pool still wins by orders of magnitude.)
  if (!net_.alive(sink)) return 0;
  std::vector<char>& seen = flood_seen_;
  std::vector<net::NodeId>& frontier = flood_frontier_;
  seen.assign(net_.size(), 0);
  frontier.clear();
  frontier.push_back(sink);
  seen[sink] = 1;
  const auto bits = net_.sizes().query_bits(dims_);
  // Every reached node is pushed once, so the vector is the FIFO queue:
  // `head` walks it in BFS order while the tail grows.
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const net::NodeId u = frontier[head];
    for (const net::NodeId v : net_.neighbors(u)) {
      if (seen[v]) continue;
      // Broadcasts are unacked: a dead neighbor simply never rebroadcasts,
      // so the flood routes around it without charging extra attempts.
      if (!net_.alive(v)) continue;
      seen[v] = 1;
      net_.transmit(u, v, net::MessageKind::Query, bits);
      frontier.push_back(v);
    }
  }
  return frontier.size();
}

template <class Local, class Keep>
std::size_t GhtSystem::flood_collect(net::NodeId sink, bool partial,
                                     Local&& local, Keep&& keep) {
  charge_flood(sink);
  std::size_t replied = 0;
  for (net::NodeId n = 0; n < net_.size(); ++n) {
    if (store_[n].empty()) continue;
    if (!net_.alive(n)) {
      // The flood just exposed a silently-dead holder: absorb the loss
      // so no later query fabricates answers from destroyed storage.
      handle_node_failure(n);
      continue;
    }
    const auto rows = static_cast<std::uint32_t>(local(store_[n]));
    if (rows == 0) continue;
    ++replied;
    if (legs_.reply(n, sink, rows, partial)) keep();
  }
  return replied;
}

QueryReceipt GhtSystem::query(net::NodeId sink, const RangeQuery& q) {
  QueryReceipt receipt;
  const auto before = net_.traffic();
  std::vector<Event> matched;
  if (q.type() == storage::QueryType::ExactMatchPoint) {
    // Hash the queried point; only its home node can hold exact matches.
    storage::Values point;
    for (std::size_t d = 0; d < dims_; ++d) point.push_back(q.bound(d).lo);
    const std::uint64_t qbits = net_.sizes().query_bits(dims_);
    const net::NodeId home = legs_.reach(sink, net::MessageKind::Query, qbits,
                                         [&] { return home_node(point); });
    if (home != net::kNoNode) {
      receipt.index_nodes_visited = 1;
      store_[home].matching_into(q, matched);
      if (legs_.reply(home, sink, static_cast<std::uint32_t>(matched.size())))
        receipt.events = std::move(matched);
    }
  } else {
    // No value locality: flood, then every holder replies directly.
    receipt.index_nodes_visited = flood_collect(
        sink, false,
        [&](const auto& cs) {
          matched.clear();
          cs.matching_into(q, matched);
          return matched.size();
        },
        [&] {
          receipt.events.insert(receipt.events.end(), matched.begin(),
                                matched.end());
        });
  }
  receipt.cost() = storage::cost_of(net_.traffic() - before);
  return receipt;
}

QueryReceipt GhtSystem::skyline(net::NodeId sink,
                                const storage::SkylineQuery& q) {
  // Value hashing scatters dominance-adjacent events across the whole
  // network, so there is nothing to prune toward: flood, then every
  // holder replies with its LOCAL skyline (an event dominated at its own
  // home is dominated globally) and the sink merges.
  QueryReceipt receipt;
  const auto before = net_.traffic();
  const storage::column::ColumnStore* home = nullptr;
  std::vector<std::uint32_t> local;
  receipt.index_nodes_visited = flood_collect(
      sink, false,
      [&](const auto& cs) {
        home = &cs;
        storage::column::skyline_rows(cs, q, false, local);
        return local.size();
      },
      [&] {
        for (const std::uint32_t row : local)
          receipt.events.push_back(home->event_at(row));
      });
  storage::skyline_filter(q, receipt.events);
  receipt.cost() = storage::cost_of(net_.traffic() - before);
  return receipt;
}

QueryReceipt GhtSystem::k_nearest(net::NodeId sink,
                                  const storage::KNearestQuery& q) {
  // No distance locality either: nearby values hash to unrelated homes,
  // so an expanding ring cannot be routed. One flood; each holder
  // replies with its local top-k and the sink keeps the best k.
  QueryReceipt receipt;
  const auto before = net_.traffic();
  receipt.rounds = 1;
  const storage::column::ColumnStore* home = nullptr;
  std::vector<std::uint32_t> local;
  receipt.index_nodes_visited = flood_collect(
      sink, false,
      [&](const auto& cs) {
        home = &cs;
        storage::column::knn_rows(cs, q, false, local);
        return local.size();
      },
      [&] {
        for (const std::uint32_t row : local)
          receipt.events.push_back(home->event_at(row));
        storage::knn_filter(q, receipt.events);  // the running top-k
      });
  storage::knn_filter(q, receipt.events);
  receipt.cost() = storage::cost_of(net_.traffic() - before);
  return receipt;
}

storage::BatchQueryReceipt GhtSystem::merge_ranges(
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

  // One scan of a store serves every member: each member's matches land
  // in its own receipt in row order. Returns the DISTINCT matching rows —
  // the one reply that travels — and charges it, accounting what every
  // member's own reply would have cost serially.
  std::vector<std::uint32_t> member_found;
  const auto answer = [&](net::NodeId holder,
                          const std::vector<std::size_t>& members) {
    member_found.assign(members.size(), 0);
    std::uint32_t union_found = 0;
    const auto& cs = store_[holder];
    for (std::size_t row = 0; row < cs.size(); ++row) {
      bool any = false;
      Event e;
      for (std::size_t mi = 0; mi < members.size(); ++mi) {
        if (!cs.row_matches(queries[members[mi]], row)) continue;
        if (!any) e = cs.event_at(row);
        any = true;
        ++member_found[mi];
        batch.per_query[members[mi]].events.push_back(e);
      }
      union_found += any;
    }
    if (union_found > 0 && holder != sink) {
      legs_.reply(holder, sink, union_found);
      for (const std::uint32_t n : member_found)
        serial_cost += sizes.reply_batches(n) * legs_.last().route.hops();
    }
    return union_found;
  };

  std::vector<std::size_t> points, floods;
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    (queries[qi].type() == storage::QueryType::ExactMatchPoint ? points
                                                               : floods)
        .push_back(qi);
  }

  // Point queries: probes to the same home node merge into one. The
  // home reply carries the distinct matches of every asker.
  struct HomeGroup {
    net::NodeId home;
    std::vector<std::size_t> members;
  };
  std::vector<HomeGroup> groups;
  std::unordered_map<net::NodeId, std::size_t> group_at;
  for (const std::size_t qi : points) {
    storage::Values point;
    for (std::size_t d = 0; d < dims_; ++d)
      point.push_back(queries[qi].bound(d).lo);
    const net::NodeId home = home_node(point);
    const auto [it, fresh] = group_at.try_emplace(home, groups.size());
    if (fresh) groups.push_back({home, {}});
    groups[it->second].members.push_back(qi);
  }
  for (const HomeGroup& g : groups) {
    legs_.send(sink, g.home, net::MessageKind::Query, sizes.query_bits(dims_));
    serial_cost += g.members.size() * legs_.last().route.hops();
    ++batch.unique_cell_visits;
    ++batch.index_nodes_visited;
    batch.serial_cell_visits += g.members.size();
    for (const std::size_t qi : g.members)
      batch.per_query[qi].index_nodes_visited = 1;
    answer(g.home, g.members);
  }

  // Range/partial queries: one flood serves every member — serial
  // execution floods once PER query, the dominant saving here.
  if (!floods.empty()) {
    const std::size_t reached = charge_flood(sink);
    serial_cost +=
        floods.size() * static_cast<std::uint64_t>(reached - 1);
    for (net::NodeId n = 0; n < net_.size(); ++n) {
      if (store_[n].empty()) continue;
      batch.serial_cell_visits += floods.size();
      ++batch.unique_cell_visits;
      if (answer(n, floods) > 0) ++batch.index_nodes_visited;
      for (std::size_t mi = 0; mi < floods.size(); ++mi)
        if (member_found[mi] > 0)
          ++batch.per_query[floods[mi]].index_nodes_visited;
    }
  }

  const auto delta = net_.traffic() - before;
  batch.cost() = storage::cost_of(delta);
  if (net_.loss_model().loss_probability == 0.0 && net_.extra_loss() == 0.0)
    POOLNET_ASSERT(serial_cost >= delta.total);
  batch.messages_saved =
      serial_cost >= delta.total ? serial_cost - delta.total : 0;
  return batch;
}

std::size_t GhtSystem::expire_before(double cutoff) {
  std::size_t removed = 0;
  for (net::NodeId n = 0; n < net_.size(); ++n) {
    const auto gone = store_[n].expire_before(cutoff);
    if (gone > 0) {
      removed += gone;
      net_.node_mut(n).stored_events -= gone;
    }
  }
  stored_count_ -= removed;
  return removed;
}

QueryReceipt GhtSystem::aggregate(net::NodeId sink,
                                  const storage::AggregateQuery& q) {
  // Aggregates have the same locality problem as ranges: flood, and each
  // holder sends one fixed-size partial home — which only joins the
  // aggregate if its leg delivers.
  QueryReceipt receipt;
  const auto before = net_.traffic();
  storage::PartialAggregate partial, total;
  receipt.index_nodes_visited = flood_collect(
      sink, true,
      [&](const auto& cs) {
        partial = {};
        cs.scan(q.range, false, [&](std::size_t row) {
          partial.add(cs.value_at(row, q.value_dim));
        });
        return partial.count;
      },
      [&] { total.merge(partial); });
  receipt.aggregate = total.finalize(q.kind);
  receipt.cost() = storage::cost_of(net_.traffic() - before);
  return receipt;
}

}  // namespace poolnet::ght
