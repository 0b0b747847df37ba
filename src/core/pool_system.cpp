#include "core/pool_system.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/error.h"
#include "storage/column/row_kernels.h"

namespace poolnet::core {

using storage::Event;
using storage::InsertReceipt;
using storage::QueryReceipt;
using storage::RangeQuery;

namespace {
PoolLayout make_random_layout(const Grid& grid, std::size_t dims,
                              const PoolConfig& config) {
  Rng rng(config.layout_seed);
  return PoolLayout::random(grid, dims, config.side, rng);
}
}  // namespace

PoolSystem::PoolSystem(net::Network& network,
                       const routing::Router& router, std::size_t dims,
                       PoolConfig config)
    : PoolSystem(network, router, dims, config,
                 make_random_layout(Grid(network, config.cell_size), dims,
                                    config)) {}

PoolSystem::PoolSystem(net::Network& network,
                       const routing::Router& router, std::size_t dims,
                       PoolConfig config, PoolLayout layout)
    : net_(network),
      router_(router),
      dims_(dims),
      config_(config),
      legs_(*this, fault_stats_, network, router, dims),
      grid_(network, config.cell_size),
      layout_(std::move(layout)) {
  if (dims == 0 || dims > storage::kMaxDims)
    throw ConfigError("PoolSystem: bad dimensionality");
  if (layout_.pool_count() != dims)
    throw ConfigError("PoolSystem: layout pool count != dims");
  if (layout_.side() != config_.side)
    throw ConfigError("PoolSystem: layout side != config side");
  if (config_.replicas >= dims_)
    throw ConfigError(
        "PoolSystem: replicas must be < dims (one rotated pool per mirror)");
  cells_.assign(dims * static_cast<std::size_t>(config_.side) * config_.side,
                storage::column::ColumnStore(dims, /*with_meta=*/true));
  for (auto& cell : cells_) cell.set_stats(&scan_stats_);
  cell_subs_.resize(cells_.size());
  splitter_cache_.assign(dims * net_.size(), net::kNoNode);

  if (config_.charge_dht_lookup) {
    pivot_cache_.assign(net_.size() * dims_, 0);
    // Publish each pivot record: its pool's pivot-cell index node writes
    // the record to the directory home (one Control unicast per pool).
    for (std::size_t p = 0; p < dims_; ++p) {
      const net::NodeId publisher = grid_.index_node(layout_.pivot(p));
      const net::NodeId home = directory_home(p);
      const auto leg = router_.route_to_node(publisher, home);
      net_.transmit_path(leg.path, net::MessageKind::Control,
                         net_.sizes().control_bits);
    }
  }
}

std::string PoolSystem::describe() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "Pool (l=%u, alpha=%gm, dims=%zu, replicas=%u%s%s)",
                config_.side, config_.cell_size, dims_, config_.replicas,
                config_.workload_sharing ? ", sharing" : "",
                config_.charge_dht_lookup ? ", dht-pivots" : "");
  return buf;
}

net::NodeId PoolSystem::directory_home(std::size_t pool_dim) const {
  // GHT-style hash of the pool id to a field location.
  std::uint64_t z = 0x7f4a7c15u + pool_dim;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const Rect& f = net_.field();
  const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
  const double v =
      static_cast<double>((z * 0x9e3779b97f4a7c15ULL) >> 11) * 0x1.0p-53;
  return net_.nearest_node(
      {f.min_x + u * f.width(), f.min_y + v * f.height()});
}

std::uint64_t PoolSystem::charge_pivot_lookup(net::NodeId node,
                                              std::size_t pool_dim) {
  if (!config_.charge_dht_lookup) return 0;
  char& cached = pivot_cache_[node * dims_ + pool_dim];
  if (cached) return 0;
  cached = 1;
  const auto before = net_.traffic().total;
  const net::NodeId home = directory_home(pool_dim);
  router_.route_to_node_into(node, home, route_scratch_);
  net_.transmit_path(route_scratch_.path, net::MessageKind::Control,
                     net_.sizes().control_bits);
  router_.route_to_node_into(home, node, route_scratch_);
  net_.transmit_path(route_scratch_.path, net::MessageKind::Control,
                     net_.sizes().control_bits);
  return net_.traffic().total - before;
}

std::size_t PoolSystem::cell_key(std::size_t pool_dim,
                                 CellOffset offset) const {
  const std::size_t l = config_.side;
  POOLNET_ASSERT(pool_dim < dims_ && offset.ho < l && offset.vo < l);
  return (pool_dim * l + offset.vo) * l + offset.ho;
}

PoolSystem::CellChoice PoolSystem::choose_cell(net::NodeId source,
                                               const Event& event) const {
  const Point src_pos = net_.position(source);
  const auto candidates = event.max_dims();
  POOLNET_ASSERT(!candidates.empty());

  std::optional<CellChoice> best;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const std::size_t d1 = candidates[c];
    const Placement pl = placement_for(event, d1);
    const CellOffset off = cell_for_values(pl.v_d1, pl.v_d2, config_.side);
    const CellCoord coord = layout_.cell(d1, off);
    const double d2 = distance_sq(grid_.cell_center(coord), src_pos);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = CellChoice{d1, off, coord, grid_.index_node(coord)};
    }
  }
  return *best;
}

net::NodeId PoolSystem::pick_delegate(net::NodeId index_node) const {
  // Least-loaded radio neighbor; the index node keeps serving when it has
  // no neighbors at all (disconnected corner case).
  net::NodeId best = net::kNoNode;
  std::uint64_t best_load = std::numeric_limits<std::uint64_t>::max();
  for (const net::NodeId nb : net_.neighbors(index_node)) {
    if (!net_.alive(nb)) continue;
    const std::uint64_t load = net_.node(nb).stored_events;
    if (load < best_load || (load == best_load && nb < best)) {
      best_load = load;
      best = nb;
    }
  }
  return best;
}

void PoolSystem::absorb_dead_holders(std::size_t key) {
  std::vector<net::NodeId> dead;
  const auto& cell = cells_[key];
  for (std::size_t row = 0; row < cell.size(); ++row) {
    const net::NodeId holder = cell.holder_at(row);
    if (net_.alive(holder)) continue;
    if (std::find(dead.begin(), dead.end(), holder) == dead.end())
      dead.push_back(holder);
  }
  for (const net::NodeId d : dead) handle_node_failure(d);
}

void PoolSystem::handle_node_failure(net::NodeId dead) {
  if (dead >= net_.size()) return;
  if (known_dead_.empty()) known_dead_.assign(net_.size(), 0);
  if (known_dead_[dead]) return;
  known_dead_[dead] = 1;

  // (1) Re-elect: affected cells pick the nearest survivor to their
  // center on next use; splitters pointing at the dead node re-scan.
  fault_stats_.failovers += grid_.evict_node(dead);
  for (net::NodeId& s : splitter_cache_)
    if (s == dead) s = net::kNoNode;

  // (2) Data resident at the dead node. Pure state first (no traffic
  // while we iterate), restoration traffic after.
  const std::uint32_t side = config_.side;
  const std::size_t l2 = static_cast<std::size_t>(side) * side;
  struct Restore {
    Event event;
    net::NodeId mirror_holder;
    std::size_t key;        // primary's cell
    CellCoord coord;        // primary's cell coordinate
  };
  std::vector<Restore> restores;
  for (std::size_t key = 0; key < cells_.size(); ++key) {
    auto& cell = cells_[key];
    const std::size_t pool_dim = key / l2;
    const CellOffset off{static_cast<std::uint32_t>(key % side),
                         static_cast<std::uint32_t>((key / side) % side)};
    cell.erase_if([&](std::size_t row) {
      if (cell.holder_at(row) != dead) return false;
      --net_.node_mut(dead).stored_events;
      if (cell.replica_at(row)) {
        --replica_count_;
        return true;
      }
      // Primary destroyed: a surviving mirror (reflected offset, rotated
      // pool) can re-materialize it at the cell's new index node.
      for (std::uint32_t r = 1; r <= config_.replicas; ++r) {
        const std::size_t mirror_pool = (pool_dim + r) % dims_;
        const CellOffset mirror_off{side - 1 - off.ho, side - 1 - off.vo};
        const auto& mirror = cells_[cell_key(mirror_pool, mirror_off)];
        for (std::size_t m = 0; m < mirror.size(); ++m) {
          if (!mirror.replica_at(m) || mirror.id_at(m) != cell.id_at(row))
            continue;
          if (!net_.alive(mirror.holder_at(m))) continue;
          restores.push_back({cell.event_at(row), mirror.holder_at(m), key,
                              layout_.cell(pool_dim, off)});
          return true;
        }
      }
      --stored_count_;
      ++fault_stats_.events_lost;
      return true;
    });
  }

  // (3) Restoration traffic: one Insert leg mirror-holder → new index
  // node per rescued event. Newly-discovered deaths are deferred until
  // this node's repair finishes (no re-entrant cell mutation).
  std::vector<net::NodeId> discovered;
  for (Restore& r : restores) {
    const net::NodeId new_idx = grid_.index_node(r.coord);
    bool stored = false;
    if (new_idx != net::kNoNode) {
      const auto leg = routing::send_reliable(net_, router_, r.mirror_holder,
                                              new_idx, net::MessageKind::Insert,
                                              net_.sizes().event_bits(dims_));
      fault_stats_.retries += leg.retries;
      for (const net::NodeId d : leg.dead_found)
        if (std::find(discovered.begin(), discovered.end(), d) ==
            discovered.end())
          discovered.push_back(d);
      if (leg.delivered) {
        cells_[r.key].append(r.event, new_idx, /*is_replica=*/false);
        ++net_.node_mut(new_idx).stored_events;
        ++fault_stats_.events_restored;
        stored = true;
      }
    }
    if (!stored) {
      ++fault_stats_.failed_legs;
      --stored_count_;
      ++fault_stats_.events_lost;
    }
  }
  for (const net::NodeId d : discovered) handle_node_failure(d);
}

InsertReceipt PoolSystem::insert(net::NodeId source, const Event& event) {
  storage::validate_event(event);
  if (event.dims() != dims_)
    throw ConfigError("PoolSystem: event dimensionality mismatch");

  const auto before = net_.traffic().total;
  // The detecting node needs the pivot of every candidate pool (all of
  // them under a Section 4.1 tie) to compute and compare cell locations.
  for (const std::size_t d1 : event.max_dims())
    charge_pivot_lookup(source, d1);
  const CellChoice choice = choose_cell(source, event);

  // Algorithm 1, lines 5-6: route the event to the cell's location; the
  // index node (nearest the center) receives it. If delivery exposes a
  // dead index node, failover re-elects the nearest survivor and the
  // source retries once toward the new election.
  const std::uint64_t bits = net_.sizes().event_bits(dims_);
  const net::NodeId target =
      legs_.reach(source, net::MessageKind::Insert, bits,
                  [&] { return grid_.index_node(choice.coord); });
  if (target == net::kNoNode) {
    // Event lost in transit (unreachable cell under heavy failure).
    ++fault_stats_.events_lost;
    InsertReceipt receipt;
    receipt.messages = net_.traffic().total - before;
    return receipt;
  }

  net::NodeId holder = target;
  if (config_.workload_sharing &&
      net_.node(holder).stored_events >= config_.share_threshold) {
    const net::NodeId delegate = pick_delegate(holder);
    if (delegate != net::kNoNode &&
        net_.node(delegate).stored_events <
            net_.node(holder).stored_events) {
      // One-hop handoff to the delegate (Section 4.2's workload transfer).
      if (net_.transmit(holder, delegate, net::MessageKind::Insert, bits))
        holder = delegate;
    }
  }

  const std::size_t key = cell_key(choice.pool_dim, choice.offset);
  cells_[key].append(event, holder, /*is_replica=*/false);
  ++net_.node_mut(holder).stored_events;
  ++stored_count_;

  // Resilience mirrors: the POINT-REFLECTED offset in rotated pools.
  // Reflection matters: event load concentrates in high-offset cells
  // (HO tracks the maximum attribute value), so a same-offset mirror
  // would die together with its primary under load-correlated failures;
  // reflecting places mirrors in the lightly-loaded corner. Queries never
  // read mirrors (no duplicate answers); they only buy failure survival.
  for (std::uint32_t r = 1; r <= config_.replicas; ++r) {
    const std::size_t mirror_pool = (choice.pool_dim + r) % dims_;
    const CellOffset mirror_off{config_.side - 1 - choice.offset.ho,
                                config_.side - 1 - choice.offset.vo};
    const CellCoord mirror_coord = layout_.cell(mirror_pool, mirror_off);
    const net::NodeId mirror_idx =
        legs_.reach(source, net::MessageKind::Insert, bits,
                    [&] { return grid_.index_node(mirror_coord); });
    if (mirror_idx == net::kNoNode) continue;  // this copy just isn't made
    cells_[cell_key(mirror_pool, mirror_off)].append(event, mirror_idx,
                                                     /*is_replica=*/true);
    ++net_.node_mut(mirror_idx).stored_events;
    ++replica_count_;
  }

  // Continuous queries registered at this cell: every match pushes one
  // notification from the storing node straight to the subscriber.
  for (const SubscriptionId sid : cell_subs_[key]) {
    auto& sub = subscriptions_.at(sid);
    if (!sub.query.matches(event)) continue;
    if (!net_.alive(sub.sink)) continue;  // subscriber died; drop silently
    if (holder != sub.sink) {
      router_.route_to_node_into(holder, sub.sink, route_scratch_);
      net_.transmit_path(route_scratch_.path, net::MessageKind::Reply,
                         net_.sizes().reply_bits(dims_, 1));
    }
    sub.pending.push_back(event);
  }

  InsertReceipt receipt;
  receipt.stored_at = holder;
  receipt.messages = net_.traffic().total - before;
  return receipt;
}

net::NodeId PoolSystem::splitter_for(std::size_t pool_dim,
                                     net::NodeId sink) const {
  POOLNET_ASSERT(pool_dim < dims_);
  net::NodeId& memo = splitter_cache_[pool_dim * net_.size() + sink];
  if (memo != net::kNoNode) return memo;
  const Point sink_pos = net_.position(sink);
  net::NodeId best = net::kNoNode;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (std::uint32_t vo = 0; vo < config_.side; ++vo) {
    for (std::uint32_t ho = 0; ho < config_.side; ++ho) {
      const net::NodeId idx =
          grid_.index_node(layout_.cell(pool_dim, {ho, vo}));
      const double d2 = distance_sq(net_.position(idx), sink_pos);
      if (d2 < best_d2 || (d2 == best_d2 && idx < best)) {
        best_d2 = d2;
        best = idx;
      }
    }
  }
  memo = best;
  return best;
}

PoolSystem::Plan PoolSystem::range_plan(const RangeQuery& q) const {
  Plan plan;
  for (std::size_t pool_dim = 0; pool_dim < dims_; ++pool_dim)
    for (const CellOffset off : relevant_cells(q, pool_dim, config_.side))
      plan.push_back({pool_dim, off});
  return plan;
}

std::size_t PoolSystem::relevant_cell_count(const RangeQuery& q) const {
  return range_plan(q).size();
}

namespace {

/// The rows a visited cell replies with, counted per holder: the index
/// node itself, or a delegate one hop away that the walk must poll.
struct HolderTally {
  net::NodeId index_node;
  std::uint32_t here = 0;
  std::unordered_map<net::NodeId, std::uint32_t> delegates;

  void add(net::NodeId holder) {
    if (holder == index_node) {
      ++here;
    } else {
      ++delegates[holder];
    }
  }
};

/// What the walk hands a visitor at a reached cell.
struct CellVisit {
  std::size_t step;  ///< index into the plan
  std::size_t key;   ///< the cell's slot in the per-cell tables
  const storage::column::ColumnStore& rows;
  net::NodeId index_node;
};

/// Legs the walk reports back to visitors that account for transport
/// (merge_ranges replays serial cost from their hop counts).
enum class Leg { Lookup, Splitter, Cell, CellReply, PoolReply };

/// The visitor contract, with every variation point at its default. A
/// query class derives, supplies visit(const CellVisit&, HolderTally&) —
/// its cell-local operation, tallying the holder of every row it replies
/// with — and overrides only what it varies.
struct CellVisitor {
  /// Message kinds of the sink → splitter and splitter → cell legs.
  static constexpr net::MessageKind to_splitter() {
    return net::MessageKind::Query;
  }
  static constexpr net::MessageKind to_cell() {
    return net::MessageKind::SubQuery;
  }
  /// Replies carry one fixed-size aggregate partial, not event batches.
  static constexpr bool partial_replies() { return false; }
  /// Rows go on to the sink after every cell instead of being packed at
  /// the splitter until the pool's steps end.
  static constexpr bool flush_each_cell() { return false; }

  /// Checked just before a step; false skips it without any traffic.
  bool admit(std::size_t /*step*/) const { return true; }
  /// A leg the walk just sent, with its hop count (Lookup: messages).
  void leg(std::size_t /*step*/, Leg, std::uint64_t /*hops*/) {}
  /// The pool's run of steps ended; `rows` went on to the sink.
  void pool_done(std::size_t /*pool_dim*/, std::uint32_t /*rows*/) {}
};

}  // namespace

template <class Visitor>
std::size_t PoolSystem::visit_relevant(net::NodeId sink, const Plan& plan,
                                       Visitor& v) {
  constexpr bool partial = Visitor::partial_replies();
  const std::uint64_t qbits = net_.sizes().query_bits(dims_);
  const auto hops = [&] {
    return static_cast<std::uint64_t>(legs_.last().route.hops());
  };
  // Per pool: contacted yet, the splitter reached (kNoNode: unreachable
  // this walk), and the rows packed at it so far.
  std::vector<char> contacted(dims_, 0);
  std::vector<net::NodeId> splitters(dims_, net::kNoNode);
  std::vector<std::uint32_t> packed(dims_, 0);
  std::size_t reached = 0;

  // One admitted step below a reached splitter: the cell leg, the cell's
  // local operation, delegate polls and the reply up the tree.
  const auto visit_cell = [&](std::size_t i, net::NodeId splitter) {
    const PlanStep& s = plan[i];
    const std::size_t key = cell_key(s.pool_dim, s.off);
    if (net_.has_failures()) absorb_dead_holders(key);
    const CellCoord coord = layout_.cell(s.pool_dim, s.off);
    const net::NodeId idx =
        legs_.reach(splitter, Visitor::to_cell(), qbits,
                    [&] { return grid_.index_node(coord); });
    if (idx == net::kNoNode) return;  // cell unreachable this walk
    ++reached;
    v.leg(i, Leg::Cell, hops());
    HolderTally tally{idx, 0, {}};
    v.visit(CellVisit{i, key, cells_[key], idx}, tally);
    std::uint32_t rows = tally.here;
    for (const auto& [delegate, found] : tally.delegates) {
      // Poll the delegate one hop out; its rows come back one hop.
      net_.transmit(idx, delegate, net::MessageKind::SubQuery, qbits);
      const auto shape = legs_.shape(found, partial);
      for (std::uint64_t b = 0; b < shape.batches; ++b)
        net_.transmit(delegate, idx, net::MessageKind::Reply, shape.bits);
      rows += found;
    }
    // Cell replies travel back to the splitter along the tree.
    if (rows > 0 && idx != splitter) {
      legs_.reply(idx, splitter, rows, partial);
      v.leg(i, Leg::CellReply, hops());
    }
    if (Visitor::flush_each_cell()) {
      legs_.reply(splitter, sink, rows, partial);
    } else {
      packed[s.pool_dim] += rows;
    }
  };

  for (std::size_t i = 0; i < plan.size(); ++i) {
    const std::size_t pool = plan[i].pool_dim;
    if (v.admit(i)) {
      if (!contacted[pool]) {
        contacted[pool] = 1;
        v.leg(i, Leg::Lookup, charge_pivot_lookup(sink, pool));
        splitters[pool] =
            legs_.reach(sink, Visitor::to_splitter(), qbits,
                        [&] { return splitter_for(pool, sink); });
        if (splitters[pool] != net::kNoNode) v.leg(i, Leg::Splitter, hops());
      }
      if (splitters[pool] != net::kNoNode) visit_cell(i, splitters[pool]);
    }
    // The pool's run of steps ends: its splitter packs the rows (and
    // would apply aggregate operators; Section 3.2.3) for the sink.
    const bool pool_ends =
        i + 1 == plan.size() || plan[i + 1].pool_dim != pool;
    if (pool_ends && splitters[pool] != net::kNoNode) {
      const std::uint32_t rows = std::exchange(packed[pool], 0);
      if (rows > 0 && splitters[pool] != sink) {
        legs_.reply(splitters[pool], sink, rows, partial);
        v.leg(i, Leg::PoolReply, hops());
      }
      v.pool_done(pool, rows);
    }
  }
  return reached;
}

QueryReceipt PoolSystem::query(net::NodeId sink, const RangeQuery& q) {
  // Query resolving (Algorithm 2) is pure arithmetic on the predefined
  // layout, so the plan already skips pools without relevant cells.
  struct Visitor : CellVisitor {
    const RangeQuery& q;
    std::vector<Event>& events;
    void visit(const CellVisit& c, HolderTally& tally) {
      c.rows.scan(q, /*skip_replicas=*/true, [&](std::size_t row) {
        events.push_back(c.rows.event_at(row));
        tally.add(c.rows.holder_at(row));
      });
    }
  };
  QueryReceipt receipt;
  const auto before = net_.traffic();
  Visitor v{{}, q, receipt.events};
  receipt.index_nodes_visited = visit_relevant(sink, range_plan(q), v);
  receipt.cost() = storage::cost_of(net_.traffic() - before);
  return receipt;
}

QueryReceipt PoolSystem::skyline(net::NodeId sink,
                                 const storage::SkylineQuery& q) {
  // Equation 1 gives every cell's best-possible corner without any
  // messages: events in cell (HO,VO) of pool d1 have their d1 value
  // below (HO+1)/l and every OTHER attribute below the second-greatest
  // bound (VO+1)(HO+1)/l². Visit cells best-corner-first so collected
  // skyline points prune the rest. The corners depend on l and dims
  // alone, so one order per mask serves for good.
  const std::uint32_t side = config_.side;
  if (skyline_order_.empty()) {
    std::vector<double> corners;
    corners.reserve(cells_.size() * dims_);
    for (std::size_t pool_dim = 0; pool_dim < dims_; ++pool_dim)
      for (std::uint32_t ho = 0; ho < side; ++ho)
        for (std::uint32_t vo = 0; vo < side; ++vo)
          for (std::size_t d = 0; d < dims_; ++d)
            corners.push_back(d == pool_dim ? range_h(ho, side).hi
                                            : range_v(ho, vo, side).hi);
    skyline_order_ = storage::CornerOrder(dims_, std::move(corners));
  }
  const std::vector<std::uint32_t>& order = skyline_order_.order(q);
  Plan plan;
  plan.reserve(order.size());
  for (const std::uint32_t unit : order)
    plan.push_back({unit / (side * side), {unit / side % side, unit % side}});

  struct Visitor : CellVisitor {
    // Candidates flow back cell → splitter → sink immediately: the sink
    // needs them to prune the NEXT visit.
    static constexpr bool flush_each_cell() { return true; }
    const storage::SkylineQuery& q;
    const storage::CornerOrder& corners;
    const std::vector<std::uint32_t>& order;
    std::vector<Event> collected;

    // The pruning rule: a cell whose corner is dominated by an already-
    // collected point can only hold dominated events (strictness against
    // the corner carries to every event at or below it).
    bool admit(std::size_t step) const {
      return storage::skyline_admits(q, collected,
                                     corners.corner(order[step]));
    }
    // The cell reduces its residents to their LOCAL skyline before
    // replying — an event dominated within its own cell is dominated
    // globally, so reply volume shrinks with correctness untouched. The
    // reply walks it in insertion order, as every cell-local scan does.
    void visit(const CellVisit& c, HolderTally& tally) {
      std::vector<std::uint32_t> local;
      storage::column::skyline_rows(c.rows, q, /*skip_replicas=*/true, local);
      for (const std::uint32_t row : local) {
        tally.add(c.rows.holder_at(row));
        Event e = c.rows.event_at(row);
        if (storage::skyline_admits(q, collected, e.values))
          collected.push_back(std::move(e));
      }
    }
  };
  QueryReceipt receipt;
  const auto before = net_.traffic();
  Visitor v{{}, q, skyline_order_, order, {}};
  receipt.index_nodes_visited = visit_relevant(sink, plan, v);
  storage::skyline_filter(q, v.collected);
  receipt.events = std::move(v.collected);
  receipt.cost() = storage::cost_of(net_.traffic() - before);
  return receipt;
}

QueryReceipt PoolSystem::k_nearest(net::NodeId sink,
                                   const storage::KNearestQuery& q) {
  struct Visitor : CellVisitor {
    const storage::KNearestQuery& q;
    std::vector<Event> cand;

    // The cell answers with its local top-k, box or not — the box only
    // chooses WHICH cells to visit; reporting the true local optimum
    // means a visited cell never needs re-querying when the box grows.
    void visit(const CellVisit& c, HolderTally& tally) {
      std::vector<std::uint32_t> local;
      storage::column::knn_rows(c.rows, q, /*skip_replicas=*/true, local);
      for (const std::uint32_t row : local) {
        tally.add(c.rows.holder_at(row));
        cand.push_back(c.rows.event_at(row));
      }
    }
    // The sink keeps only the running top-k.
    void pool_done(std::size_t, std::uint32_t rows) {
      if (rows > 0) storage::knn_filter(q, cand);
    }
  };
  QueryReceipt receipt;
  const auto before = net_.traffic();
  Visitor v{{}, q, {}};
  // Cells already queried; the sink can track these because resolving is
  // pure arithmetic on the predefined layout.
  std::vector<char> visited(cells_.size(), 0);
  double radius = q.initial_radius > 0.0 ? q.initial_radius : 0.05;
  while (true) {
    ++receipt.rounds;
    Plan fresh;
    for (const PlanStep& s : range_plan(storage::box_around(q.target, radius)))
      if (!std::exchange(visited[cell_key(s.pool_dim, s.off)], 1))
        fresh.push_back(s);
    receipt.index_nodes_visited += visit_relevant(sink, fresh, v);

    // Complete when the k-th candidate lies within the proven-covered
    // radius, or the box already spans the whole value space.
    if (v.cand.size() >= q.k &&
        std::sqrt(storage::knn_kth_distance2(q, v.cand)) <= radius)
      break;
    if (radius >= 1.0) break;  // whole space searched
    radius = std::min(1.0, radius * 2.0);
  }

  storage::knn_filter(q, v.cand);
  receipt.events = std::move(v.cand);
  receipt.cost() = storage::cost_of(net_.traffic() - before);
  return receipt;
}

storage::BatchQueryReceipt PoolSystem::merge_ranges(
    net::NodeId sink, const std::vector<RangeQuery>& queries) {
  // Merged execution assumes a static, fully-alive network (its savings
  // accounting rides on shared loss-free routes). Once nodes have died,
  // run serially — the serial path carries the detection/retry/failover
  // machinery.
  if (net_.has_failures()) return DcsSystem::merge_ranges(sink, queries);

  storage::BatchQueryReceipt batch;
  batch.per_query.resize(queries.size());
  const auto before = net_.traffic();

  // Where a member's matching rows at one reached cell are recorded: a
  // span of Visitor::hit_rows.
  struct Hits {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    bool reached = false;
  };
  // A query that asked for a step's cell; `slot` numbers its (query, own
  // plan step) pair across the batch.
  struct Member {
    std::size_t query;
    std::size_t slot;
  };

  // What issuing each query alone would have charged, replayed from the
  // hop counts of the legs the merged walk sends (every serial leg is
  // also a union leg, so the routes are already at hand).
  struct Visitor : CellVisitor {
    const std::vector<RangeQuery>& queries;
    const net::MessageSizes& sizes;
    const Plan& plan;
    std::vector<std::size_t> users;  ///< per pool: queries with cells there
    std::vector<std::vector<Member>> members;  ///< per step: askers
    std::vector<std::uint32_t> member_total;  ///< current step, per member
    std::vector<std::uint32_t> pool_matches;  ///< current pool, per query
    std::uint64_t serial_cost = 0;
    std::vector<Hits> hits;               ///< per slot
    std::vector<std::uint32_t> hit_rows;  ///< matching rows, member by member
    // Per-cell scratch: rows any member matched, and one member's matches
    // per delegate holder.
    std::vector<std::uint64_t> matched;
    std::vector<std::pair<net::NodeId, std::uint32_t>> at_delegate;

    void leg(std::size_t step, Leg kind, std::uint64_t hops) {
      switch (kind) {
        case Leg::Lookup:  // cached per (node, pool): serial pays it once too
          serial_cost += hops;
          break;
        case Leg::Splitter:
          serial_cost += users[plan[step].pool_dim] * hops;
          break;
        case Leg::Cell:
          serial_cost += members[step].size() * hops;
          break;
        case Leg::CellReply:
          for (const std::uint32_t n : member_total)
            serial_cost += sizes.reply_batches(n) * hops;
          break;
        case Leg::PoolReply:
          for (const std::uint32_t n : pool_matches)
            serial_cost += sizes.reply_batches(n) * hops;
          break;
      }
    }
    // One kernel scan per member records its matching rows for the demux
    // and counts them (split by holder, for the delegate economics); the
    // DISTINCT matching rows, tallied in row order, actually travel back.
    void visit(const CellVisit& c, HolderTally& tally) {
      const auto& m = members[c.step];
      member_total.assign(m.size(), 0);
      matched.assign((c.rows.size() + 63) / 64, 0);
      for (std::size_t mi = 0; mi < m.size(); ++mi) {
        const auto begin = static_cast<std::uint32_t>(hit_rows.size());
        at_delegate.clear();
        c.rows.scan(queries[m[mi].query], /*skip_replicas=*/true,
                    [&](std::size_t row) {
          hit_rows.push_back(static_cast<std::uint32_t>(row));
          matched[row / 64] |= std::uint64_t{1} << (row % 64);
          const net::NodeId holder = c.rows.holder_at(row);
          if (holder == c.index_node) return;
          const auto it = std::find_if(
              at_delegate.begin(), at_delegate.end(),
              [&](const auto& d) { return d.first == holder; });
          if (it == at_delegate.end()) {
            at_delegate.emplace_back(holder, 1);
          } else {
            ++it->second;
          }
        });
        const auto end = static_cast<std::uint32_t>(hit_rows.size());
        hits[m[mi].slot] = {begin, end, true};
        member_total[mi] = end - begin;
        pool_matches[m[mi].query] += end - begin;
        // Serial: each member with matches at a delegate would poll it and
        // pull its own reply batches, all single-hop.
        for (const auto& [delegate, n] : at_delegate)
          serial_cost += 1 + sizes.reply_batches(n);
      }
      for (std::size_t w = 0; w < matched.size(); ++w) {
        for (std::uint64_t bits = matched[w]; bits != 0; bits &= bits - 1)
          tally.add(c.rows.holder_at(
              w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
      }
    }
    void pool_done(std::size_t, std::uint32_t) {
      std::fill(pool_matches.begin(), pool_matches.end(), 0);
    }
  };

  // Per pool, the union of the queries' relevant cells in first-seen
  // order, with the member queries that asked for each cell.
  std::vector<Plan> own(queries.size());
  std::vector<std::size_t> first_slot(queries.size());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    own[qi] = range_plan(queries[qi]);
    first_slot[qi] = batch.serial_cell_visits;
    batch.serial_cell_visits += own[qi].size();
    batch.per_query[qi].index_nodes_visited = own[qi].size();
  }
  Plan plan;
  Visitor v{{}, queries, net_.sizes(), plan, std::vector<std::size_t>(dims_),
            {}, {}, std::vector<std::uint32_t>(queries.size()), 0,
            std::vector<Hits>(batch.serial_cell_visits), {}, {}, {}};
  for (std::size_t pool_dim = 0; pool_dim < dims_; ++pool_dim) {
    std::unordered_map<std::size_t, std::size_t> step_at;  // key → step
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      bool uses = false;
      for (std::size_t j = 0; j < own[qi].size(); ++j) {
        const PlanStep& s = own[qi][j];
        if (s.pool_dim != pool_dim) continue;
        uses = true;
        const auto [it, fresh] =
            step_at.try_emplace(cell_key(pool_dim, s.off), plan.size());
        if (fresh) {
          plan.push_back(s);
          v.members.emplace_back();
        }
        v.members[it->second].push_back({qi, first_slot[qi] + j});
      }
      v.users[pool_dim] += uses;
    }
  }
  batch.unique_cell_visits = batch.index_nodes_visited =
      visit_relevant(sink, plan, v);

  // Demultiplex: each query collects its events by walking ITS OWN
  // relevant-cell list in resolver order — exactly the order serial
  // query() appends in, so the per-query result is identical even
  // though the union visited the cells in a different order. Reached
  // cells hand back the rows the walk recorded; the rest are scanned.
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    auto& events = batch.per_query[qi].events;
    for (std::size_t j = 0; j < own[qi].size(); ++j) {
      const PlanStep& s = own[qi][j];
      const auto& cell = cells_[cell_key(s.pool_dim, s.off)];
      const Hits& h = v.hits[first_slot[qi] + j];
      if (!h.reached) {
        cell.scan(queries[qi], /*skip_replicas=*/true, [&](std::size_t row) {
          events.push_back(cell.event_at(row));
        });
        continue;
      }
      for (std::uint32_t r = h.begin; r < h.end; ++r)
        events.push_back(cell.event_at(v.hit_rows[r]));
    }
  }

  const auto delta = net_.traffic() - before;
  batch.cost() = storage::cost_of(delta);
  if (net_.loss_model().loss_probability == 0.0 && net_.extra_loss() == 0.0)
    POOLNET_ASSERT(v.serial_cost >= delta.total);
  batch.messages_saved =
      v.serial_cost >= delta.total ? v.serial_cost - delta.total : 0;
  return batch;
}

QueryReceipt PoolSystem::aggregate(net::NodeId sink,
                                   const storage::AggregateQuery& q) {
  // Every reply is one fixed-size partial: cells reduce their matches,
  // each splitter merges its pool's partials for the sink.
  struct Visitor : CellVisitor {
    static constexpr bool partial_replies() { return true; }
    const RangeQuery& q;
    std::size_t value_dim;
    storage::PartialAggregate pool_partial;
    storage::PartialAggregate total;

    void visit(const CellVisit& c, HolderTally& tally) {
      storage::PartialAggregate cell_partial;
      std::unordered_map<net::NodeId, storage::PartialAggregate> at_delegate;
      c.rows.scan(q, /*skip_replicas=*/true, [&](std::size_t row) {
        const double v = c.rows.value_at(row, value_dim);
        const net::NodeId holder = c.rows.holder_at(row);
        tally.add(holder);
        if (holder == c.index_node) {
          cell_partial.add(v);
        } else {
          at_delegate[holder].add(v);
        }
      });
      for (const auto& [delegate, partial] : at_delegate)
        cell_partial.merge(partial);
      pool_partial.merge(cell_partial);
    }
    void pool_done(std::size_t, std::uint32_t) {
      total.merge(std::exchange(pool_partial, {}));
    }
  };
  QueryReceipt receipt;
  const auto before = net_.traffic();
  Visitor v{{}, q.range, q.value_dim, {}, {}};
  receipt.index_nodes_visited = visit_relevant(sink, range_plan(q.range), v);
  receipt.aggregate = v.total.finalize(q.kind);
  receipt.cost() = storage::cost_of(net_.traffic() - before);
  return receipt;
}

void PoolSystem::register_cells(net::NodeId sink, const RangeQuery& q,
                                SubscriptionId id, bool add) {
  struct Visitor : CellVisitor {
    static constexpr net::MessageKind to_splitter() {
      return net::MessageKind::Control;
    }
    static constexpr net::MessageKind to_cell() {
      return net::MessageKind::Control;
    }
    void visit(const CellVisit&, HolderTally&) {}
  };
  const Plan plan = range_plan(q);
  Visitor v;
  visit_relevant(sink, plan, v);
  // The cell tables change whether or not each Control leg arrived: an
  // unsubscribe deletes the subscription record outright, so no cell may
  // keep notifying its id, and subscribe stays its exact inverse.
  for (const PlanStep& s : plan) {
    auto& subs = cell_subs_[cell_key(s.pool_dim, s.off)];
    if (add) {
      subs.push_back(id);
    } else {
      std::erase(subs, id);
    }
  }
}

PoolSystem::SubscriptionId PoolSystem::subscribe(net::NodeId sink,
                                                 const RangeQuery& q) {
  if (q.dims() != dims_)
    throw ConfigError("PoolSystem: subscription dimensionality mismatch");
  const SubscriptionId id = next_subscription_++;
  subscriptions_.emplace(id, Subscription{sink, q, {}});
  register_cells(sink, q, id, /*add=*/true);
  return id;
}

void PoolSystem::unsubscribe(SubscriptionId id) {
  const auto it = subscriptions_.find(id);
  if (it == subscriptions_.end()) return;
  register_cells(it->second.sink, it->second.query, id, /*add=*/false);
  subscriptions_.erase(it);
}

std::vector<PoolSystem::Notification> PoolSystem::take_notifications(
    SubscriptionId id) {
  std::vector<Notification> out;
  const auto it = subscriptions_.find(id);
  if (it == subscriptions_.end()) return out;
  for (storage::Event& e : it->second.pending)
    out.push_back({id, std::move(e)});
  it->second.pending.clear();
  return out;
}

std::size_t PoolSystem::expire_before(double cutoff) {
  std::size_t primaries_removed = 0;
  for (auto& cell : cells_) {
    cell.erase_if([&](std::size_t row) {
      if (cell.time_at(row) >= cutoff) return false;
      --net_.node_mut(cell.holder_at(row)).stored_events;
      if (cell.replica_at(row)) {
        --replica_count_;
      } else {
        ++primaries_removed;
      }
      return true;
    });
  }
  stored_count_ -= primaries_removed;
  return primaries_removed;
}

std::size_t PoolSystem::cell_load(std::size_t pool_dim,
                                  CellOffset offset) const {
  return cells_[cell_key(pool_dim, offset)].size();
}

PoolSystem::SurvivabilityReport PoolSystem::survivability(
    const std::vector<net::NodeId>& dead_nodes) const {
  std::vector<char> dead(net_.size(), 0);
  for (const net::NodeId n : dead_nodes) {
    POOLNET_ASSERT(n < net_.size());
    dead[n] = 1;
  }
  // Per event id: did the primary die, does any mirror survive?
  std::unordered_map<std::uint64_t, std::pair<bool, bool>> state;
  state.reserve(stored_count_);
  for (const auto& cell : cells_) {
    for (std::size_t row = 0; row < cell.size(); ++row) {
      auto& [primary_dead, mirror_alive] = state[cell.id_at(row)];
      if (cell.replica_at(row)) {
        if (!dead[cell.holder_at(row)]) mirror_alive = true;
      } else {
        primary_dead = dead[cell.holder_at(row)] != 0;
      }
    }
  }
  SurvivabilityReport report;
  report.total_events = state.size();
  for (const auto& [id, s] : state) {
    if (!s.first) continue;  // primary survived
    ++report.primaries_lost;
    if (s.second) {
      ++report.recovered;
    } else {
      ++report.lost;
    }
  }
  return report;
}

std::uint64_t PoolSystem::max_node_load() const {
  std::uint64_t mx = 0;
  for (const auto& n : net_.nodes()) mx = std::max(mx, n.stored_events);
  return mx;
}

}  // namespace poolnet::core
