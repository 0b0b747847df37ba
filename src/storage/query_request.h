// The unified query surface: Range | Skyline | KNearest | Aggregate
// (DESIGN.md §15).
//
// The paper's engine answers rectangle queries only, but its relevant-cell
// machinery (Theorem 3.2) prunes any query whose answer can veto regions of
// attribute space: a skyline query never visits a cell whose best corner is
// already dominated, and a k-NN query stops expanding once the k-th best
// distance is inside the searched shell. An aggregate (Section 3.2.3) walks
// the same relevant cells as its range and only merges partials on the way
// back. Every class is a case of one QueryRequest variant, and
// DcsSystem::execute() is the one entry point that answers it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <variant>
#include <vector>

#include "common/fixed_vec.h"
#include "storage/aggregate.h"
#include "storage/event.h"
#include "storage/range_query.h"

namespace poolnet::storage {

/// The query classes the unified surface answers. Values are stable:
/// new classes append, so per-class arrays indexed by them stay valid.
enum class QueryClass : std::uint8_t { Range, Skyline, KNearest, Aggregate };

const char* to_string(QueryClass c);

/// Skyline query over a chosen attribute subset, maximizing convention:
/// `a` dominates `b` iff a >= b on every selected attribute and a > b on
/// at least one. The answer is every stored event no other stored event
/// dominates. Ties (equal on every selected attribute) are mutually
/// non-dominated — both belong to the skyline.
class SkylineQuery {
 public:
  /// Skyline on all `dims` attributes.
  explicit SkylineQuery(std::size_t dims);

  /// Skyline on the attribute subset with `attrs[i] == true`. At least
  /// one attribute must be selected; throws ConfigError otherwise.
  SkylineQuery(std::size_t dims, FixedVec<bool, kMaxDims> attrs);

  std::size_t dims() const { return attrs_.size(); }
  bool on(std::size_t dim) const { return attrs_[dim]; }
  std::size_t attr_count() const;
  const FixedVec<bool, kMaxDims>& attrs() const { return attrs_; }

  /// True when `a` dominates `b` on the selected subset (strictly better
  /// somewhere, never worse anywhere).
  bool dominates(const Values& a, const Values& b) const;

  friend bool operator==(const SkylineQuery& a, const SkylineQuery& b) {
    return a.attrs_ == b.attrs_;
  }

 private:
  FixedVec<bool, kMaxDims> attrs_;
};

/// k-nearest-event query: the k stored events closest to `target` in
/// attribute space (Euclidean).
struct KNearestQuery {
  Values target;       ///< query point, each coordinate in [0, 1]
  std::size_t k = 1;   ///< how many neighbors to return; at least 1

  /// First half-width of the expanding search box; 0 picks the system
  /// default. A schedule knob only — the answer never depends on it.
  double initial_radius = 0.0;

  std::size_t dims() const { return target.size(); }

  friend bool operator==(const KNearestQuery& a, const KNearestQuery& b) {
    return a.target == b.target && a.k == b.k &&
           a.initial_radius == b.initial_radius;
  }
};

/// Aggregate of attribute `value_dim` over the events matching `range`
/// (Section 3.2.3). Storage nodes reply with mergeable partials instead
/// of raw events; the answer lands in QueryReceipt::aggregate.
struct AggregateQuery {
  RangeQuery range;
  AggregateKind kind = AggregateKind::Count;
  std::size_t value_dim = 0;

  std::size_t dims() const { return range.dims(); }

  friend bool operator==(const AggregateQuery&,
                         const AggregateQuery&) = default;
};

/// Squared Euclidean distance between a query target and event values,
/// accumulated in dimension order. Every system computes candidate
/// distances through this one function so float rounding is identical
/// everywhere and k-NN results stay byte-comparable.
double squared_distance(const Values& target, const Values& values);

/// One query of any class. Converting constructors keep call sites that
/// pass a plain RangeQuery compiling unchanged.
class QueryRequest {
 public:
  QueryRequest(RangeQuery q) : req_(std::move(q)) {}          // NOLINT
  QueryRequest(SkylineQuery q) : req_(std::move(q)) {}        // NOLINT
  QueryRequest(KNearestQuery q) : req_(std::move(q)) {}       // NOLINT
  QueryRequest(AggregateQuery q) : req_(std::move(q)) {}      // NOLINT

  QueryClass cls() const {
    return static_cast<QueryClass>(req_.index());
  }
  std::size_t dims() const;

  const RangeQuery& range() const { return std::get<RangeQuery>(req_); }
  const SkylineQuery& skyline() const { return std::get<SkylineQuery>(req_); }
  const KNearestQuery& k_nearest() const {
    return std::get<KNearestQuery>(req_);
  }
  const AggregateQuery& aggregate() const {
    return std::get<AggregateQuery>(req_);
  }

  friend bool operator==(const QueryRequest& a, const QueryRequest& b) {
    return a.req_ == b.req_;
  }

 private:
  std::variant<RangeQuery, SkylineQuery, KNearestQuery, AggregateQuery> req_;
};

std::ostream& operator<<(std::ostream& os, const QueryRequest& r);

// ---- Canonical reference algorithms -----------------------------------
//
// Every system reduces its distributed answer to these local kernels at
// the sink, so cross-system results are byte-identical by construction.
// skyline_filter and knn_filter are the Event-vector entry points of the
// same cores the stores run over their rows (storage/column/row_kernels.h).

/// Filters `candidates` down to its skyline, canonically ordered by
/// ascending event id (input order among equal ids). A sort-filter:
/// O(n log n) to order the candidates, then each is tested only against
/// the skyline found so far.
void skyline_filter(const SkylineQuery& q, std::vector<Event>& candidates);

/// True when no event in `collected` dominates `values`.
bool skyline_admits(const SkylineQuery& q, std::span<const Event> collected,
                    const Values& values);

/// The best-corner-first visit order of a fixed set of value boxes, one
/// per selected-attribute mask. A unit (a Pool cell, a DIM leaf) is
/// represented by its corner, the top of its box: the best point any
/// event stored there can have. A skyline query visits units by
/// descending Σ corner[d] over its selected d, ties in unit order, so
/// collected points veto later (worse-cornered) units outright. Boxes
/// never move after build, so the order depends on the mask alone; each
/// mask's order is built on its first query and kept.
class CornerOrder {
 public:
  CornerOrder() = default;

  /// `corners` holds `dims` values per unit, units in tie-break order.
  CornerOrder(std::size_t dims, std::vector<double> corners);

  bool empty() const { return corners_.empty(); }

  /// Unit `unit`'s corner.
  Values corner(std::size_t unit) const;

  /// The units in visit order for `q`'s mask. `q.dims()` must equal the
  /// corners' dims. Builds at most 2^dims − 1 orders over its lifetime.
  const std::vector<std::uint32_t>& order(const SkylineQuery& q);

 private:
  std::size_t dims_ = 0;
  std::vector<double> corners_;  ///< unit-major, flat
  /// Indexed by mask; an empty order is not built yet.
  std::vector<std::vector<std::uint32_t>> orders_;
};

/// Reduces `candidates` to the k nearest to `q.target`, ordered by
/// (squared distance, id) ascending — nearest first, deterministic ties.
/// The first candidate of each id is kept; a partial sort selects them.
void knn_filter(const KNearestQuery& q, std::vector<Event>& candidates);

/// The squared distance of the current k-th best in a knn_filter-ordered
/// candidate list, or +infinity while fewer than k are held. The search
/// may stop expanding once this is <= the covered shell radius squared.
/// Requires k >= 1 (DcsSystem::execute rejects k = 0).
double knn_kth_distance2(const KNearestQuery& q,
                         const std::vector<Event>& candidates);

/// The full-space rectangle ([0,1] per dimension) — the flood baseline
/// every class falls back to on systems without a pruning override.
RangeQuery full_space_query(std::size_t dims);

/// A centered box query of half-width `radius` around `target`, clamped
/// to [0,1] per dimension: one shell of the expanding k-NN search.
RangeQuery box_around(const Values& target, double radius);

}  // namespace poolnet::storage
