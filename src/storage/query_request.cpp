#include "storage/query_request.h"

#include <algorithm>
#include <limits>
#include <ostream>
#include <utility>

#include "common/assert.h"
#include "common/error.h"

namespace poolnet::storage {

const char* to_string(QueryClass c) {
  switch (c) {
    case QueryClass::Range:
      return "range";
    case QueryClass::Skyline:
      return "skyline";
    case QueryClass::KNearest:
      return "knn";
    case QueryClass::Aggregate:
      return "aggregate";
  }
  return "?";
}

SkylineQuery::SkylineQuery(std::size_t dims) {
  if (dims == 0 || dims > kMaxDims)
    throw ConfigError("SkylineQuery: bad dimensionality");
  attrs_.resize(dims, true);
}

SkylineQuery::SkylineQuery(std::size_t dims, FixedVec<bool, kMaxDims> attrs)
    : attrs_(attrs) {
  if (dims == 0 || dims > kMaxDims || attrs.size() != dims)
    throw ConfigError("SkylineQuery: bad dimensionality");
  if (attr_count() == 0)
    throw ConfigError("SkylineQuery: no attributes selected");
}

std::size_t SkylineQuery::attr_count() const {
  std::size_t n = 0;
  for (std::size_t d = 0; d < attrs_.size(); ++d) n += attrs_[d] ? 1 : 0;
  return n;
}

bool SkylineQuery::dominates(const Values& a, const Values& b) const {
  bool strict = false;
  for (std::size_t d = 0; d < attrs_.size(); ++d) {
    if (!attrs_[d]) continue;
    if (a[d] < b[d]) return false;
    if (a[d] > b[d]) strict = true;
  }
  return strict;
}

double squared_distance(const Values& target, const Values& values) {
  double d2 = 0.0;
  for (std::size_t d = 0; d < target.size(); ++d) {
    const double diff = target[d] - values[d];
    d2 += diff * diff;
  }
  return d2;
}

std::size_t QueryRequest::dims() const {
  switch (cls()) {
    case QueryClass::Range:
      return range().dims();
    case QueryClass::Skyline:
      return skyline().dims();
    case QueryClass::KNearest:
      return k_nearest().dims();
    case QueryClass::Aggregate:
      return aggregate().dims();
  }
  return 0;
}

std::ostream& operator<<(std::ostream& os, const QueryRequest& r) {
  switch (r.cls()) {
    case QueryClass::Range:
      return os << r.range();
    case QueryClass::Skyline: {
      os << "skyline on {";
      bool first = true;
      for (std::size_t d = 0; d < r.skyline().dims(); ++d) {
        if (!r.skyline().on(d)) continue;
        os << (first ? "" : ",") << 'a' << d;
        first = false;
      }
      return os << '}';
    }
    case QueryClass::KNearest: {
      os << "nearest " << r.k_nearest().k << " to (";
      for (std::size_t d = 0; d < r.k_nearest().dims(); ++d)
        os << (d ? "," : "") << r.k_nearest().target[d];
      return os << ')';
    }
    case QueryClass::Aggregate:
      return os << to_string(r.aggregate().kind) << " of a"
                << r.aggregate().value_dim << " over " << r.aggregate().range;
  }
  return os;
}

bool skyline_admits(const SkylineQuery& q, std::span<const Event> collected,
                    const Values& values) {
  for (const Event& e : collected)
    if (q.dominates(e.values, values)) return false;
  return true;
}

CornerOrder::CornerOrder(std::size_t dims, std::vector<double> corners)
    : dims_(dims), corners_(std::move(corners)) {
  POOLNET_ASSERT(dims > 0 && dims <= kMaxDims);
  POOLNET_ASSERT(corners_.size() % dims == 0);
}

Values CornerOrder::corner(std::size_t unit) const {
  const double* c = corners_.data() + unit * dims_;
  Values v;
  for (std::size_t d = 0; d < dims_; ++d) v.push_back(c[d]);
  return v;
}

const std::vector<std::uint32_t>& CornerOrder::order(const SkylineQuery& q) {
  POOLNET_ASSERT(q.dims() == dims_);
  std::size_t mask = 0;
  for (std::size_t d = 0; d < dims_; ++d)
    if (q.on(d)) mask |= std::size_t{1} << d;
  if (orders_.empty()) orders_.resize(std::size_t{1} << dims_);
  std::vector<std::uint32_t>& order = orders_[mask];
  if (!order.empty() || corners_.empty()) return order;

  const std::size_t units = corners_.size() / dims_;
  std::vector<double> key(units, 0.0);
  for (std::size_t u = 0; u < units; ++u)
    for (std::size_t d = 0; d < dims_; ++d)
      if (q.on(d)) key[u] += corners_[u * dims_ + d];
  order.resize(units);
  for (std::size_t u = 0; u < units; ++u)
    order[u] = static_cast<std::uint32_t>(u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return key[a] > key[b];
                   });
  return order;
}

double knn_kth_distance2(const KNearestQuery& q,
                         const std::vector<Event>& candidates) {
  POOLNET_ASSERT(q.k > 0);  // execute() rejects k = 0
  if (candidates.size() < q.k)
    return std::numeric_limits<double>::infinity();
  return squared_distance(q.target, candidates[q.k - 1].values);
}

RangeQuery full_space_query(std::size_t dims) {
  RangeQuery::Bounds bounds;
  for (std::size_t d = 0; d < dims; ++d)
    bounds.push_back(ClosedInterval{0.0, 1.0});
  return RangeQuery(bounds);
}

RangeQuery box_around(const Values& target, double radius) {
  RangeQuery::Bounds bounds;
  for (std::size_t d = 0; d < target.size(); ++d) {
    bounds.push_back(ClosedInterval{std::max(0.0, target[d] - radius),
                                    std::min(1.0, target[d] + radius)});
  }
  return RangeQuery(bounds);
}

}  // namespace poolnet::storage
