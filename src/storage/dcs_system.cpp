#include "storage/dcs_system.h"

#include <utility>

#include "common/error.h"

namespace poolnet::storage {

namespace {

/// Records `r` as a request that ran alone: its visits count as both
/// serial and unique, since nothing was shared.
void fold_alone(BatchQueryReceipt& batch, QueryReceipt r, QueryReceipt& slot) {
  batch += r;  // ResultReceipt::+= folds cost and visits together
  batch.serial_cell_visits += r.index_nodes_visited;
  batch.unique_cell_visits += r.index_nodes_visited;
  slot = std::move(r);
}

}  // namespace

void DcsSystem::validate(const QueryRequest& request) const {
  if (request.dims() != dims())
    throw ConfigError(name() + ": request dimensionality mismatch");
  if (request.cls() == QueryClass::Aggregate &&
      request.aggregate().value_dim >= dims())
    throw ConfigError(name() + ": aggregate dimension out of range");
  if (request.cls() == QueryClass::KNearest &&
      !(request.k_nearest().initial_radius >= 0.0))
    throw ConfigError(name() + ": k-NN initial radius must not be negative");
  if (request.cls() == QueryClass::KNearest && request.k_nearest().k == 0)
    throw ConfigError(name() + ": k-NN needs k >= 1");
}

QueryReceipt DcsSystem::dispatch(net::NodeId sink,
                                 const QueryRequest& request) {
  switch (request.cls()) {
    case QueryClass::Range:
      return query(sink, request.range());
    case QueryClass::Skyline:
      return skyline(sink, request.skyline());
    case QueryClass::KNearest:
      return k_nearest(sink, request.k_nearest());
    case QueryClass::Aggregate:
      return aggregate(sink, request.aggregate());
  }
  return {};
}

QueryReceipt DcsSystem::execute(net::NodeId sink, const QueryRequest& request) {
  validate(request);
  return dispatch(sink, request);
}

BatchQueryReceipt DcsSystem::execute_batch(
    net::NodeId sink, const std::vector<QueryRequest>& requests) {
  for (const QueryRequest& r : requests) validate(r);

  BatchQueryReceipt batch;
  batch.per_query.resize(requests.size());
  std::vector<std::size_t> ranges;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].cls() == QueryClass::Range)
      ranges.push_back(i);
    else
      fold_alone(batch, dispatch(sink, requests[i]), batch.per_query[i]);
  }
  // One range gains nothing from merging; it runs alone so its receipt
  // stays exact.
  if (ranges.size() == 1)
    fold_alone(batch, query(sink, requests[ranges[0]].range()),
               batch.per_query[ranges[0]]);
  if (ranges.size() < 2) return batch;

  std::vector<RangeQuery> queries;
  queries.reserve(ranges.size());
  for (const std::size_t i : ranges) queries.push_back(requests[i].range());
  BatchQueryReceipt merged = merge_ranges(sink, queries);
  batch += merged;
  batch.serial_cell_visits += merged.serial_cell_visits;
  batch.unique_cell_visits += merged.unique_cell_visits;
  batch.messages_saved += merged.messages_saved;
  for (std::size_t k = 0; k < ranges.size(); ++k)
    batch.per_query[ranges[k]] = std::move(merged.per_query[k]);
  return batch;
}

BatchQueryReceipt DcsSystem::merge_ranges(
    net::NodeId sink, const std::vector<RangeQuery>& queries) {
  BatchQueryReceipt batch;
  batch.per_query.resize(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i)
    fold_alone(batch, query(sink, queries[i]), batch.per_query[i]);
  return batch;
}

QueryReceipt DcsSystem::skyline(net::NodeId sink, const SkylineQuery& q) {
  // Flood baseline: fetch everything, filter at the sink (local, free).
  QueryReceipt receipt = query(sink, full_space_query(q.dims()));
  skyline_filter(q, receipt.events);
  return receipt;
}

QueryReceipt DcsSystem::k_nearest(net::NodeId sink, const KNearestQuery& q) {
  QueryReceipt receipt = query(sink, full_space_query(q.dims()));
  knn_filter(q, receipt.events);
  receipt.rounds = 1;
  return receipt;
}

}  // namespace poolnet::storage
