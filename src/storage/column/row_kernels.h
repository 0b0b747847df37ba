// The store-local skyline and top-k reductions (DESIGN.md §15, §16).
//
// Every system answers skyline and k-NN by reducing each visited store to
// its local answer, and every sink reduces the union again. Both
// reductions live here, once each, as a core fed either by a ColumnStore's
// rows or by an Event vector:
//
//  * skyline: a sort-filter. One linear pre-pass drops every row that a
//    row of greatest sum dominates; the rest are sorted so that every
//    dominator precedes its victims and tested only against the skyline
//    found so far.
//  * top-k: each row's squared distance is computed once, in
//    squared_distance's accumulation order, and the k best under
//    (distance², id) are selected with a partial sort, keeping the first
//    row of each id.
//
// The Event entry points are storage::skyline_filter and
// storage::knn_filter (query_request.h); the row entry points below return
// row indices, so a store materializes only the rows it replies with.
#pragma once

#include <cstdint>
#include <vector>

#include "storage/column/column_store.h"
#include "storage/query_request.h"

namespace poolnet::storage::column {

/// Replaces `out_rows` with the rows of `store` that no other considered
/// row dominates on `q`'s attributes, in ascending row order. Equal rows
/// are mutually non-dominated and all stay. `skip_replicas` leaves replica
/// rows out entirely (Pool's primary-only cells; a no-op without meta).
void skyline_rows(const ColumnStore& store, const SkylineQuery& q,
                  bool skip_replicas, std::vector<std::uint32_t>& out_rows);

/// Replaces `out_rows` with the rows of the `q.k` events nearest to
/// `q.target`, ordered by (squared distance, id) ascending with the first
/// row of each id kept — knn_filter's answer over the store's events.
void knn_rows(const ColumnStore& store, const KNearestQuery& q,
              bool skip_replicas, std::vector<std::uint32_t>& out_rows);

}  // namespace poolnet::storage::column
