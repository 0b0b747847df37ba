// The poolnetd query language: a small text form for the paper's
// multi-dimensional range queries, the derived query classes, and event
// insertions.
//
//   SELECT WHERE a0 IN [0.2, 0.5] AND a2 IN [0.1, 0.9]
//   SELECT                                  (every dimension a don't-care)
//   SELECT SKYLINE ON a0, a2                (maximal events on a0 and a2)
//   SELECT SKYLINE                          (skyline on every attribute)
//   SELECT NEAREST 5 TO (0.3, 0.7, 0.1)     (5 nearest stored events)
//   SELECT NEAREST 5 TO (0.3, 0.7, 0.1) WITHIN 0.2   (initial search ring)
//   INSERT VALUES (0.12, 0.5, 0.98)
//
// Keywords are case-insensitive; attribute names are a0..a<k-1> where k
// is the deployment's dimensionality. Dimensions a SELECT does not
// mention are unspecified — the paper's '*' — so the four query types of
// Section 2 are all expressible. Bounds and values must lie in [0, 1]
// (the normalized attribute space); violations are parse errors, not
// silent clamps, so a client always learns its query was malformed.
#pragma once

#include <string>

#include "storage/event.h"
#include "storage/query_request.h"
#include "storage/range_query.h"

namespace poolnet::server {

/// Parses any SELECT statement — range, SKYLINE or NEAREST — against a
/// `dims`-dimensional deployment. On failure returns false and sets
/// `error` to a client-displayable message (also the payload of the
/// resulting ERROR frame).
bool parse_query(const std::string& text, std::size_t dims,
                 storage::QueryRequest* out, std::string* error);

/// Parses a range SELECT statement (the pre-QueryRequest entry point;
/// SKYLINE/NEAREST statements are errors here).
bool parse_select(const std::string& text, std::size_t dims,
                  storage::RangeQuery* out, std::string* error);

/// Parses `INSERT VALUES (v0, ..., v<k-1>)`; exactly `dims` values, each
/// in [0, 1].
bool parse_insert(const std::string& text, std::size_t dims,
                  storage::Values* out, std::string* error);

/// Formats a RangeQuery as SELECT text that parses back to an equal
/// query (bounds print with max_digits10, so the doubles round-trip
/// exactly). The load generator uses this to feed generated workloads
/// through the server's text path.
std::string to_select_text(const storage::RangeQuery& query);

/// Formats a QueryRequest as SELECT text that parse_query() maps back
/// to an equal request. Aggregates are not in the grammar: throws
/// ConfigError for them.
std::string to_query_text(const storage::QueryRequest& request);

}  // namespace poolnet::server
