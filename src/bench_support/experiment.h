// Paired experiment runner and plain-text series output.
//
// Every figure bench follows the same shape: generate a batch of queries,
// run each against Pool and DIM from the same random sink, check both
// result sets against the oracle, and report mean message counts — the
// paper's metric — side by side.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "bench_support/testbed.h"
#include "sim/stats.h"
#include "storage/range_query.h"

namespace poolnet::benchsup {

/// Exact integer sum over a query batch. Merging adds sums, so the merged
/// mean is one division however the batch was split across seeds or
/// threads.
struct Tally {
  std::uint64_t sum = 0, n = 0;
  void add(std::uint64_t x) {
    sum += x;
    ++n;
  }
  void merge(const Tally& other) {
    sum += other.sum;
    n += other.n;
  }
  std::uint64_t count() const { return n; }
  double mean() const {
    return n ? static_cast<double>(sum) / static_cast<double>(n) : 0.0;
  }
};

/// Per-system aggregates over a query batch.
struct SystemQueryStats {
  Tally messages;              ///< total per-hop messages per query
  Tally query_messages;        ///< forwarding legs
  Tally reply_messages;        ///< retrieval legs
  Tally index_nodes;           ///< storage nodes visited
  Tally results;               ///< qualifying events returned
  sim::RunningStat energy_mj;  ///< radio energy per query, millijoules
};

struct PairedRun {
  SystemQueryStats pool;
  SystemQueryStats dim;
  std::size_t queries = 0;
  std::size_t pool_mismatches = 0;  ///< Pool result set != oracle (must be 0)
  std::size_t dim_mismatches = 0;   ///< DIM result set != oracle (must be 0)
};

/// Runs every query against both systems from the same per-query sink and
/// validates both result sets against the oracle.
PairedRun run_paired_queries(Testbed& testbed,
                             const std::vector<storage::RangeQuery>& queries,
                             std::uint64_t sink_seed);

/// N queries from a generator callback.
std::vector<storage::RangeQuery> generate_queries(
    std::size_t n, const std::function<storage::RangeQuery()>& make);

/// Merges per-seed stats into cross-seed aggregates.
void merge_into(PairedRun& into, const PairedRun& from);

/// Fixed-width text table, column widths from headers and cells.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  void print() const;  // to stdout
  void print(std::ostream& out) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `prec` decimals.
std::string fmt(double v, int prec = 1);

/// Standard bench banner: experiment id + settings line.
void print_banner(const std::string& experiment,
                  const std::string& description);

}  // namespace poolnet::benchsup
