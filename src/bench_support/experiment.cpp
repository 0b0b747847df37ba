#include "bench_support/experiment.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace poolnet::benchsup {

namespace {

/// Sorted event-id signature of a result set; order-insensitive equality.
std::vector<std::uint64_t> signature(const std::vector<storage::Event>& evs) {
  std::vector<std::uint64_t> ids;
  ids.reserve(evs.size());
  for (const auto& e : evs) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

void record(SystemQueryStats& stats, const storage::QueryReceipt& r,
            double energy_delta_j) {
  stats.messages.add(r.messages);
  stats.query_messages.add(r.query_messages);
  stats.reply_messages.add(r.reply_messages);
  stats.index_nodes.add(r.index_nodes_visited);
  stats.results.add(r.events.size());
  stats.energy_mj.add(energy_delta_j * 1e3);
}

void merge_system(SystemQueryStats& into, const SystemQueryStats& from) {
  into.messages.merge(from.messages);
  into.query_messages.merge(from.query_messages);
  into.reply_messages.merge(from.reply_messages);
  into.index_nodes.merge(from.index_nodes);
  into.results.merge(from.results);
  into.energy_mj.merge(from.energy_mj);
}

}  // namespace

PairedRun run_paired_queries(Testbed& testbed,
                             const std::vector<storage::RangeQuery>& queries,
                             std::uint64_t sink_seed) {
  PairedRun run;
  Rng sink_rng(sink_seed);
  std::vector<storage::Event> oracle_scratch;  // reused across queries
  for (const auto& q : queries) {
    const net::NodeId sink = testbed.random_node(sink_rng);
    oracle_scratch.clear();
    testbed.oracle().matching_into(q, oracle_scratch);
    const auto oracle_sig = signature(oracle_scratch);

    const double pool_e0 = testbed.pool_network().traffic().energy_j;
    const auto pool_r = testbed.pool().execute(sink, q);
    const double pool_e1 = testbed.pool_network().traffic().energy_j;
    record(run.pool, pool_r, pool_e1 - pool_e0);
    if (signature(pool_r.events) != oracle_sig) ++run.pool_mismatches;

    const double dim_e0 = testbed.dim_network().traffic().energy_j;
    const auto dim_r = testbed.dim().execute(sink, q);
    const double dim_e1 = testbed.dim_network().traffic().energy_j;
    record(run.dim, dim_r, dim_e1 - dim_e0);
    if (signature(dim_r.events) != oracle_sig) ++run.dim_mismatches;

    ++run.queries;
  }
  return run;
}

std::vector<storage::RangeQuery> generate_queries(
    std::size_t n, const std::function<storage::RangeQuery()>& make) {
  std::vector<storage::RangeQuery> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(make());
  return out;
}

void merge_into(PairedRun& into, const PairedRun& from) {
  merge_system(into.pool, from.pool);
  merge_system(into.dim, from.dim);
  into.queries += from.queries;
  into.pool_mismatches += from.pool_mismatches;
  into.dim_mismatches += from.dim_mismatches;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::print() const {
  std::ostringstream out;
  print(out);
  std::fputs(out.str().c_str(), stdout);
}

void TablePrinter::print(std::ostream& out) const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());
  }
  const auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      out << cell << std::string(widths[c] - cell.size() + 2, ' ');
    }
    out << '\n';
  };
  print_row(headers_);
  std::string rule;
  for (const auto w : widths) rule.append(w + 2, '-');
  out << rule << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string fmt(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

void print_banner(const std::string& experiment,
                  const std::string& description) {
  std::printf("\n=== %s ===\n%s\n\n", experiment.c_str(),
              description.c_str());
}

}  // namespace poolnet::benchsup
