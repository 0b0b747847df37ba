// Scalar-vs-kernel equivalence for the columnar scan path (DESIGN.md §14).
//
// The two-step kernel (zone-map block veto, then branch-free selection
// bitmap) must visit exactly the rows the naive per-row predicate
// (RangeQuery::matches) accepts, in insertion order — on every store that
// runs it: the raw ColumnStore, Pool cells, DIM leaves, GHT home stores,
// the central oracle, and the paged page-layout twin. Randomized sweeps
// cover dims 1..5, block-boundary sizes (0, 1, kBlockRows±1), and the
// edge cases the bitmap math is most likely to get wrong: bounds landing
// exactly on stored values, values at the domain extremes, duplicated
// attribute values, and tail words narrower than 64 rows.
#include "storage/column/column_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bench_support/testbed.h"
#include "common/rng.h"
#include "ght/ght_system.h"
#include "connected_network.h"
#include "query/query_gen.h"
#include "routing/gpsr.h"
#include "storage/brute_force_store.h"
#include "storage/paged/paged_store.h"
#include "storage/range_query.h"

namespace poolnet::storage::column {
namespace {

Event make_event(std::uint64_t id, const std::vector<double>& vals,
                 double t = 0.0) {
  Event e;
  e.id = id;
  e.source = static_cast<net::NodeId>(id % 97);
  e.detected_at = t;
  for (const double v : vals) e.values.push_back(v);
  return e;
}

/// Ground truth: every row whose event RangeQuery::matches accepts, in
/// row (= insertion) order.
std::vector<std::size_t> scalar_rows(const ColumnStore& cs,
                                     const RangeQuery& q,
                                     bool skip_replicas = false) {
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < cs.size(); ++r) {
    if (skip_replicas && cs.replica_at(r)) continue;
    if (q.matches(cs.event_at(r))) rows.push_back(r);
  }
  return rows;
}

std::vector<std::size_t> kernel_rows(const ColumnStore& cs,
                                     const RangeQuery& q,
                                     bool skip_replicas = false) {
  std::vector<std::size_t> rows;
  cs.scan(q, skip_replicas, [&](std::size_t r) { rows.push_back(r); });
  return rows;
}

RangeQuery random_query(Rng& rng, std::size_t dims) {
  RangeQuery::Bounds bounds;
  for (std::size_t d = 0; d < dims; ++d) {
    double a = rng.uniform();
    double b = rng.uniform();
    if (a > b) std::swap(a, b);
    bounds.push_back({a, b});
  }
  return RangeQuery(bounds);
}

/// A query whose bounds sit exactly on stored attribute values — the
/// >=/<= closed-interval edges the branch-free predicate must keep.
RangeQuery pinned_query(const ColumnStore& cs, Rng& rng) {
  const std::size_t lo_row =
      static_cast<std::size_t>(rng.uniform_int(0, cs.size() - 1));
  const std::size_t hi_row =
      static_cast<std::size_t>(rng.uniform_int(0, cs.size() - 1));
  RangeQuery::Bounds bounds;
  for (std::size_t d = 0; d < cs.dims(); ++d) {
    double a = cs.value_at(lo_row, d);
    double b = cs.value_at(hi_row, d);
    if (a > b) std::swap(a, b);
    bounds.push_back({a, b});
  }
  return RangeQuery(bounds);
}

TEST(ColumnStoreKernel, MatchesScalarAcrossDimsSizesSeeds) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    for (std::size_t dims = 1; dims <= 5; ++dims) {
      for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                  kBlockRows - 1, kBlockRows, kBlockRows + 1,
                                  3 * kBlockRows + 17}) {
        Rng rng(seed * 1000003 + dims * 131 + n);
        ColumnStore cs(dims);
        for (std::size_t i = 0; i < n; ++i) {
          std::vector<double> vals;
          for (std::size_t d = 0; d < dims; ++d) vals.push_back(rng.uniform());
          cs.append(make_event(i, vals));
        }
        for (int qi = 0; qi < 8; ++qi) {
          const RangeQuery q = random_query(rng, dims);
          EXPECT_EQ(kernel_rows(cs, q), scalar_rows(cs, q))
              << "seed=" << seed << " dims=" << dims << " n=" << n;
        }
        if (n > 0) {
          for (int qi = 0; qi < 4; ++qi) {
            const RangeQuery q = pinned_query(cs, rng);
            EXPECT_EQ(kernel_rows(cs, q), scalar_rows(cs, q))
                << "pinned seed=" << seed << " dims=" << dims << " n=" << n;
          }
        }
      }
    }
  }
}

TEST(ColumnStoreKernel, EdgeValuesAndDuplicatedAttributes) {
  // Values at the domain extremes, runs of identical values, and events
  // whose attributes duplicate each other across dimensions.
  ColumnStore cs(3);
  std::uint64_t id = 0;
  for (std::size_t rep = 0; rep < kBlockRows + 5; ++rep) {
    cs.append(make_event(id++, {0.0, 0.0, 0.0}));
    cs.append(make_event(id++, {1.0, 1.0, 1.0}));
    cs.append(make_event(id++, {0.5, 0.5, 0.5}));
    cs.append(make_event(id++, {0.25, 0.5, 0.25}));
  }
  Rng rng(99);
  const RangeQuery queries[] = {
      RangeQuery({{0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}}),  // point at min
      RangeQuery({{1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}}),  // point at max
      RangeQuery({{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}}),  // duplicated point
      RangeQuery({{0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0}}),  // everything
      RangeQuery({{0.25, 0.5}, {0.5, 0.5}, {0.25, 0.25}}),
      RangeQuery({{0.0, 0.49}, {0.0, 0.49}, {0.0, 0.49}}),
      random_query(rng, 3),
  };
  for (const auto& q : queries)
    EXPECT_EQ(kernel_rows(cs, q), scalar_rows(cs, q)) << q;

  // Empty store: the ±inf zone-map identity must veto every block (there
  // are none) without the kernel visiting anything.
  ColumnStore empty(3);
  for (const auto& q : queries) EXPECT_TRUE(kernel_rows(empty, q).empty());
}

TEST(ColumnStoreKernel, ReplicaSkippingMatchesScalar) {
  Rng rng(2024);
  ColumnStore cs(2, /*with_meta=*/true);
  for (std::size_t i = 0; i < 2 * kBlockRows + 31; ++i) {
    const bool replica = rng.uniform() < 0.4;
    cs.append(make_event(i, {rng.uniform(), rng.uniform()}),
              static_cast<net::NodeId>(i % 13), replica);
  }
  for (int qi = 0; qi < 16; ++qi) {
    const RangeQuery q = random_query(rng, 2);
    EXPECT_EQ(kernel_rows(cs, q, true), scalar_rows(cs, q, true));
    EXPECT_EQ(kernel_rows(cs, q, false), scalar_rows(cs, q, false));
  }
}

TEST(ColumnStoreKernel, EraseIfCompactsStablyAndRebuildsZoneMaps) {
  Rng rng(7);
  ColumnStore cs(3);
  std::vector<Event> reference;
  for (std::size_t i = 0; i < 2 * kBlockRows + 9; ++i) {
    const Event e = make_event(
        i, {rng.uniform(), rng.uniform(), rng.uniform()}, rng.uniform());
    cs.append(e);
    reference.push_back(e);
  }
  // Drop a pseudo-random subset; survivors must keep insertion order.
  const auto drop = [](std::uint64_t id) { return id % 3 == 1; };
  const std::size_t removed = cs.erase_if(
      [&](std::size_t row) { return drop(cs.id_at(row)); });
  std::vector<Event> expect;
  for (const Event& e : reference)
    if (!drop(e.id)) expect.push_back(e);
  ASSERT_EQ(removed, reference.size() - expect.size());
  ASSERT_EQ(cs.size(), expect.size());
  for (std::size_t r = 0; r < cs.size(); ++r)
    EXPECT_EQ(cs.event_at(r), expect[r]);
  // Zone maps were rebuilt over survivors: the kernel still agrees with
  // the scalar predicate on fresh queries.
  for (int qi = 0; qi < 8; ++qi) {
    const RangeQuery q = random_query(rng, 3);
    EXPECT_EQ(kernel_rows(cs, q), scalar_rows(cs, q));
  }
}

TEST(ColumnStoreKernel, ZoneMapsSkipDisjointBlocks) {
  // Two value clusters a block apart: a query inside one cluster must
  // skip the other cluster's blocks outright.
  ColumnStore cs(2);
  ScanStats stats;
  cs.set_stats(&stats);
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < kBlockRows; ++i)
    cs.append(make_event(id++, {0.1, 0.1}));
  for (std::size_t i = 0; i < kBlockRows; ++i)
    cs.append(make_event(id++, {0.9, 0.9}));
  const RangeQuery q({{0.85, 0.95}, {0.85, 0.95}});
  const auto rows = kernel_rows(cs, q);
  EXPECT_EQ(rows.size(), kBlockRows);
  EXPECT_EQ(stats.blocks_skipped, 1u);
  EXPECT_EQ(stats.rows_scanned, kBlockRows);
  EXPECT_GT(stats.bytes_touched, 0u);
}

// ------------------------------------------------------------- the systems

std::vector<std::uint64_t> ids(const std::vector<Event>& evs) {
  std::vector<std::uint64_t> out;
  out.reserve(evs.size());
  for (const auto& e : evs) out.push_back(e.id);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SystemScanEquivalence, PoolAndDimAgreeWithOracle) {
  benchsup::TestbedConfig config;
  config.nodes = 250;
  config.seed = 61;
  benchsup::Testbed tb(config);
  tb.insert_workload();
  Rng rng(62);
  query::QueryGenerator qgen({.dims = 3}, 63);
  for (int i = 0; i < 24; ++i) {
    const RangeQuery q = i % 3 == 2 ? qgen.partial_range(1)
                                    : qgen.exact_range();
    const auto oracle = ids(tb.oracle().matching(q));
    const auto sink = tb.random_node(rng);
    EXPECT_EQ(ids(tb.pool().execute(sink, q).events), oracle) << q;
    EXPECT_EQ(ids(tb.dim().execute(sink, q).events), oracle) << q;
  }
}

TEST(SystemScanEquivalence, GhtAgreesWithOracle) {
  const std::size_t n = 200;
  const auto network = connected_network(71, n);
  routing::Gpsr gpsr(*network);
  ght::GhtSystem ght(*network, gpsr, 3);
  BruteForceStore oracle(3);
  Rng rng(72);
  for (std::uint64_t i = 0; i < 600; ++i) {
    const Event e = make_event(
        i, {rng.uniform(), rng.uniform(), rng.uniform()});
    ght.insert(e.source, e);
    oracle.insert(e.source, e);
  }
  query::QueryGenerator qgen({.dims = 3}, 73);
  for (int i = 0; i < 24; ++i) {
    const RangeQuery q = i % 3 == 2 ? qgen.partial_range(1)
                                    : qgen.exact_range();
    EXPECT_EQ(ids(ght.execute(0, q).events), ids(oracle.matching(q))) << q;
  }
}

TEST(SystemScanEquivalence, PagedStoreMatchesOracleByteIdentically) {
  // The page-layout twin of the kernel, over block-boundary sizes and a
  // page small enough to force multi-page chains.
  for (std::size_t dims = 1; dims <= 5; ++dims) {
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, kBlockRows, kBlockRows + 1}) {
      PagedStoreOptions opt;
      opt.page_bytes = 256;  // a handful of records per page
      opt.pool_pages = 4;
      PagedStore paged(dims, opt);
      BruteForceStore oracle(dims);
      Rng rng(dims * 1009 + n);
      for (std::uint64_t i = 0; i < n; ++i) {
        std::vector<double> vals;
        for (std::size_t d = 0; d < dims; ++d) vals.push_back(rng.uniform());
        const Event e = make_event(i, vals);
        paged.insert(e.source, e);
        oracle.insert(e.source, e);
      }
      for (int qi = 0; qi < 8; ++qi) {
        const RangeQuery q = random_query(rng, dims);
        // Byte-identical: same events, same (ascending-id) order.
        EXPECT_EQ(paged.matching(q), oracle.matching(q))
            << "dims=" << dims << " n=" << n;
      }
      EXPECT_EQ(paged.matching(RangeQuery(RangeQuery::Bounds(
                    dims, ClosedInterval{0.0, 1.0}))),
                oracle.all());
    }
  }
}

}  // namespace
}  // namespace poolnet::storage::column
