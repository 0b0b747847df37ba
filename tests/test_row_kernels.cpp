// The store-local skyline and top-k kernels against independent reference
// code.
//
// skyline_filter / knn_filter (Event vectors) and skyline_rows / knn_rows
// (ColumnStore rows) share one sort-filter skyline core and one
// partial-sort top-k core (storage/column/row_kernels.h). The references
// below share nothing with them: a pairwise dominance scan over every pair
// of rows, and a full sort of every candidate by (squared distance, id,
// input order) keeping the first row of each id. The property tests run
// both over seeded stores drawn to provoke ties — coarse grid values,
// values one ulp apart, identical rows, duplicate ids, replica rows — in
// 1..kMaxDims dimensions, with every attribute subset in 3 dimensions,
// stores from empty to several blocks, and k from 1 past the store size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/column/row_kernels.h"
#include "storage/query_request.h"

namespace poolnet::storage {
namespace {

using column::ColumnStore;

/// One stored row: the event plus Pool's replica flag.
struct Row {
  Event e;
  bool replica = false;
};

// ---- Reference code ---------------------------------------------------

bool ref_dominates(const SkylineQuery& q, const Values& a, const Values& b) {
  bool strict = false;
  for (std::size_t d = 0; d < q.dims(); ++d) {
    if (!q.on(d)) continue;
    if (a[d] < b[d]) return false;
    if (a[d] > b[d]) strict = true;
  }
  return strict;
}

/// The considered rows no other considered row dominates, ascending.
std::vector<std::uint32_t> ref_skyline(const SkylineQuery& q,
                                       const std::vector<Row>& rows,
                                       bool skip_replicas) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (skip_replicas && rows[i].replica) continue;
    bool dominated = false;
    for (std::size_t j = 0; j < rows.size() && !dominated; ++j) {
      if (skip_replicas && rows[j].replica) continue;
      dominated = ref_dominates(q, rows[j].e.values, rows[i].e.values);
    }
    if (!dominated) out.push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

/// Every considered row sorted by (squared distance, id, index); the first
/// row of each id is kept until k are held.
std::vector<std::uint32_t> ref_knn(const KNearestQuery& q,
                                   const std::vector<Row>& rows,
                                   bool skip_replicas) {
  struct Key {
    double d2;
    std::uint64_t id;
    std::uint32_t row;
  };
  std::vector<Key> keys;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (skip_replicas && rows[i].replica) continue;
    keys.push_back({squared_distance(q.target, rows[i].e.values),
                    rows[i].e.id, static_cast<std::uint32_t>(i)});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.d2 != b.d2) return a.d2 < b.d2;
    if (a.id != b.id) return a.id < b.id;
    return a.row < b.row;
  });
  std::vector<std::uint32_t> out;
  std::set<std::uint64_t> seen;
  for (const Key& k : keys) {
    if (out.size() == q.k) break;
    if (seen.insert(k.id).second) out.push_back(k.row);
  }
  return out;
}

// ---- Fixtures ---------------------------------------------------------

std::vector<Event> events_of(const std::vector<Row>& rows) {
  std::vector<Event> out;
  for (const Row& r : rows) out.push_back(r.e);
  return out;
}

std::vector<Event> pick(const std::vector<Row>& rows,
                        const std::vector<std::uint32_t>& at) {
  std::vector<Event> out;
  for (const std::uint32_t i : at) out.push_back(rows[i].e);
  return out;
}

ColumnStore store_of(const std::vector<Row>& rows, std::size_t dims,
                     bool with_meta) {
  ColumnStore cs(dims, with_meta);
  for (const Row& r : rows) {
    if (with_meta)
      cs.append(r.e, net::NodeId{0}, r.replica);
    else
      cs.append(r.e);
  }
  return cs;
}

/// A coordinate drawn to collide: a coarse grid value, one ulp off one, or
/// a uniform draw.
double tie_prone(Rng& rng) {
  const double grid = static_cast<double>(rng.uniform_int(0, 4)) / 4.0;
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return grid;
    case 1:
      return grid < 1.0 ? std::nextafter(grid, 1.0)
                        : std::nextafter(grid, 0.0);
    default:
      return rng.uniform();
  }
}

/// `n` rows in `dims` dimensions: fresh rows, identical copies of earlier
/// rows, earlier ids with new values, and replica rows.
std::vector<Row> random_rows(Rng& rng, std::size_t n, std::size_t dims) {
  std::vector<Row> rows;
  std::uint64_t next_id = 1;
  for (std::size_t i = 0; i < n; ++i) {
    Row r;
    const std::int64_t kind = rows.empty() ? 0 : rng.uniform_int(0, 9);
    if (kind == 1) {  // an identical row
      r.e = rows[static_cast<std::size_t>(
                     rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]
                .e;
    } else {
      for (std::size_t d = 0; d < dims; ++d)
        r.e.values.push_back(tie_prone(rng));
      r.e.id = next_id++;
      if (kind == 2)  // a duplicate id with other values
        r.e.id = rows[static_cast<std::size_t>(rng.uniform_int(
                          0, static_cast<std::int64_t>(i) - 1))]
                     .e.id;
    }
    r.e.source = static_cast<net::NodeId>(i % 7);
    r.replica = rng.bernoulli(0.25);
    rows.push_back(r);
  }
  return rows;
}

/// The attribute subsets to test in `dims` dimensions: every subset in 3,
/// otherwise all attributes plus one random subset.
std::vector<SkylineQuery> subsets(Rng& rng, std::size_t dims) {
  std::vector<SkylineQuery> out;
  if (dims == 3) {
    for (unsigned mask = 1; mask < 8; ++mask) {
      FixedVec<bool, kMaxDims> attrs;
      for (std::size_t d = 0; d < 3; ++d)
        attrs.push_back(((mask >> d) & 1) != 0);
      out.emplace_back(3, attrs);
    }
    return out;
  }
  out.emplace_back(dims);
  FixedVec<bool, kMaxDims> attrs(dims, false);
  attrs[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(dims) - 1))] = true;
  for (std::size_t d = 0; d < dims; ++d)
    if (rng.bernoulli(0.5)) attrs[d] = true;
  out.emplace_back(dims, attrs);
  return out;
}

void expect_skyline_matches(const SkylineQuery& q,
                            const std::vector<Row>& rows,
                            const std::string& where) {
  for (const bool with_meta : {true, false}) {
    const ColumnStore cs = store_of(rows, q.dims(), with_meta);
    for (const bool skip : {true, false}) {
      std::vector<std::uint32_t> got = {999};  // replaced, not appended
      column::skyline_rows(cs, q, skip, got);
      EXPECT_EQ(got, ref_skyline(q, rows, skip && with_meta))
          << where << " meta=" << with_meta << " skip=" << skip;
    }
  }
  // The Event entry point: the same set, ascending by id, input order
  // among equal ids.
  std::vector<Event> got = events_of(rows);
  skyline_filter(q, got);
  std::vector<Event> want = pick(rows, ref_skyline(q, rows, false));
  std::stable_sort(want.begin(), want.end(),
                   [](const Event& a, const Event& b) { return a.id < b.id; });
  EXPECT_EQ(got, want) << where << " skyline_filter";
}

void expect_knn_matches(const KNearestQuery& q, const std::vector<Row>& rows,
                        const std::string& where) {
  for (const bool with_meta : {true, false}) {
    const ColumnStore cs = store_of(rows, q.dims(), with_meta);
    for (const bool skip : {true, false}) {
      std::vector<std::uint32_t> got = {999};
      column::knn_rows(cs, q, skip, got);
      EXPECT_EQ(got, ref_knn(q, rows, skip && with_meta))
          << where << " k=" << q.k << " meta=" << with_meta
          << " skip=" << skip;
    }
  }
  std::vector<Event> got = events_of(rows);
  knn_filter(q, got);
  EXPECT_EQ(got, pick(rows, ref_knn(q, rows, false)))
      << where << " k=" << q.k << " knn_filter";
}

const std::size_t kSizes[] = {0, 1, 2, 7, 60, 300, 700};

TEST(RowKernels, SkylineMatchesPairwiseReference) {
  ASSERT_GT(700u, 2 * column::kBlockRows);
  for (std::size_t dims = 1; dims <= kMaxDims; ++dims) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(seed * 100 + dims);
      for (const std::size_t n : kSizes) {
        const std::vector<Row> rows = random_rows(rng, n, dims);
        for (const SkylineQuery& q : subsets(rng, dims))
          expect_skyline_matches(q, rows,
                                 "dims=" + std::to_string(dims) + " seed=" +
                                     std::to_string(seed) + " n=" +
                                     std::to_string(n));
      }
    }
  }
}

TEST(RowKernels, KnnMatchesFullSortReference) {
  for (std::size_t dims = 1; dims <= kMaxDims; ++dims) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(seed * 1000 + dims);
      for (const std::size_t n : kSizes) {
        const std::vector<Row> rows = random_rows(rng, n, dims);
        KNearestQuery q;
        // Sometimes a stored point, so a zero distance ties several rows.
        if (n > 0 && rng.bernoulli(0.5)) {
          q.target = rows[static_cast<std::size_t>(rng.uniform_int(
                              0, static_cast<std::int64_t>(n) - 1))]
                         .e.values;
        } else {
          for (std::size_t d = 0; d < dims; ++d)
            q.target.push_back(tie_prone(rng));
        }
        for (const std::size_t k : {std::size_t{1}, std::size_t{3}, n,
                                    n + 5}) {
          if (k == 0) continue;  // execute() rejects k = 0
          q.k = k;
          expect_knn_matches(q, rows,
                             "dims=" + std::to_string(dims) + " seed=" +
                                 std::to_string(seed) + " n=" +
                                 std::to_string(n));
        }
      }
    }
  }
}

Row row(std::uint64_t id, std::initializer_list<double> vals,
        bool replica = false) {
  Row r;
  r.e.id = id;
  for (const double v : vals) r.e.values.push_back(v);
  r.replica = replica;
  return r;
}

TEST(RowKernels, CraftedTiesKeepEveryNonDominatedRow) {
  const double up = std::nextafter(0.7, 1.0);
  const double down = std::nextafter(0.6, 0.0);
  const std::vector<Row> rows = {
      row(1, {0.82, 0.61, 0.40}), row(2, {0.82, 0.61, 0.40}),  // identical
      row(3, {0.75, 0.5, 0.25}),  row(4, {0.75, 0.25, 0.5}),   // equal sums
      row(5, {0.75, 0.375, 0.375}),
      // (0.875, 0.5, 2^-60) dominates (0.875, 0.5, 0) yet both round to
      // the sum 1.375.
      row(6, {0.875, 0.5, 0.0}), row(7, {0.875, 0.5, std::ldexp(1.0, -60)}),
      row(8, {0.7, 0.6, 0.5}),  // one ulp apart, each way
      row(9, {up, 0.6, 0.5}), row(10, {0.7, down, 0.5}),
      row(11, {up, down, std::nextafter(0.5, 1.0)}),
      // a replica that dominates everything, seen only without skipping
      row(12, {1.0, 1.0, 1.0}, true)};

  const SkylineQuery all(3);
  const ColumnStore cs = store_of(rows, 3, true);
  std::vector<std::uint32_t> got;
  column::skyline_rows(cs, all, true, got);
  // Id 6 falls to id 7 despite the tied sum, ids 8 and 10 fall to id 9,
  // ids 3 and 5 fall to the identical pair, and both of that pair stay.
  EXPECT_EQ(got, (std::vector<std::uint32_t>{0, 1, 3, 6, 8, 10}));
  column::skyline_rows(cs, all, false, got);
  EXPECT_EQ(got, (std::vector<std::uint32_t>{11}));
  for (unsigned mask = 1; mask < 8; ++mask) {
    FixedVec<bool, kMaxDims> attrs;
    for (std::size_t d = 0; d < 3; ++d) attrs.push_back(((mask >> d) & 1) != 0);
    expect_skyline_matches(SkylineQuery(3, attrs), rows,
                           "mask=" + std::to_string(mask));
  }

  // k-NN ties: the identical pair at distance zero come back by id.
  KNearestQuery q;
  q.target = rows[0].e.values;
  q.k = 2;
  column::knn_rows(cs, q, true, got);
  EXPECT_EQ(got, (std::vector<std::uint32_t>{0, 1}));
  for (const std::size_t k : {1, 2, 5, 11, 12, 40}) {
    q.k = k;
    expect_knn_matches(q, rows, "crafted");
  }
}

TEST(RowKernels, DuplicateIdsKeepTheFirstNearestRow) {
  // Mirrors and overlapping shells hand the sink one event twice; a copy
  // with other values (a stale version) must not crowd out a distinct id.
  const std::vector<Row> rows = {
      row(5, {0.5, 0.5}), row(5, {0.5, 0.5}), row(5, {0.52, 0.5}),
      row(3, {0.6, 0.5}), row(3, {0.5, 0.51}), row(9, {0.9, 0.9})};
  KNearestQuery q;
  q.target.push_back(0.5);
  q.target.push_back(0.5);
  q.k = 3;
  std::vector<Event> got = events_of(rows);
  knn_filter(q, got);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].id, 5u);
  EXPECT_EQ(got[1].id, 3u);
  EXPECT_EQ(got[1].values[1], 0.51);
  EXPECT_EQ(got[2].id, 9u);
  for (const std::size_t k : {1, 2, 3, 4, 6, 10}) {
    q.k = k;
    expect_knn_matches(q, rows, "dup ids");
  }
  expect_skyline_matches(SkylineQuery(2), rows, "dup ids");
}

TEST(RowKernels, EmptyInputsAnswerNothing) {
  for (const bool with_meta : {true, false}) {
    const ColumnStore cs(4, with_meta);
    std::vector<std::uint32_t> got = {1, 2};
    column::skyline_rows(cs, SkylineQuery(4), true, got);
    EXPECT_TRUE(got.empty());
    got = {1, 2};
    KNearestQuery q;
    q.target = Values(4, 0.5);
    q.k = 3;
    column::knn_rows(cs, q, false, got);
    EXPECT_TRUE(got.empty());
  }
  // A store of replicas only is empty once they are skipped.
  const std::vector<Row> mirrors = {row(1, {0.2, 0.3}, true),
                                    row(2, {0.4, 0.1}, true)};
  const ColumnStore cs = store_of(mirrors, 2, true);
  std::vector<std::uint32_t> got;
  column::skyline_rows(cs, SkylineQuery(2), true, got);
  EXPECT_TRUE(got.empty());
  std::vector<Event> none;
  skyline_filter(SkylineQuery(2), none);
  EXPECT_TRUE(none.empty());
}

}  // namespace
}  // namespace poolnet::storage
