// The skyline visit order is a function of the attribute mask alone.
//
// Pool's Equation 1 and DIM's zone code fix every cell's and every leaf's
// value box when the system is built, and failover moves owners, never
// boxes. So a skyline query's best-corner-first walk depends only on which
// attributes it selects. The pin: a system that has already served a mask
// answers it with exactly the receipt a twin that serves that mask for the
// first time returns, before and after 20% of the nodes die. Below it,
// storage::CornerOrder, the shared order both systems walk, is held to a
// fresh stable sort for every mask.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "bench_support/testbed.h"
#include "common/rng.h"
#include "storage/query_request.h"

namespace poolnet {
namespace {

using net::NodeId;
using storage::QueryReceipt;
using storage::SkylineQuery;

constexpr std::size_t kNodes = 200;
constexpr NodeId kSink = 0;

SkylineQuery query_of(std::size_t dims, unsigned mask) {
  FixedVec<bool, storage::kMaxDims> attrs;
  for (std::size_t d = 0; d < dims; ++d) attrs.push_back((mask >> d) & 1u);
  return SkylineQuery(dims, attrs);
}

/// Every nonempty mask over `dims` attributes, ascending.
std::vector<unsigned> all_masks(std::size_t dims) {
  std::vector<unsigned> masks((1u << dims) - 1);
  std::iota(masks.begin(), masks.end(), 1u);
  return masks;
}

/// One deployment of Pool and DIM; twins built from the same dims are
/// identical node for node and event for event.
class Twin {
 public:
  explicit Twin(std::size_t dims) {
    benchsup::TestbedConfig config;
    config.nodes = kNodes;
    config.seed = 7;
    config.dims = dims;
    tb_ = std::make_unique<benchsup::Testbed>(config);
    tb_->insert_workload();
  }

  /// Pool's and DIM's receipts for each mask in turn, from the sink.
  std::vector<QueryReceipt> serve(const std::vector<unsigned>& masks) {
    std::vector<QueryReceipt> out;
    for (const unsigned mask : masks) {
      const SkylineQuery q = query_of(tb_->config().dims, mask);
      out.push_back(tb_->pool().execute(kSink, q));
      out.push_back(tb_->dim().execute(kSink, q));
    }
    return out;
  }

  /// Kills `victims` in both networks and runs each system's failover
  /// (DIM hands every orphaned leaf to a zone-tree neighbor).
  void kill(const std::vector<NodeId>& victims) {
    for (const NodeId v : victims) {
      tb_->pool_network().kill(v);
      tb_->dim_network().kill(v);
    }
    for (const NodeId v : victims) {
      tb_->pool().handle_node_failure(v);
      tb_->dim().handle_node_failure(v);
    }
    ASSERT_GT(tb_->dim().fault_stats().failovers, 0u);
  }

 private:
  std::unique_ptr<benchsup::Testbed> tb_;
};

/// A fifth of the nodes, never the sink.
std::vector<NodeId> victims() {
  Rng rng(29);
  std::vector<NodeId> ids;
  for (const std::size_t i : rng.permutation(kNodes - 1)) {
    if (ids.size() == kNodes / 5) break;
    ids.push_back(static_cast<NodeId>(i + 1));
  }
  return ids;
}

void expect_same(const std::vector<QueryReceipt>& got,
                 const std::vector<QueryReceipt>& cold, const char* pass) {
  ASSERT_EQ(got.size(), cold.size()) << pass;
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(testing::Message() << pass << " receipt " << i
                                    << (i % 2 ? " (DIM)" : " (Pool)"));
    EXPECT_EQ(got[i].events, cold[i].events);
    EXPECT_EQ(got[i].messages, cold[i].messages);
    EXPECT_EQ(got[i].query_messages, cold[i].query_messages);
    EXPECT_EQ(got[i].reply_messages, cold[i].reply_messages);
    EXPECT_EQ(got[i].index_nodes_visited, cold[i].index_nodes_visited);
  }
}

class SkylineOrderPin : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SkylineOrderPin, ServedMasksAnswerLikeAColdTwin) {
  const std::size_t dims = GetParam();
  const std::vector<unsigned> ascending = all_masks(dims);
  const std::vector<unsigned> descending(ascending.rbegin(),
                                         ascending.rend());

  // The warm twin meets every mask in ascending order, then serves each
  // again in descending order; the cold twin meets them descending.
  Twin warm(dims), cold(dims);
  const auto first = warm.serve(ascending);
  const auto again = warm.serve(descending);
  const auto cold_desc = cold.serve(descending);
  expect_same(again, cold_desc, "descending");

  // The first sightings, paired mask by mask with the cold twin's.
  std::vector<QueryReceipt> cold_asc;
  for (std::size_t i = cold_desc.size(); i >= 2; i -= 2) {
    cold_asc.push_back(cold_desc[i - 2]);
    cold_asc.push_back(cold_desc[i - 1]);
  }
  expect_same(first, cold_asc, "ascending");

  // The same fifth dies on the warm twin and on a fresh one; the warm
  // twin's orders predate the failover, the fresh twin's do not.
  const std::vector<NodeId> dead = victims();
  warm.kill(dead);
  Twin after(dims);
  after.kill(dead);
  expect_same(warm.serve(ascending), after.serve(ascending), "after kill");
}

INSTANTIATE_TEST_SUITE_P(Dims, SkylineOrderPin, ::testing::Values(3u, 5u));

// ------------------------------------------------------------ CornerOrder

/// Corners drawn from a few values and their one-ulp neighbours, so keys
/// tie often and sums differ by an ulp.
std::vector<double> tie_heavy_corners(std::size_t units, std::size_t dims,
                                      Rng& rng) {
  const double base[] = {0.25, 0.5, 0.75, 1.0};
  std::vector<double> corners;
  for (std::size_t i = 0; i < units * dims; ++i) {
    double v = base[rng.uniform_int(0, 3)];
    if (rng.uniform_int(0, 3) == 0) v = std::nextafter(v, 2.0);
    corners.push_back(v);
  }
  return corners;
}

/// The order a skyline on `mask` visits: a fresh stable sort of the unit
/// ids by descending Σ corner[d] over the selected d, in dimension order.
std::vector<std::uint32_t> reference_order(const std::vector<double>& corners,
                                           std::size_t dims, unsigned mask) {
  const std::size_t units = corners.size() / dims;
  std::vector<double> key(units, 0.0);
  for (std::size_t u = 0; u < units; ++u)
    for (std::size_t d = 0; d < dims; ++d)
      if ((mask >> d) & 1u) key[u] += corners[u * dims + d];
  std::vector<std::uint32_t> order(units);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return key[a] > key[b];
                   });
  return order;
}

TEST(CornerOrder, EveryMaskMatchesAFreshStableSort) {
  Rng rng(41);
  for (std::size_t dims = 1; dims <= storage::kMaxDims; ++dims) {
    SCOPED_TRACE(testing::Message() << "dims " << dims);
    const std::vector<double> corners = tie_heavy_corners(300, dims, rng);
    const std::vector<unsigned> masks = all_masks(dims);

    // Ascending, then shuffled on the same (now warm) order, then shuffled
    // on a cold one: every answer is the reference.
    storage::CornerOrder warm(dims, corners);
    for (const unsigned mask : masks)
      EXPECT_EQ(warm.order(query_of(dims, mask)),
                reference_order(corners, dims, mask))
          << "mask " << mask;
    storage::CornerOrder cold(dims, corners);
    for (const std::size_t i : rng.permutation(masks.size())) {
      const unsigned mask = masks[i];
      const auto& expected = warm.order(query_of(dims, mask));
      EXPECT_EQ(expected, reference_order(corners, dims, mask))
          << "mask " << mask;
      EXPECT_EQ(cold.order(query_of(dims, mask)), expected) << "mask " << mask;
    }
  }
}

TEST(CornerOrder, CornerReadsBackItsUnit) {
  const storage::CornerOrder order(3, {0.1, 0.2, 0.3, 0.4, 0.5, 0.6});
  EXPECT_EQ(order.corner(1), (storage::Values{0.4, 0.5, 0.6}));
  EXPECT_FALSE(order.empty());
  EXPECT_TRUE(storage::CornerOrder().empty());
}

}  // namespace
}  // namespace poolnet
