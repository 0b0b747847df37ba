// Reproduction of the paper's worked examples (Figures 2-5, Examples
// 3.1/3.2, Section 4.1) on a testbed laid out exactly like Figure 2:
// l = 5 pools pivoted at C(1,2), C(2,10) and C(7,3).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/pool_system.h"
#include "net/deployment.h"
#include "routing/gpsr.h"
#include "storage/brute_force_store.h"

namespace poolnet::core {
namespace {

using net::Network;
using net::NodeId;
using storage::Event;
using storage::RangeQuery;

Event make_event(std::uint64_t id, std::initializer_list<double> vals) {
  Event e;
  e.id = id;
  e.source = 0;
  for (const double v : vals) e.values.push_back(v);
  return e;
}

struct Figure2Testbed {
  Figure2Testbed() {
    // 16x16 cells of 5 m => an 80 m field, densely covered so every cell
    // has a sensor close to its center (the paper's density assumption).
    const Rect field{0, 0, 80, 80};
    Rng rng(7);
    auto pts = net::deploy_grid_jitter(1024, field, 0.6, rng);
    network = std::make_unique<Network>(std::move(pts), field, 12.0);
    EXPECT_TRUE(network->is_connected());
    gpsr = std::make_unique<routing::Gpsr>(*network);
    PoolConfig config;
    config.cell_size = 5.0;
    config.side = 5;
    Grid grid(*network, 5.0);
    PoolLayout layout({{1, 2}, {2, 10}, {7, 3}}, 5, grid.cols(), grid.rows());
    pool = std::make_unique<PoolSystem>(*network, *gpsr, 3, config,
                                        std::move(layout));
  }

  std::unique_ptr<Network> network;
  std::unique_ptr<routing::Gpsr> gpsr;
  std::unique_ptr<PoolSystem> pool;
};

TEST(PaperExamples, Section311EventPlacement) {
  // "let E = <0.4, 0.3, 0.1> ... E is stored in C(3,4)" (pivot C(1,2)).
  Figure2Testbed tb;
  const auto choice = tb.pool->choose_cell(0, make_event(1, {0.4, 0.3, 0.1}));
  EXPECT_EQ(choice.pool_dim, 0u);
  EXPECT_EQ(choice.coord, (CellCoord{3, 4}));
}

TEST(PaperExamples, Example31RelevantCellsAcrossPools) {
  // Figure 4: Q = <[0.2,0.3],[0.25,0.35],[0.21,0.24]> touches C(2,5) in
  // P1, C(3,12) and C(3,13) in P2, and nothing in P3.
  Figure2Testbed tb;
  const RangeQuery q({{0.2, 0.3}, {0.25, 0.35}, {0.21, 0.24}});

  const auto p1 = relevant_cells(q, 0, 5);
  ASSERT_EQ(p1.size(), 1u);
  EXPECT_EQ(tb.pool->layout().cell(0, p1[0]), (CellCoord{2, 5}));

  const auto p2 = relevant_cells(q, 1, 5);
  ASSERT_EQ(p2.size(), 2u);
  EXPECT_EQ(tb.pool->layout().cell(1, p2[0]), (CellCoord{3, 12}));
  EXPECT_EQ(tb.pool->layout().cell(1, p2[1]), (CellCoord{3, 13}));

  EXPECT_TRUE(relevant_cells(q, 2, 5).empty());
  EXPECT_EQ(tb.pool->relevant_cell_count(q), 3u);
}

TEST(PaperExamples, Example32PartialMatchCells) {
  // Figure 5: Q = <*, *, [0.8,0.84]> touches C(5,6) in P1, C(6,14) in P2,
  // and the column C(11,3)..C(11,7) in P3.
  Figure2Testbed tb;
  RangeQuery::Bounds b{{0, 0}, {0, 0}, {0.8, 0.84}};
  FixedVec<bool, storage::kMaxDims> spec{false, false, true};
  const RangeQuery q(b, spec);

  const auto p1 = relevant_cells(q, 0, 5);
  ASSERT_EQ(p1.size(), 1u);
  EXPECT_EQ(tb.pool->layout().cell(0, p1[0]), (CellCoord{5, 6}));

  const auto p2 = relevant_cells(q, 1, 5);
  ASSERT_EQ(p2.size(), 1u);
  EXPECT_EQ(tb.pool->layout().cell(1, p2[0]), (CellCoord{6, 14}));

  const auto p3 = relevant_cells(q, 2, 5);
  ASSERT_EQ(p3.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(tb.pool->layout().cell(2, p3[i]),
              (CellCoord{11, 3 + static_cast<std::int32_t>(i)}));
  }
  EXPECT_EQ(tb.pool->relevant_cell_count(q), 7u);
}

TEST(PaperExamples, Example31EndToEndRetrieval) {
  // Store events engineered into each relevant region and verify the
  // query pipeline retrieves exactly the qualifying ones.
  Figure2Testbed tb;
  storage::BruteForceStore oracle(3);
  const std::vector<Event> events{
      make_event(1, {0.28, 0.27, 0.22}),  // qualifies, lives in P1
      make_event(2, {0.26, 0.33, 0.23}),  // qualifies, lives in P2
      make_event(3, {0.28, 0.30, 0.40}),  // d1=3: in P3, does NOT qualify
      make_event(4, {0.60, 0.30, 0.22}),  // V1 too big, not qualifying
      make_event(5, {0.28, 0.10, 0.22}),  // V2 too small, not qualifying
  };
  for (const auto& e : events) {
    tb.pool->insert(0, e);
    oracle.insert(0, e);
  }
  const RangeQuery q({{0.2, 0.3}, {0.25, 0.35}, {0.21, 0.24}});
  const auto receipt = tb.pool->execute(0, q);
  std::vector<std::uint64_t> got;
  for (const auto& e : receipt.events) got.push_back(e.id);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(receipt.index_nodes_visited, 3u);  // 1 + 2 + 0 relevant cells
}

TEST(PaperExamples, Section41TieExample) {
  // E = <0.4, 0.4, 0.2>: the greatest value ties between dims 1 and 2, so
  // there is one candidate cell per tied pool — the paper names C(3,5)
  // for P1 under the Figure 2 layout, which is offset (2,3) — and the
  // event is stored once, at the candidate closest to the detection cell
  // (the paper's example detects near C(8,12)).
  Figure2Testbed tb;
  const auto e = make_event(1, {0.4, 0.4, 0.2});
  // Theorem 3.1 with v_d1 = v_d2 = 0.4: HO = 2, VO = floor(.4*25/3) = 3.
  const auto off = cell_for_values(0.4, 0.4, 5);
  EXPECT_EQ(off, (CellOffset{2, 3}));
  const CellCoord cand_p1 = tb.pool->layout().cell(0, off);  // C(3,5)
  EXPECT_EQ(cand_p1, (CellCoord{3, 5}));
  const CellCoord cand_p2 = tb.pool->layout().cell(1, off);  // C(4,13)
  // Source near C(8,12) is closer to P2's candidate.
  const Point src_pos = tb.pool->grid().cell_center({8, 12});
  const NodeId src = tb.network->nearest_node(src_pos);
  const auto choice = tb.pool->choose_cell(src, e);
  const double d1 = distance(tb.pool->grid().cell_center(cand_p1), src_pos);
  const double d2 = distance(tb.pool->grid().cell_center(cand_p2), src_pos);
  ASSERT_LT(d2, d1);
  EXPECT_EQ(choice.coord, cand_p2);
  // One copy only, still retrievable (Section 4.1's requirement).
  tb.pool->insert(src, e);
  EXPECT_EQ(tb.pool->stored_count(), 1u);
  const RangeQuery q({{0.35, 0.45}, {0.35, 0.45}, {0.15, 0.25}});
  EXPECT_EQ(tb.pool->execute(src, q).events.size(), 1u);
}

TEST(PaperExamples, Figure3RangesReproduced) {
  // Every range printed in Figure 3 for P1 (l = 5).
  // Horizontal: columns 0..4 = [0,.2) [.2,.4) [.4,.6) [.6,.8) [.8,1).
  const double h[6] = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
  for (std::uint32_t ho = 0; ho < 5; ++ho) {
    EXPECT_DOUBLE_EQ(range_h(ho, 5).lo, h[ho]);
    EXPECT_DOUBLE_EQ(range_h(ho, 5).hi, h[ho + 1]);
  }
  // Spot-check the figure's verticals in other columns.
  EXPECT_EQ(range_v(0, 4, 5), (HalfOpenInterval{0.16, 0.2}));
  EXPECT_EQ(range_v(2, 4, 5), (HalfOpenInterval{0.48, 0.6}));
  EXPECT_EQ(range_v(3, 4, 5), (HalfOpenInterval{0.64, 0.8}));
  EXPECT_EQ(range_v(4, 4, 5), (HalfOpenInterval{0.8, 1.0}));
  EXPECT_EQ(range_v(2, 0, 5), (HalfOpenInterval{0.0, 0.12}));
  EXPECT_EQ(range_v(3, 1, 5), (HalfOpenInterval{0.16, 0.32}));
}

}  // namespace
}  // namespace poolnet::core
