#include "storage/brute_force_store.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "net/deployment.h"
#include "net/network.h"
#include "routing/gpsr.h"

namespace poolnet::storage {
namespace {

Event make_event(std::uint64_t id, std::initializer_list<double> vals) {
  Event e;
  e.id = id;
  e.source = 0;
  for (const double v : vals) e.values.push_back(v);
  return e;
}

TEST(BruteForceStore, OracleStoresAndMatches) {
  BruteForceStore store(3);
  store.insert(0, make_event(1, {0.1, 0.2, 0.3}));
  store.insert(0, make_event(2, {0.5, 0.6, 0.7}));
  store.insert(0, make_event(3, {0.9, 0.9, 0.9}));
  EXPECT_EQ(store.stored_count(), 3u);

  const RangeQuery q({{0.0, 0.6}, {0.0, 0.7}, {0.0, 0.8}});
  const auto matches = store.matching(q);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].id, 1u);
  EXPECT_EQ(matches[1].id, 2u);
}

TEST(BruteForceStore, OracleModeChargesNoMessages) {
  BruteForceStore store(2);
  const auto ir = store.insert(0, make_event(1, {0.5, 0.5}));
  EXPECT_EQ(ir.messages, 0u);
  const auto qr = store.execute(0, RangeQuery({{0.0, 1.0}, {0.0, 1.0}}));
  EXPECT_EQ(qr.messages, 0u);
  EXPECT_EQ(qr.events.size(), 1u);
}

TEST(BruteForceStore, RejectsDimensionMismatch) {
  BruteForceStore store(3);
  EXPECT_THROW(store.insert(0, make_event(1, {0.5, 0.5})),
               poolnet::ConfigError);
}

TEST(BruteForceStore, RejectsBadDims) {
  EXPECT_THROW(BruteForceStore(0), poolnet::ConfigError);
  EXPECT_THROW(BruteForceStore(kMaxDims + 1), poolnet::ConfigError);
}

TEST(BruteForceStore, NetworkedModeChargesTraffic) {
  Rng rng(3);
  const double side = net::field_side_for_density(150, 40.0, 20.0);
  const Rect field{0, 0, side, side};
  auto pts = net::deploy_uniform(150, field, rng);
  net::Network network(std::move(pts), field, 40.0);
  ASSERT_TRUE(network.is_connected());
  const routing::Gpsr gpsr(network);

  const net::NodeId base = network.nearest_node(field.center());
  BruteForceStore store(2, network, gpsr, base);

  // Insert from a far corner: must cost at least one hop.
  const net::NodeId corner = network.nearest_node({0, 0});
  const auto ir = store.insert(corner, make_event(1, {0.5, 0.5}));
  EXPECT_EQ(ir.stored_at, base);
  EXPECT_GT(ir.messages, 0u);

  const auto qr = store.execute(corner, RangeQuery({{0.0, 1.0}, {0.0, 1.0}}));
  EXPECT_EQ(qr.events.size(), 1u);
  EXPECT_GT(qr.query_messages, 0u);
  EXPECT_GT(qr.reply_messages, 0u);
  EXPECT_EQ(qr.messages, qr.query_messages + qr.reply_messages);
}

}  // namespace
}  // namespace poolnet::storage
