// Online fault tolerance: fault-plan parsing, live injection into
// co-deployed networks, reliable delivery with route-cache invalidation,
// and per-system failover (Pool mirror restore, DIM zone adoption, GHT
// store reclamation). The acceptance properties live here: recall is 100%
// when failover completes before the query, stale cached routes through a
// dead node are never replayed, a 20% mid-run kill leaves every system
// answering, and a plan that never fires is byte-identical to no plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "bench_support/testbed.h"
#include "cli/runner.h"
#include "common/error.h"
#include "connected_network.h"
#include "net/fault_injector.h"
#include "query/query_gen.h"
#include "routing/gpsr.h"
#include "routing/reliable.h"
#include "routing/route_cache.h"
#include "sim/fault_plan.h"

namespace poolnet {
namespace {

using net::Network;
using net::NodeId;
using storage::RangeQuery;

Network line_net(std::uint64_t seed = 1) {
  std::vector<Point> pts{{0, 0}, {30, 0}, {60, 0}, {90, 0}};
  return Network(pts, Rect{0, 0, 100, 10}, 40.0, {}, {}, {}, seed);
}

Network random_connected_net(std::uint64_t seed, std::size_t n) {
  return std::move(*connected_network(seed, n, 1000003));
}

std::vector<std::uint64_t> sorted_ids(const std::vector<storage::Event>& es) {
  std::vector<std::uint64_t> ids;
  for (const auto& e : es) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

RangeQuery whole_space() {
  return RangeQuery({{0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0}});
}

// --- fault-spec parsing ------------------------------------------------

TEST(FaultSpec, OffNoneAndEmptyDisable) {
  for (const char* spec : {"", "off", "none"}) {
    sim::FaultPlan plan;
    std::string err;
    EXPECT_TRUE(sim::parse_fault_spec(spec, &plan, &err)) << spec;
    EXPECT_FALSE(plan.enabled()) << spec;
  }
}

TEST(FaultSpec, ParsesEveryClauseKindAndSortsByTime) {
  sim::FaultPlan plan;
  std::string err;
  ASSERT_TRUE(sim::parse_fault_spec(
      "kill:0.2@15;node:7@3;blackout:100,50,60@10;degrade:0.3@5-20;seed:42",
      &plan, &err))
      << err;
  EXPECT_TRUE(plan.enabled());
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.actions.size(), 5u);  // degrade expands to start + end
  EXPECT_EQ(plan.actions[0].kind, sim::FaultKind::KillNode);
  EXPECT_EQ(plan.actions[0].node, 7u);
  EXPECT_EQ(plan.actions[1].kind, sim::FaultKind::DegradeStart);
  EXPECT_DOUBLE_EQ(plan.actions[1].extra_loss, 0.3);
  EXPECT_EQ(plan.actions[2].kind, sim::FaultKind::Blackout);
  EXPECT_DOUBLE_EQ(plan.actions[2].radius, 60.0);
  EXPECT_EQ(plan.actions[3].kind, sim::FaultKind::KillFraction);
  EXPECT_DOUBLE_EQ(plan.actions[3].fraction, 0.2);
  EXPECT_EQ(plan.actions[4].kind, sim::FaultKind::DegradeEnd);
  for (std::size_t i = 1; i < plan.actions.size(); ++i)
    EXPECT_LE(plan.actions[i - 1].at, plan.actions[i].at);
}

TEST(FaultSpec, RejectsMalformedClauses) {
  for (const char* bad :
       {"kill:1.5@3", "kill:0.2", "node:x@1", "blackout:1,2@3",
        "degrade:0.5@9-4", "degrade:1.0@1-2", "bogus:1@1", "kill:0.2@-3",
        "seed:abc", "kill", "kill:nan@5", "kill:0.2@nan",
        "degrade:nan@1-2", "degrade:0.1@1-inf", "blackout:0,0,inf@2",
        "blackout:nan,0,5@2", "node:3@inf", "node:-1@1", "node:+3@1",
        "node: 3@1", "node:4294967298@1", "node:99999999999999999999@1",
        "seed:-1", "seed:+5", "seed: 5", "seed:123456789012345678901",
        "kill: 0.2@1", "kill:+0.2@1", "degrade:+0.1@1-2",
        "blackout: 1,2,3@4"}) {
    sim::FaultPlan plan;
    std::string err;
    EXPECT_FALSE(sim::parse_fault_spec(bad, &plan, &err)) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
  // The largest node id and seed still parse.
  sim::FaultPlan plan;
  std::string err;
  ASSERT_TRUE(sim::parse_fault_spec(
      "node:4294967295@1;seed:18446744073709551615", &plan, &err))
      << err;
  EXPECT_EQ(plan.actions.at(0).node, 4294967295u);
  EXPECT_EQ(plan.seed, 18446744073709551615u);
  // Plain decimals still parse.
  ASSERT_TRUE(sim::parse_fault_spec("kill:0.2@1;kill:0.25@1.5", &plan, &err))
      << err;
  EXPECT_DOUBLE_EQ(plan.actions.at(1).fraction, 0.25);
  EXPECT_DOUBLE_EQ(plan.actions.at(1).at, 1.5);
}

// --- the injector ------------------------------------------------------

TEST(FaultInjector, ScheduledKillHitsEveryNetworkExactlyOnce) {
  auto a = line_net(1);
  auto b = line_net(2);
  sim::FaultPlan plan;
  std::string err;
  ASSERT_TRUE(sim::parse_fault_spec("node:2@5", &plan, &err));
  net::FaultInjector injector(plan, {&a, &b});

  EXPECT_TRUE(injector.advance(4.9).empty()) << "fired before its time";
  const auto newly = injector.advance(5.0);
  ASSERT_EQ(newly.size(), 1u);
  EXPECT_EQ(newly[0], 2u);
  EXPECT_FALSE(a.alive(2));
  EXPECT_FALSE(b.alive(2));
  EXPECT_EQ(a.dead_count(), 1u);
  EXPECT_EQ(b.dead_count(), 1u);
  EXPECT_TRUE(injector.exhausted());
  EXPECT_TRUE(injector.advance(6.0).empty()) << "kill is one-shot";
  EXPECT_EQ(injector.total_killed(), 1u);
}

TEST(FaultInjector, RejectsANodePastTheNetwork) {
  auto net = line_net();  // 4 nodes
  sim::FaultPlan plan;
  std::string err;
  ASSERT_TRUE(sim::parse_fault_spec("node:3@1;node:4@2", &plan, &err));
  try {
    net::FaultInjector injector(plan, {&net});
    FAIL() << "node 4 of a 4-node network was accepted";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("node 4"), std::string::npos) << what;
    EXPECT_NE(what.find("4-node"), std::string::npos) << what;
  }
  ASSERT_TRUE(sim::parse_fault_spec("node:3@1", &plan, &err));
  net::FaultInjector injector(plan, {&net});
  EXPECT_EQ(injector.advance(1.0).size(), 1u);
}

TEST(FaultInjector, FractionKillsRoundedShareOfSurvivors) {
  auto net = line_net();
  sim::FaultPlan plan;
  std::string err;
  ASSERT_TRUE(sim::parse_fault_spec("kill:0.5@1", &plan, &err));
  net::FaultInjector injector(plan, {&net});
  EXPECT_EQ(injector.advance(1.0).size(), 2u);  // half of 4 nodes
  EXPECT_EQ(net.dead_count(), 2u);
}

TEST(FaultInjector, BlackoutKillsExactlyTheDisc) {
  auto net = line_net();
  sim::FaultPlan plan;
  std::string err;
  ASSERT_TRUE(sim::parse_fault_spec("blackout:0,0,35@2", &plan, &err));
  net::FaultInjector injector(plan, {&net});
  const auto newly = injector.advance(2.0);
  EXPECT_EQ(newly.size(), 2u);  // x = 0 and x = 30 are within 35 m
  EXPECT_FALSE(net.alive(0));
  EXPECT_FALSE(net.alive(1));
  EXPECT_TRUE(net.alive(2));
  EXPECT_TRUE(net.alive(3));
}

TEST(FaultInjector, DegradeWindowOpensAndCloses) {
  auto net = line_net();
  sim::FaultPlan plan;
  std::string err;
  ASSERT_TRUE(sim::parse_fault_spec("degrade:0.3@2-5", &plan, &err));
  net::FaultInjector injector(plan, {&net});
  injector.advance(1.0);
  EXPECT_DOUBLE_EQ(net.extra_loss(), 0.0);
  injector.advance(2.0);
  EXPECT_DOUBLE_EQ(net.extra_loss(), 0.3);
  injector.advance(4.9);
  EXPECT_DOUBLE_EQ(net.extra_loss(), 0.3);
  injector.advance(5.0);
  EXPECT_DOUBLE_EQ(net.extra_loss(), 0.0);
  EXPECT_EQ(net.dead_count(), 0u);
}

TEST(FaultInjector, DisabledPlanIsANoOp) {
  auto net = line_net();
  net::FaultInjector injector(sim::FaultPlan{}, {&net});
  EXPECT_TRUE(injector.exhausted());
  EXPECT_TRUE(injector.advance(1e9).empty());
  EXPECT_EQ(net.dead_count(), 0u);
  EXPECT_DOUBLE_EQ(net.extra_loss(), 0.0);
}

// --- reliable delivery -------------------------------------------------

TEST(ReliableDelivery, AliveLegIsOneRouteOneTransmit) {
  auto net = line_net();
  const routing::Gpsr gpsr(net);
  const auto out = routing::send_reliable(net, gpsr, 0, 3,
                                          net::MessageKind::Query, 64);
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(out.reached, 3u);
  EXPECT_EQ(out.retries, 0u);
  EXPECT_TRUE(out.dead_found.empty());
  EXPECT_EQ(net.traffic().total, 3u);  // exactly the path's hops
  EXPECT_EQ(net.traffic().lost, 0u);
}

TEST(ReliableDelivery, SelfLegDeliversWithoutTraffic) {
  auto net = line_net();
  const routing::Gpsr gpsr(net);
  const auto out = routing::send_reliable(net, gpsr, 2, 2,
                                          net::MessageKind::Query, 64);
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(net.traffic().total, 0u);
}

TEST(ReliableDelivery, DeadTargetIsDetectedAndReported) {
  auto net = line_net();
  net.kill(3);
  const routing::Gpsr gpsr(net);
  const auto out = routing::send_reliable(net, gpsr, 0, 3,
                                          net::MessageKind::Query, 64);
  EXPECT_FALSE(out.delivered);
  EXPECT_NE(std::find(out.dead_found.begin(), out.dead_found.end(), 3u),
            out.dead_found.end())
      << "the dead target must be reported for failover";
  EXPECT_GE(net.traffic().lost, 1u);
}

TEST(ReliableDelivery, DeadSourceSendsNothing) {
  auto net = line_net();
  net.kill(0);
  const routing::Gpsr gpsr(net);
  const auto out = routing::send_reliable(net, gpsr, 0, 3,
                                          net::MessageKind::Query, 64);
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(net.traffic().total, 0u);
}

TEST(ReliableDelivery, StaleCachedRouteThroughDeadNodeIsNeverReplayed) {
  auto net = random_connected_net(17, 250);
  const routing::Gpsr gpsr(net);
  routing::RouteCacheConfig cache_cfg;
  cache_cfg.max_hops = 0;  // store every route, including long legs
  const routing::RouteCache cache(gpsr, cache_cfg);

  // A pair whose route has an interior node to kill.
  NodeId src = 0, dst = 0, victim = net::kNoNode;
  Rng rng(23);
  const auto n = static_cast<std::int64_t>(net.size());
  for (int trial = 0; trial < 200 && victim == net::kNoNode; ++trial) {
    const auto s = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    const auto d = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    const auto r = gpsr.route_to_node(s, d);
    if (r.delivered && r.path.size() >= 5) {
      src = s;
      dst = d;
      victim = r.path[r.path.size() / 2];
    }
  }
  ASSERT_NE(victim, net::kNoNode) << "no multi-hop pair found";

  // Warm the cache with the route that traverses the victim (its second
  // sighting stores it), then crash the victim behind the cache's back.
  cache.route_to_node(src, dst);
  const auto cached = cache.route_to_node(src, dst);
  ASSERT_EQ(cache.stats().entries, 1u);
  ASSERT_NE(std::find(cached.path.begin(), cached.path.end(), victim),
            cached.path.end());
  net.kill(victim);

  // First send: the cache sees the network's dead count move, drops every
  // stored route through the victim before the lookup, and routes around
  // the corpse from the start — no ARQ budget burnt into the dead node.
  const auto lost_before = net.traffic().lost;
  const auto first = routing::send_reliable(net, cache, src, dst,
                                            net::MessageKind::Query, 64);
  if (!first.delivered)
    GTEST_SKIP() << "the kill partitioned src from dst at this seed";
  EXPECT_TRUE(first.dead_found.empty());
  EXPECT_EQ(first.retries, 0u);
  EXPECT_GE(cache.stats().invalidated, 1u);
  EXPECT_EQ(net.traffic().lost, lost_before);

  // Second send: the dropped key is sighted again, so the refreshed
  // route is stored. Third send: it is served from the cache, still
  // around the corpse, still with zero lost frames.
  routing::send_reliable(net, cache, src, dst, net::MessageKind::Query, 64);
  ASSERT_EQ(cache.stats().entries, 1u);
  const auto hits_before = cache.stats().hits;
  const auto third = routing::send_reliable(net, cache, src, dst,
                                            net::MessageKind::Query, 64);
  EXPECT_EQ(cache.stats().hits, hits_before + 1);
  EXPECT_TRUE(third.delivered);
  EXPECT_EQ(third.retries, 0u);
  EXPECT_EQ(net.traffic().lost, lost_before);
  EXPECT_EQ(std::find(third.route.path.begin(), third.route.path.end(),
                      victim),
            third.route.path.end());
}

// --- per-system failover -----------------------------------------------

TEST(Failover, PoolMirrorRestoreGivesFullRecallBeforeQueries) {
  benchsup::TestbedConfig config;
  config.nodes = 250;
  config.seed = 3;
  config.pool.replicas = 2;
  benchsup::Testbed tb(config);
  tb.insert_workload();

  // Crash the most loaded storage node, then fail over BEFORE querying.
  NodeId dead = 0;
  for (const auto& node : tb.pool_network().nodes())
    if (node.stored_events > tb.pool_network().node(dead).stored_events)
      dead = node.id;
  ASSERT_GT(tb.pool_network().node(dead).stored_events, 0u);
  tb.pool_network().kill(dead);
  tb.pool().handle_node_failure(dead);

  const auto& fs = tb.pool().fault_stats();
  EXPECT_GE(fs.failovers, 1u);
  EXPECT_GT(fs.events_restored, 0u);
  EXPECT_EQ(fs.events_lost, 0u) << "two mirrors must cover one crash";

  // Failover preceded the queries, so recall is exactly 100%.
  query::QueryGenerator qgen({.dims = 3}, 7);
  Rng sink_rng(8);
  for (int i = 0; i < 20; ++i) {
    const auto q = i % 2 ? qgen.partial_range(1) : qgen.exact_range();
    auto sink = tb.random_node(sink_rng);
    if (sink == dead) sink = (sink + 1) % tb.pool_network().size();
    const auto r = tb.pool().execute(sink, q);
    EXPECT_EQ(sorted_ids(r.events), sorted_ids(tb.oracle().matching(q)))
        << "query " << i;
  }
}

TEST(Failover, PoolWithoutMirrorsLosesExactlyTheDeadNodesEvents) {
  benchsup::TestbedConfig config;
  config.nodes = 250;
  config.seed = 11;
  benchsup::Testbed tb(config);
  const auto total = tb.insert_workload();

  NodeId dead = 0;
  for (const auto& node : tb.pool_network().nodes())
    if (node.stored_events > tb.pool_network().node(dead).stored_events)
      dead = node.id;
  const auto held = tb.pool_network().node(dead).stored_events;
  ASSERT_GT(held, 0u);
  tb.pool_network().kill(dead);
  tb.pool().handle_node_failure(dead);

  EXPECT_EQ(tb.pool().fault_stats().events_lost, held);
  EXPECT_EQ(tb.pool().stored_count(), total - held);
  const auto sink = dead == 0 ? NodeId{1} : NodeId{0};
  const auto r = tb.pool().execute(sink, whole_space());
  EXPECT_EQ(r.events.size(), total - held);
}

TEST(Failover, PoolKNearestNeverAnswersFromSilentlyDeadHolders) {
  benchsup::TestbedConfig config;
  config.nodes = 250;
  config.seed = 11;
  benchsup::Testbed tb(config);
  tb.insert_workload();
  core::PoolSystem& pool = tb.pool();

  NodeId dead = 0;
  for (const auto& node : tb.pool_network().nodes())
    if (node.stored_events > tb.pool_network().node(dead).stored_events)
      dead = node.id;
  // Without sharing, every event sits at its cell's index node.
  std::vector<storage::Event> survivors, lost;
  for (const auto& e : tb.oracle().all())
    (pool.choose_cell(e.source, e).index_node == dead ? lost : survivors)
        .push_back(e);
  ASSERT_FALSE(lost.empty());
  // Crash the node WITHOUT telling the system: the query must find out.
  tb.pool_network().kill(dead);
  const NodeId sink = dead == 0 ? NodeId{1} : NodeId{0};

  for (const auto& target : lost) {
    const storage::KNearestQuery q{target.values, 5, 0.0};
    const auto r = pool.execute(sink, q);
    auto expected = survivors;
    storage::knn_filter(q, expected);
    ASSERT_EQ(r.events.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(r.events[i].id, expected[i].id) << "rank " << i;
  }
  // The whole store: the oracle minus exactly what failover counted lost.
  const storage::KNearestQuery all{{0.5, 0.5, 0.5}, tb.oracle().all().size(),
                                   0.0};
  const auto r = pool.execute(sink, all);
  EXPECT_EQ(pool.fault_stats().events_lost, lost.size());
  EXPECT_EQ(sorted_ids(r.events), sorted_ids(survivors));
}

TEST(Failover, PoolUnsubscribeFromCutOffSinkLeavesNoStaleRegistration) {
  benchsup::TestbedConfig config;
  config.nodes = 200;
  config.seed = 13;
  benchsup::Testbed tb(config);
  core::PoolSystem& pool = tb.pool();
  Network& net = tb.pool_network();

  const NodeId sink = 0;
  const auto id = pool.subscribe(sink, whole_space());
  // Cut the sink off: every Control leg of the unsubscribe dies on its
  // first hop, so no splitter and no cell hears of it.
  for (const NodeId nb : net.neighbors(sink)) net.kill(nb);
  pool.unsubscribe(id);

  storage::Event e;
  e.id = 1;
  e.values = {0.7, 0.2, 0.3};
  NodeId source = 1;
  while (!net.alive(source) || net.are_neighbors(source, sink)) ++source;
  e.source = source;
  ASSERT_NE(pool.choose_cell(source, e).index_node, sink);
  EXPECT_NO_THROW(pool.insert(source, e));
  EXPECT_TRUE(pool.take_notifications(id).empty());
}

TEST(Failover, HandleNodeFailureIsIdempotent) {
  benchsup::TestbedConfig config;
  config.nodes = 200;
  config.seed = 13;
  benchsup::Testbed tb(config);
  tb.insert_workload();
  tb.pool_network().kill(5);
  tb.dim_network().kill(5);
  tb.pool().handle_node_failure(5);
  tb.dim().handle_node_failure(5);
  const auto pool_once = tb.pool().fault_stats();
  const auto dim_once = tb.dim().fault_stats();
  tb.pool().handle_node_failure(5);
  tb.dim().handle_node_failure(5);
  EXPECT_EQ(tb.pool().fault_stats().failovers, pool_once.failovers);
  EXPECT_EQ(tb.pool().fault_stats().events_lost, pool_once.events_lost);
  EXPECT_EQ(tb.dim().fault_stats().failovers, dim_once.failovers);
  EXPECT_EQ(tb.dim().fault_stats().events_lost, dim_once.events_lost);
}

TEST(Failover, DimNeighborAdoptionKeepsEveryZoneOwnedAndAnswering) {
  benchsup::TestbedConfig config;
  config.nodes = 250;
  config.seed = 5;
  benchsup::Testbed tb(config);
  tb.insert_workload();

  const auto& tree = tb.dim().tree();
  const NodeId dead = tree.zone(tree.leaves().front()).owner;
  ASSERT_NE(dead, net::kNoNode);
  tb.dim_network().kill(dead);
  tb.dim().handle_node_failure(dead);

  EXPECT_GE(tb.dim().fault_stats().failovers, 1u);
  for (const auto leaf : tree.leaves()) {
    const NodeId owner = tree.zone(leaf).owner;
    EXPECT_NE(owner, dead) << "orphaned zone " << leaf;
    if (owner != net::kNoNode) {
      EXPECT_TRUE(tb.dim_network().alive(owner)) << "zone " << leaf;
    }
  }

  const auto sink = dead == 0 ? NodeId{1} : NodeId{0};
  const auto r = tb.dim().execute(sink, whole_space());
  EXPECT_EQ(r.events.size(), tb.dim().stored_count());
  EXPECT_EQ(tb.dim().stored_count() + tb.dim().fault_stats().events_lost,
            tb.oracle().all().size());
}

TEST(Failover, GhtReclaimsDeadStoreAndKeepsAnswering) {
  benchsup::TestbedConfig config;
  config.nodes = 250;
  config.seed = 9;
  benchsup::Testbed tb(config);
  tb.insert_workload();

  storage::DcsSystem& ght = tb.deploy(benchsup::SystemKind::Ght);
  Network& ght_net = tb.network(benchsup::SystemKind::Ght);

  NodeId dead = 0;
  for (const auto& node : ght_net.nodes())
    if (node.stored_events > ght_net.node(dead).stored_events)
      dead = node.id;
  const auto held = ght_net.node(dead).stored_events;
  ASSERT_GT(held, 0u);
  ght_net.kill(dead);
  ght.handle_node_failure(dead);

  EXPECT_EQ(ght.fault_stats().events_lost, held);
  const auto sink = dead == 0 ? NodeId{1} : NodeId{0};
  const auto r = ght.execute(sink, whole_space());
  EXPECT_EQ(r.events.size(), ght.stored_count());
  EXPECT_EQ(ght.stored_count(), tb.oracle().all().size() - held);
}

// --- end-to-end through the CLI runner ---------------------------------

TEST(OnlineFaults, TwentyPercentMidRunKillKeepsAllSystemsAnswering) {
  cli::CliConfig config;
  config.systems = {benchsup::SystemKind::Pool, benchsup::SystemKind::Dim,
                    benchsup::SystemKind::Ght};
  config.nodes = 200;
  config.events_per_node = 3;
  config.queries = 30;
  config.flavor = cli::QueryFlavor::OnePartial;
  config.deployments = 1;
  config.threads = 1;
  std::string err;
  ASSERT_TRUE(sim::parse_fault_spec("kill:0.2@15", &config.faults, &err));

  std::ostringstream out;
  const auto rows = cli::run_experiment(config, out);
  ASSERT_EQ(rows.size(), 3u);
  std::uint64_t failovers = 0;
  for (const auto& r : rows) {
    EXPECT_GT(r.recall, 0.3) << benchsup::to_string(r.system)
                             << " stopped answering";
    EXPECT_LE(r.recall, 1.0) << benchsup::to_string(r.system);
    EXPECT_GT(r.mean_results, 0.0) << benchsup::to_string(r.system);
    failovers += r.failovers;
  }
  EXPECT_GE(failovers, 1u) << "a 20% cut must trigger failover somewhere";
  EXPECT_NE(out.str().find("recall"), std::string::npos)
      << "fault columns missing from the report";
}

TEST(OnlineFaults, NeverFiringPlanIsByteIdenticalToDisabled) {
  cli::CliConfig base;
  base.systems = {benchsup::SystemKind::Pool, benchsup::SystemKind::Dim,
                  benchsup::SystemKind::Ght};
  base.nodes = 150;
  base.events_per_node = 3;
  base.queries = 20;
  base.flavor = cli::QueryFlavor::Exact;
  base.deployments = 1;
  base.threads = 1;

  cli::CliConfig armed = base;
  std::string err;
  ASSERT_TRUE(
      sim::parse_fault_spec("node:0@1000000", &armed.faults, &err));

  std::ostringstream sink_a, sink_b;
  const auto plain = cli::run_experiment(base, sink_a);
  const auto never = cli::run_experiment(armed, sink_b);
  ASSERT_EQ(plain.size(), never.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].mean_messages, never[i].mean_messages);
    EXPECT_EQ(plain[i].mean_query_messages, never[i].mean_query_messages);
    EXPECT_EQ(plain[i].mean_reply_messages, never[i].mean_reply_messages);
    EXPECT_EQ(plain[i].mean_results, never[i].mean_results);
    EXPECT_EQ(plain[i].mean_nodes_visited, never[i].mean_nodes_visited);
    EXPECT_EQ(plain[i].insert_messages_per_event,
              never[i].insert_messages_per_event);
    EXPECT_EQ(plain[i].mismatches, 0u);
    EXPECT_EQ(never[i].mismatches, 0u);
    EXPECT_DOUBLE_EQ(never[i].recall, 1.0);
    EXPECT_EQ(never[i].retries, 0u);
    EXPECT_EQ(never[i].failovers, 0u);
    EXPECT_EQ(never[i].events_lost, 0u);
  }
}

}  // namespace
}  // namespace poolnet
