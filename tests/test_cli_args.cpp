#include "cli/args.h"

#include <gtest/gtest.h>

#include <cmath>

#include "cli/runner.h"

namespace poolnet::cli {
namespace {

ArgParser make_parser() {
  ArgParser p("prog", "test program");
  p.add_option("nodes", "900", "network size");
  p.add_option("name", "default", "a string");
  p.add_option("ratio", "0.5", "a double");
  p.add_flag("verbose", "chatty output");
  return p;
}

bool parse(ArgParser& p, std::initializer_list<const char*> args,
           std::string* error) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return p.parse(static_cast<int>(argv.size()), argv.data(), error);
}

TEST(ArgParser, DefaultsApplyWithoutArguments) {
  auto p = make_parser();
  std::string error;
  ASSERT_TRUE(parse(p, {}, &error));
  EXPECT_EQ(p.option("nodes"), "900");
  EXPECT_FALSE(p.flag("verbose"));
}

TEST(ArgParser, SpaceSeparatedValues) {
  auto p = make_parser();
  std::string error;
  ASSERT_TRUE(parse(p, {"--nodes", "1500", "--name", "hello"}, &error));
  EXPECT_EQ(p.option("nodes"), "1500");
  EXPECT_EQ(p.option("name"), "hello");
}

TEST(ArgParser, EqualsSeparatedValues) {
  auto p = make_parser();
  std::string error;
  ASSERT_TRUE(parse(p, {"--nodes=1200", "--verbose"}, &error));
  EXPECT_EQ(p.option("nodes"), "1200");
  EXPECT_TRUE(p.flag("verbose"));
}

TEST(ArgParser, UnknownOptionFails) {
  auto p = make_parser();
  std::string error;
  EXPECT_FALSE(parse(p, {"--bogus", "1"}, &error));
  EXPECT_NE(error.find("unknown option"), std::string::npos);
}

TEST(ArgParser, MissingValueFails) {
  auto p = make_parser();
  std::string error;
  EXPECT_FALSE(parse(p, {"--nodes"}, &error));
  EXPECT_NE(error.find("needs a value"), std::string::npos);
}

TEST(ArgParser, FlagWithValueFails) {
  auto p = make_parser();
  std::string error;
  EXPECT_FALSE(parse(p, {"--verbose=yes"}, &error));
}

TEST(ArgParser, PositionalArgumentFails) {
  auto p = make_parser();
  std::string error;
  EXPECT_FALSE(parse(p, {"stray"}, &error));
}

TEST(ArgParser, HelpRequested) {
  auto p = make_parser();
  std::string error;
  ASSERT_TRUE(parse(p, {"--help"}, &error));
  EXPECT_TRUE(p.help_requested());
  const auto h = p.help();
  EXPECT_NE(h.find("--nodes"), std::string::npos);
  EXPECT_NE(h.find("default: 900"), std::string::npos);
}

TEST(ArgParser, IntOptionParsesAndValidatesRange) {
  auto p = make_parser();
  std::string error;
  ASSERT_TRUE(parse(p, {"--nodes", "1200"}, &error));
  EXPECT_EQ(p.int_option("nodes", 10, 10000, &error), 1200);
  ASSERT_TRUE(parse(p, {"--nodes", "5"}, &error));
  EXPECT_FALSE(p.int_option("nodes", 10, 10000, &error).has_value());
  EXPECT_NE(error.find("out of range"), std::string::npos);
}

TEST(ArgParser, IntOptionRejectsGarbage) {
  auto p = make_parser();
  std::string error;
  ASSERT_TRUE(parse(p, {"--nodes", "12abc"}, &error));
  EXPECT_FALSE(p.int_option("nodes", 0, 10000, &error).has_value());
}

TEST(ArgParser, DoubleOption) {
  auto p = make_parser();
  std::string error;
  ASSERT_TRUE(parse(p, {"--ratio", "0.75"}, &error));
  EXPECT_DOUBLE_EQ(*p.double_option("ratio", 0.0, 1.0, &error), 0.75);
  for (const char* bad : {"x", "nan", "-nan", "inf", "-inf", "1.5", "0.5z"}) {
    ASSERT_TRUE(parse(p, {"--ratio", bad}, &error));
    error.clear();
    EXPECT_FALSE(p.double_option("ratio", 0.0, 1.0, &error).has_value())
        << bad;
    EXPECT_NE(error.find("--ratio"), std::string::npos) << bad;
  }
  // Infinity is rejected even where the range would admit it.
  ASSERT_TRUE(parse(p, {"--ratio", "inf"}, &error));
  EXPECT_FALSE(p.double_option("ratio", 0.0, HUGE_VAL, &error).has_value());
}

TEST(ArgParser, ChoiceOption) {
  auto p = make_parser();
  std::string error;
  ASSERT_TRUE(parse(p, {"--name", "beta"}, &error));
  EXPECT_EQ(p.choice_option("name", {"alpha", "beta"}, &error), "beta");
  ASSERT_TRUE(parse(p, {"--name", "gamma"}, &error));
  EXPECT_FALSE(p.choice_option("name", {"alpha", "beta"}, &error).has_value());
  EXPECT_NE(error.find("alpha|beta"), std::string::npos);
}

TEST(ArgParser, LaterValueWins) {
  auto p = make_parser();
  std::string error;
  ASSERT_TRUE(parse(p, {"--nodes", "100", "--nodes", "200"}, &error));
  EXPECT_EQ(p.option("nodes"), "200");
}

// --- the shared option tables ---------------------------------------------
//
// Every binary that calls add_engine_options/add_fault_options/
// add_telemetry_options gets the SAME spellings, defaults and error
// behavior; these tests pin that shared surface down.

ArgParser make_shared_parser() {
  ArgParser p("prog", "test program");
  add_engine_options(p);
  add_fault_options(p);
  add_telemetry_options(p);
  add_store_options(p);
  return p;
}

TEST(SharedOptions, DefaultsAreAllOff) {
  auto p = make_shared_parser();
  std::string error;
  ASSERT_TRUE(parse(p, {}, &error));

  engine::QueryEngineConfig engine;
  ASSERT_TRUE(parse_engine_options(p, &engine, &error)) << error;
  EXPECT_EQ(engine.batch_size, 0u);  // --batch off: serial issue
  EXPECT_EQ(engine.batch_deadline, 16u);
  EXPECT_FALSE(engine.cache.enabled);

  sim::FaultPlan plan;
  ASSERT_TRUE(parse_fault_options(p, &plan, &error)) << error;
  EXPECT_FALSE(plan.enabled());

  obs::TelemetryConfig telemetry;
  ASSERT_TRUE(parse_telemetry_options(p, &telemetry, &error)) << error;
  EXPECT_FALSE(telemetry.wants_metrics());
  EXPECT_FALSE(telemetry.wants_trace());
}

TEST(SharedOptions, EngineSpecsRoundTrip) {
  auto p = make_shared_parser();
  std::string error;
  ASSERT_TRUE(parse(p,
                    {"--batch", "32", "--batch-deadline", "64", "--qcache",
                     "ttl:500"},
                    &error));
  engine::QueryEngineConfig engine;
  ASSERT_TRUE(parse_engine_options(p, &engine, &error)) << error;
  EXPECT_EQ(engine.batch_size, 32u);
  EXPECT_EQ(engine.batch_deadline, 64u);
  EXPECT_TRUE(engine.cache.enabled);
  EXPECT_EQ(engine.cache.ttl, 500u);

  ASSERT_TRUE(parse(p, {"--batch", "off", "--qcache", "on"}, &error));
  ASSERT_TRUE(parse_engine_options(p, &engine, &error)) << error;
  EXPECT_EQ(engine.batch_size, 0u);
  EXPECT_TRUE(engine.cache.enabled);
  EXPECT_EQ(engine.cache.ttl, 0u);
}

TEST(SharedOptions, EngineSpecsRejectGarbage) {
  for (const auto& args : std::vector<std::vector<const char*>>{
           {"--batch", "maybe"},
           {"--batch", "-3"},
           {"--qcache", "sometimes"},
           {"--qcache", "ttl:abc"}}) {
    auto p = make_shared_parser();
    std::string error;
    std::vector<const char*> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    ASSERT_TRUE(
        p.parse(static_cast<int>(argv.size()), argv.data(), &error));
    engine::QueryEngineConfig engine;
    EXPECT_FALSE(parse_engine_options(p, &engine, &error)) << args[1];
    EXPECT_FALSE(error.empty());
  }
}

TEST(SharedOptions, StoreSpecsParseAndReject) {
  auto p = make_shared_parser();
  std::string error;
  ASSERT_TRUE(parse(p, {}, &error));
  storage::StoreConfig store;
  ASSERT_TRUE(parse_store_options(p, &store, &error)) << error;
  EXPECT_EQ(store.kind, storage::StoreKind::Flat);  // --store defaults flat

  ASSERT_TRUE(parse(p, {"--store", "paged:32:2:file"}, &error));
  ASSERT_TRUE(parse_store_options(p, &store, &error)) << error;
  EXPECT_EQ(store.kind, storage::StoreKind::Paged);
  EXPECT_EQ(store.paged.pool_pages, 32u);
  EXPECT_EQ(store.paged.page_bytes, 2048u);
  EXPECT_EQ(store.paged.backing, storage::PagedStoreOptions::Backing::File);

  for (const char* bad : {"paged:1:4",  // pool floor is 2
                          "paged:18446744073709551618:1",  // past SIZE_MAX
                          "paged:2:18014398509481984"}) {  // KB * 1024 wraps
    ASSERT_TRUE(parse(p, {"--store", bad}, &error));
    error.clear();
    EXPECT_FALSE(parse_store_options(p, &store, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(SharedOptions, FaultSpecsParseAndReject) {
  auto p = make_shared_parser();
  std::string error;
  ASSERT_TRUE(parse(p, {"--faults", "kill:0.1@5;seed:42"}, &error));
  sim::FaultPlan plan;
  ASSERT_TRUE(parse_fault_options(p, &plan, &error)) << error;
  EXPECT_TRUE(plan.enabled());
  EXPECT_EQ(plan.seed, 42u);

  for (const char* bad : {"explode:now", "kill:nan@5", "degrade:nan@1-2",
                          "blackout:0,0,inf@2"}) {
    ASSERT_TRUE(parse(p, {"--faults", bad}, &error));
    error.clear();
    EXPECT_FALSE(parse_fault_options(p, &plan, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(SharedOptions, TelemetrySpecsParseAndReject) {
  auto p = make_shared_parser();
  std::string error;
  ASSERT_TRUE(parse(p, {"--metrics", "json:/tmp/x.json", "--trace", "64"},
                    &error));
  obs::TelemetryConfig telemetry;
  ASSERT_TRUE(parse_telemetry_options(p, &telemetry, &error)) << error;
  EXPECT_EQ(telemetry.format, obs::MetricsFormat::Json);
  EXPECT_EQ(telemetry.path, "/tmp/x.json");
  EXPECT_EQ(telemetry.trace_capacity, 64u);

  ASSERT_TRUE(parse(p, {"--metrics", "yaml"}, &error));
  EXPECT_FALSE(parse_telemetry_options(p, &telemetry, &error));
  EXPECT_FALSE(error.empty());

  ASSERT_TRUE(parse(p, {"--trace", "-1"}, &error));
  EXPECT_FALSE(parse_telemetry_options(p, &telemetry, &error));
}

// --- the --systems list -------------------------------------------------

using benchsup::SystemKind;

TEST(SystemsList, ParsesNamesInOrder) {
  std::vector<SystemKind> systems;
  std::string error;
  ASSERT_TRUE(parse_systems("central,pool", &systems, &error)) << error;
  EXPECT_EQ(systems,
            (std::vector<SystemKind>{SystemKind::Central, SystemKind::Pool}));
}

TEST(SystemsList, AllSelectsEveryKindInReportOrder) {
  std::vector<SystemKind> systems;
  std::string error;
  ASSERT_TRUE(parse_systems("all", &systems, &error)) << error;
  EXPECT_EQ(systems, (std::vector<SystemKind>{SystemKind::Pool, SystemKind::Dim,
                                              SystemKind::Ght,
                                              SystemKind::Central}));
}

TEST(SystemsList, RejectsARepeat) {
  std::vector<SystemKind> systems;
  std::string error;
  EXPECT_FALSE(parse_systems("pool,pool", &systems, &error));
  EXPECT_EQ(error, "--systems: 'pool' listed twice");
  // "all" already names every kind, so anything beside it repeats.
  EXPECT_FALSE(parse_systems("pool,all", &systems, &error));
  EXPECT_EQ(error, "--systems: 'pool' listed twice");
  EXPECT_FALSE(parse_systems("all,ght", &systems, &error));
  EXPECT_EQ(error, "--systems: 'ght' listed twice");
  EXPECT_TRUE(systems.empty()) << "a rejected list must not leak entries";
}

TEST(SystemsList, RejectsEmptyAndUnknownNames) {
  std::vector<SystemKind> systems;
  std::string error;
  EXPECT_FALSE(parse_systems("pool,", &systems, &error));
  EXPECT_NE(error.find("unknown system ''"), std::string::npos) << error;
  EXPECT_FALSE(parse_systems("", &systems, &error));
  EXPECT_FALSE(parse_systems("pool,ghost", &systems, &error));
  EXPECT_EQ(error.rfind("--systems: unknown system 'ghost'", 0), 0u) << error;
  EXPECT_TRUE(systems.empty());
}

}  // namespace
}  // namespace poolnet::cli
