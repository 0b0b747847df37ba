#include "cli/runner.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "fingerprint.h"
#include "sim/fault_plan.h"

namespace poolnet::cli {
namespace {

using benchsup::SystemKind;

CliConfig small_config() {
  CliConfig config;
  config.systems = {SystemKind::Pool, SystemKind::Dim};
  config.nodes = 150;
  config.queries = 10;
  config.seed = 5;
  return config;
}

TEST(CliRunner, RunsPoolAndDimWithZeroMismatches) {
  std::ostringstream out;
  const auto results = run_experiment(small_config(), out);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_EQ(r.mismatches, 0u);
    EXPECT_GT(r.mean_messages, 0.0);
    EXPECT_GT(r.insert_messages_per_event, 0.0);
  }
  const auto text = out.str();
  EXPECT_NE(text.find("pool"), std::string::npos);
  EXPECT_NE(text.find("dim"), std::string::npos);
  EXPECT_NE(text.find("150 nodes"), std::string::npos);
}

TEST(CliRunner, GhtSystemRunsToo) {
  auto config = small_config();
  config.systems = {SystemKind::Ght};
  config.flavor = QueryFlavor::Point;
  std::ostringstream out;
  const auto results = run_experiment(config, out);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].mismatches, 0u);
}

TEST(CliRunner, PartialFlavorsWork) {
  for (const auto flavor : {QueryFlavor::OnePartial, QueryFlavor::TwoPartial}) {
    auto config = small_config();
    config.flavor = flavor;
    std::ostringstream out;
    const auto results = run_experiment(config, out);
    for (const auto& r : results) EXPECT_EQ(r.mismatches, 0u);
  }
}

TEST(CliRunner, MultipleDeploymentsAggregate) {
  auto config = small_config();
  config.deployments = 2;
  config.queries = 5;
  std::ostringstream out;
  const auto results = run_experiment(config, out);
  EXPECT_EQ(results[0].mismatches, 0u);
}

TEST(CliRunner, CsvExportWritesHeaderOnceAndAppends) {
  const std::string path = ::testing::TempDir() + "/poolnet_cli_test.csv";
  std::filesystem::remove(path);

  auto config = small_config();
  config.csv_path = path;
  std::ostringstream out;
  run_experiment(config, out);
  run_experiment(config, out);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0, headers = 0;
  while (std::getline(in, line)) {
    ++lines;
    if (line.rfind("system,", 0) == 0) ++headers;
  }
  EXPECT_EQ(headers, 1u);
  EXPECT_EQ(lines, 1u + 2u * 2u);  // header + 2 systems x 2 runs
  std::filesystem::remove(path);
}

TEST(CliRunner, RejectsEmptySystemList) {
  auto config = small_config();
  config.systems.clear();
  std::ostringstream out;
  EXPECT_THROW(run_experiment(config, out), poolnet::ConfigError);
}

TEST(CliRunner, RejectsPartialQueriesOnOneDimension) {
  auto config = small_config();
  config.dims = 1;
  config.flavor = QueryFlavor::OnePartial;
  std::ostringstream out;
  EXPECT_THROW(run_experiment(config, out), poolnet::ConfigError);
}

/// Every CliResult field plus the exact stdout bytes of one
/// `--systems all` run, folded into one FNV-1a hash.
std::uint64_t all_systems_hash(const CliConfig& config) {
  std::ostringstream out;
  const auto results = run_experiment(config, out);
  Fingerprint fp;
  for (const CliResult& r : results) {
    fp.add(static_cast<std::uint64_t>(r.system));
    fp.add_bits(r.mean_messages);
    fp.add_bits(r.mean_query_messages);
    fp.add_bits(r.mean_reply_messages);
    fp.add_bits(r.mean_results);
    fp.add_bits(r.mean_nodes_visited);
    fp.add_bits(r.insert_messages_per_event);
    fp.add(r.mismatches);
    fp.add_bits(r.recall);
    fp.add(r.retries);
    fp.add(r.failovers);
    fp.add(r.events_lost);
  }
  for (const char c : out.str()) fp.add(static_cast<unsigned char>(c));
  return fp.hash();
}

// Pins every system's numbers and the rendered report across the run
// shapes that exercise deployment: plain, the query-class mix, live
// faults, a non-default α (Pool's cell size) and parallel seeds.
// Recorded when GHT and central were still hand-built per caller.
TEST(CliRunner, AllSystemsMatchParentFingerprint) {
  CliConfig base = small_config();
  base.systems.assign(benchsup::kAllSystemKinds.begin(),
                      benchsup::kAllSystemKinds.end());
  base.queries = 20;

  CliConfig mix = base;
  mix.query_class = query::QueryClassMix::Mix;
  CliConfig faults = base;
  std::string error;
  ASSERT_TRUE(sim::parse_fault_spec("kill:0.2@15", &faults.faults, &error))
      << error;
  CliConfig alpha = base;
  alpha.pool.cell_size = 7.5;
  CliConfig seeds = base;
  seeds.deployments = 3;
  seeds.threads = 2;

  EXPECT_EQ(all_systems_hash(base), 0x9613c7b6dc4b6cc3ULL);
  EXPECT_EQ(all_systems_hash(mix), 0xa20ba7583bf5d765ULL);
  // The route cache forgets killed nodes before its next lookup, so the
  // faulted run hashes the same with the cache on and off.
  CliConfig faults_uncached = faults;
  faults_uncached.route_cache.enabled = false;
  EXPECT_EQ(all_systems_hash(faults), 0xd9f61673271bb6d4ULL);
  EXPECT_EQ(all_systems_hash(faults_uncached), 0xd9f61673271bb6d4ULL);
  EXPECT_EQ(all_systems_hash(alpha), 0x494fbba07c839aaeULL);
  EXPECT_EQ(all_systems_hash(seeds), 0x717c52404f9d3813ULL);
}

TEST(CliRunner, NamesAreStable) {
  EXPECT_STREQ(to_string(SystemKind::Pool), "pool");
  EXPECT_STREQ(to_string(SystemKind::Ght), "ght");
  EXPECT_STREQ(to_string(QueryFlavor::TwoPartial), "2-partial");
}

}  // namespace
}  // namespace poolnet::cli
