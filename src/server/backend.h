// The serving stack poolnetd fronts: one deployed Testbed, ONE of the
// four DCS systems chosen at startup, and a batched QueryEngine over it.
//
// Built identically by the server binary and by bench/server_load's
// direct-execution arm — same config, same seeds, same construction
// order — which is what makes "server receipts are byte-identical to
// direct engine execution" a meaningful comparison across processes.
#pragma once

#include <memory>
#include <string>

#include "bench_support/testbed.h"
#include "engine/query_engine.h"
#include "storage/store_config.h"

namespace poolnet::server {

/// The Testbed's enum; server code and its clients spell it
/// server::SystemKind.
using SystemKind = benchsup::SystemKind;

struct BackendConfig {
  SystemKind system = SystemKind::Pool;
  std::size_t nodes = 300;
  std::size_t dims = 3;
  std::size_t events_per_node = 3;  ///< workload preloaded before serving
  std::uint64_t seed = 1;
  engine::QueryEngineConfig engine;  ///< server-side batching + result cache
  storage::StoreConfig store;        ///< central store engine (--store)
};

/// Deploys the testbed, preloads the workload, deploys the chosen system
/// through Testbed::deploy, and binds a QueryEngine to it.
/// Single-threaded, like the Testbed underneath.
class Backend {
 public:
  explicit Backend(BackendConfig config);

  const BackendConfig& config() const { return config_; }
  storage::DcsSystem& system() { return *system_; }
  engine::QueryEngine& engine() { return *engine_; }
  benchsup::Testbed& testbed() { return *testbed_; }
  obs::MetricsRegistry& metrics() { return testbed_->metrics(); }

  /// Where client operations enter the network — the paper's sink.
  /// Deterministic (node 0) so separately-built backends agree.
  net::NodeId sink() const { return 0; }

  /// Events preloaded by the workload; server-side inserts must number
  /// their events above this to stay unique.
  std::uint64_t preloaded_events() const { return preloaded_; }

 private:
  BackendConfig config_;
  std::unique_ptr<benchsup::Testbed> testbed_;
  storage::DcsSystem* system_ = nullptr;
  std::unique_ptr<engine::QueryEngine> engine_;
  std::uint64_t preloaded_ = 0;
};

}  // namespace poolnet::server
