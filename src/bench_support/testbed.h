// A fully deployed experimental testbed (§5.1 of the paper).
//
// One Testbed = one random sensor deployment (optionally over lossy
// links) with every DCS system bound to it and a brute-force oracle for
// correctness checking. It is the one place that deploys a system: Pool
// and DIM at construction, GHT and central on their first deploy(). The
// deployment is one immutable net::Topology (positions, neighbor tables,
// planar graph), built once and shared by every system. Each system
// charges its own net::Network ledger over it, with the config's sizes
// and loss model, so per-node state (alive bits, stored events, energy,
// tx/rx) never mixes across systems — in particular Pool's
// workload-sharing threshold must not see DIM's storage load.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/pool_system.h"
#include "dim/dim_system.h"
#include "net/deployment.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/workload.h"
#include "routing/gpsr.h"
#include "routing/route_cache.h"
#include "storage/brute_force_store.h"
#include "storage/store_config.h"

namespace poolnet::benchsup {

/// The four schemes a Testbed deploys. Central is the paper's strawman
/// baseline: every event shipped to a base station (node 0), queries
/// answered there, through the flat or the paged store.
enum class SystemKind { Pool, Dim, Ght, Central };

/// Every kind, in report order (what `--systems all` selects).
inline constexpr std::array<SystemKind, 4> kAllSystemKinds = {
    SystemKind::Pool, SystemKind::Dim, SystemKind::Ght, SystemKind::Central};

/// "pool", "dim", "ght" or "central" — also the metrics prefix.
const char* to_string(SystemKind kind);

/// Inverse of to_string. Returns false and sets `error` on any other name.
bool parse_system_kind(const std::string& name, SystemKind* out,
                       std::string* error);

struct TestbedConfig {
  std::size_t nodes = 900;        ///< network size (paper: 300..2700)
  double radio_range = 40.0;      ///< meters (paper: 40)
  double avg_neighbors = 20.0;    ///< density target (paper: ~20)
  std::size_t dims = 3;           ///< event dimensionality (paper: 3)
  std::size_t events_per_node = 3;  ///< workload volume (paper: 3)
  core::PoolConfig pool;            ///< α = 5 m, l = 10 by default
  query::WorkloadConfig workload;   ///< uniform values by default
  std::uint64_t seed = 1;           ///< master seed (deployment + workload)
  net::MessageSizes sizes;          ///< packet size model
  net::LinkLossModel loss;          ///< per-hop loss + ARQ (default ideal)

  /// Route memoization over Pool's GPSR instance; the other kinds route
  /// through their Gpsr and its greedy memo alone (DESIGN.md §7).
  routing::RouteCacheConfig route_cache;

  /// Hop-trace ring size attached to every network; 0 (default) leaves
  /// tracing disabled at its one-branch-per-hop cost.
  std::size_t trace_capacity = 0;
};

class Testbed {
 public:
  /// Deploys until the unit-disk graph is connected (re-drawing positions
  /// with derived seeds; disconnected draws are rare at 20 neighbors).
  /// Builds Pool, DIM and the oracle; GHT and central wait for deploy().
  explicit Testbed(TestbedConfig config);

  const TestbedConfig& config() const { return config_; }

  /// The one deployment every system's network shares.
  const std::shared_ptr<const net::Topology>& topology() const {
    return topology_;
  }

  /// The `kind` system over this deployment. Pool and DIM exist from
  /// construction. The first call for GHT or central builds it on its own
  /// network over the shared topology, replays the oracle into it —
  /// recorded as insert_traffic(kind) — and resets its ledger; later
  /// calls return the same object. `store` selects central's engine and
  /// is read by that first call only.
  storage::DcsSystem& deploy(SystemKind kind,
                             const storage::StoreConfig& store = {});

  /// Whether `kind` has a system yet (Pool and DIM always do).
  bool deployed(SystemKind kind) const { return slot(kind).system != nullptr; }

  /// `kind`'s own network; `kind` must be deployed.
  net::Network& network(SystemKind kind);

  /// Insertion traffic charged to `kind` by insert_workload() or, for
  /// GHT and central, by the replay in deploy().
  net::TrafficTally insert_traffic(SystemKind kind) const {
    return slot(kind).insert_traffic;
  }

  /// `kind`'s route cache; null for every kind but Pool, and for Pool when
  /// caching is disabled.
  const routing::RouteCache* route_cache(SystemKind kind) const {
    return slot(kind).cache.get();
  }

  /// `kind`'s hop-trace ring; null unless config.trace_capacity > 0 and
  /// `kind` is deployed.
  const obs::RingTraceSink* trace(SystemKind kind) const {
    return slot(kind).trace.get();
  }

  net::Network& pool_network() { return network(SystemKind::Pool); }
  net::Network& dim_network() { return network(SystemKind::Dim); }
  core::PoolSystem& pool() {
    return static_cast<core::PoolSystem&>(*slot(SystemKind::Pool).system);
  }
  dim::DimSystem& dim() {
    return static_cast<dim::DimSystem&>(*slot(SystemKind::Dim).system);
  }
  storage::BruteForceStore& oracle() { return *oracle_; }
  const routing::Gpsr& pool_gpsr() const {
    return *slot(SystemKind::Pool).gpsr;
  }

  /// Generates events_per_node events at every node and inserts each into
  /// every deployed system and the oracle. Returns the number of events
  /// inserted.
  std::size_t insert_workload();

  net::TrafficTally pool_insert_traffic() const {
    return insert_traffic(SystemKind::Pool);
  }
  net::TrafficTally dim_insert_traffic() const {
    return insert_traffic(SystemKind::Dim);
  }

  /// Uniformly random node id (query sinks).
  net::NodeId random_node(Rng& rng) const;

  /// The deployment-wide metrics registry: Pool's route cache registers
  /// under "pool.route_cache", and callers (query engines, benches)
  /// should register their own instruments here so one scrape sees the
  /// whole testbed.
  obs::MetricsRegistry& metrics() { return *metrics_; }
  const obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  /// One system and everything it routes over. Members are declared in
  /// dependency order, so the system dies before its cache and network.
  struct Deployment {
    std::unique_ptr<net::Network> network;
    std::unique_ptr<routing::Gpsr> gpsr;
    std::unique_ptr<routing::RouteCache> cache;  ///< Pool's, when enabled
    std::unique_ptr<obs::RingTraceSink> trace;   ///< null when disabled
    std::unique_ptr<storage::DcsSystem> system;
    net::TrafficTally insert_traffic;

    /// The router the system sees: the cache when there is one, else Gpsr.
    const routing::Router& router() const {
      if (cache) return *cache;
      return *gpsr;
    }
  };

  Deployment& slot(SystemKind kind) {
    return slots_[static_cast<std::size_t>(kind)];
  }
  const Deployment& slot(SystemKind kind) const {
    return slots_[static_cast<std::size_t>(kind)];
  }

  /// Fills `kind`'s slot: its own Network over the shared topology (the
  /// config's sizes and loss, loss seed seed*3+1+kind), Gpsr, then, for
  /// Pool, the route cache under "pool.route_cache" (when enabled), then
  /// the trace ring (when trace_capacity > 0).
  Deployment& wire(SystemKind kind);

  /// Heap-held (registry owns a mutex) so Testbed stays movable; declared
  /// before its users so Pool's cache can register in the ctor.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  TestbedConfig config_;
  std::shared_ptr<const net::Topology> topology_;
  std::array<Deployment, kAllSystemKinds.size()> slots_;
  std::unique_ptr<storage::BruteForceStore> oracle_;
};

}  // namespace poolnet::benchsup
