#include "bench_support/testbed.h"

#include "common/assert.h"
#include "common/error.h"
#include "common/logging.h"
#include "ght/ght_system.h"

namespace poolnet::benchsup {

const char* to_string(SystemKind kind) {
  switch (kind) {
    case SystemKind::Pool: return "pool";
    case SystemKind::Dim: return "dim";
    case SystemKind::Ght: return "ght";
    case SystemKind::Central: return "central";
  }
  return "?";
}

bool parse_system_kind(const std::string& name, SystemKind* out,
                       std::string* error) {
  for (const SystemKind kind : kAllSystemKinds) {
    if (name == to_string(kind)) {
      *out = kind;
      return true;
    }
  }
  *error = "unknown system '" + name + "' (expected pool, dim, ght or central)";
  return false;
}

Testbed::Testbed(TestbedConfig config)
    : metrics_(std::make_unique<obs::MetricsRegistry>()),
      config_(config) {
  const double side = net::field_side_for_density(
      config.nodes, config.radio_range, config.avg_neighbors);
  const Rect field{0.0, 0.0, side, side};

  // Re-draw until the unit-disk graph is connected; every retry derives a
  // fresh deployment stream from the master seed, so a Testbed is still a
  // pure function of its config.
  Rng master(config.seed);
  constexpr int kMaxDraws = 64;
  for (int attempt = 0; attempt < kMaxDraws; ++attempt) {
    Rng deploy = master.split();
    auto candidate = std::make_shared<const net::Topology>(
        net::deploy_uniform(config.nodes, field, deploy), field,
        config.radio_range);
    if (candidate->is_connected()) {
      topology_ = std::move(candidate);
      break;
    }
    POOLNET_DEBUG("Testbed: disconnected deployment, retrying (attempt "
                  << attempt << ")");
  }
  if (!topology_)
    throw ConfigError(
        "Testbed: could not draw a connected deployment; density too low");

  Deployment& pool = wire(SystemKind::Pool);
  pool.system = std::make_unique<core::PoolSystem>(
      *pool.network, pool.router(), config.dims, config.pool);
  Deployment& dim = wire(SystemKind::Dim);
  dim.system = std::make_unique<dim::DimSystem>(*dim.network, dim.router(),
                                                config.dims);
  oracle_ = std::make_unique<storage::BruteForceStore>(config.dims);
}

Testbed::Deployment& Testbed::wire(SystemKind kind) {
  Deployment& d = slot(kind);
  // Each kind draws its own ARQ stream; Pool keeps seed*3+1 and DIM
  // seed*3+2, the seeds their ledgers were recorded with.
  d.network = std::make_unique<net::Network>(
      topology_, config_.sizes, sim::EnergyModel{}, config_.loss,
      config_.seed * 3 + 1 + static_cast<std::uint64_t>(kind));
  d.gpsr = std::make_unique<routing::Gpsr>(*d.network);
  // Only Pool's legs recur often enough for a stored route to beat the
  // greedy memo; DIM, GHT and central route through Gpsr alone.
  if (kind == SystemKind::Pool && config_.route_cache.enabled) {
    d.cache = std::make_unique<routing::RouteCache>(
        *d.gpsr, config_.route_cache, metrics_.get(),
        std::string(to_string(kind)) + ".route_cache");
  }
  if (config_.trace_capacity > 0) {
    d.trace = std::make_unique<obs::RingTraceSink>(config_.trace_capacity);
    d.network->set_trace(d.trace.get());
  }
  return d;
}

storage::DcsSystem& Testbed::deploy(SystemKind kind,
                                    const storage::StoreConfig& store) {
  Deployment& d = slot(kind);
  if (d.system) return *d.system;

  wire(kind);
  if (kind == SystemKind::Ght) {
    d.system = std::make_unique<ght::GhtSystem>(*d.network, d.router(),
                                                config_.dims);
  } else {
    // Base station = node 0, the server's sink(), so client operations
    // and answers share one endpoint.
    d.system = storage::make_central_store(config_.dims, store,
                                           d.network.get(), &d.router(),
                                           net::NodeId{0}, metrics_.get());
  }
  // Replay the oracle's log: source-preserving inserts in insertion
  // order, the order every serial-equivalence fingerprint depends on.
  for (const storage::Event& e : oracle_->all()) d.system->insert(e.source, e);
  d.insert_traffic = d.network->traffic();
  d.network->reset_traffic();
  return *d.system;
}

net::Network& Testbed::network(SystemKind kind) {
  Deployment& d = slot(kind);
  POOLNET_ASSERT_MSG(d.network != nullptr,
                     std::string(to_string(kind)) + " is not deployed");
  return *d.network;
}

std::size_t Testbed::insert_workload() {
  query::WorkloadConfig wc = config_.workload;
  wc.dims = config_.dims;
  Rng seed_stream(config_.seed ^ 0x9e3779b97f4a7c15ULL);
  query::EventGenerator gen(wc, seed_stream());

  for (Deployment& d : slots_)
    if (d.system) d.network->reset_traffic();

  std::size_t inserted = 0;
  for (net::NodeId n = 0; n < topology_->size(); ++n) {
    for (std::size_t i = 0; i < config_.events_per_node; ++i) {
      const storage::Event e = gen.next(n);
      for (Deployment& d : slots_)
        if (d.system) d.system->insert(n, e);
      oracle_->insert(n, e);
      ++inserted;
    }
  }
  for (Deployment& d : slots_) {
    if (!d.system) continue;
    d.insert_traffic = d.network->traffic();
    d.network->reset_traffic();
  }
  return inserted;
}

net::NodeId Testbed::random_node(Rng& rng) const {
  return static_cast<net::NodeId>(
      rng.uniform_int(0, static_cast<std::int64_t>(topology_->size()) - 1));
}

}  // namespace poolnet::benchsup
