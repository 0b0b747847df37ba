#include "bench_support/telemetry_bridge.h"

#include "storage/column/column_store.h"

namespace poolnet::benchsup {

void publish_network(obs::Snapshot& snap, const std::string& prefix,
                     const net::Network& net,
                     const obs::HopEnergyModel& hop_energy) {
  const auto& nodes = net.nodes();
  const std::size_t n = nodes.size();

  auto& tx = snap.series[prefix + ".node.tx"];
  auto& rx = snap.series[prefix + ".node.rx"];
  auto& retries = snap.series[prefix + ".node.retries"];
  auto& drops = snap.series[prefix + ".node.drops"];
  auto& stored = snap.series[prefix + ".node.stored"];
  auto& energy = snap.series[prefix + ".node.energy_j"];
  for (auto* lane : {&tx, &rx, &retries, &drops, &stored, &energy}) {
    if (lane->size() < n) lane->resize(n, 0.0);
  }

  std::uint64_t tx_total = 0, rx_total = 0, retry_total = 0, drop_total = 0;
  std::vector<std::uint64_t> loads(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const net::Node& node = nodes[i];
    tx[i] += static_cast<double>(node.tx_count);
    rx[i] += static_cast<double>(node.rx_count);
    retries[i] += static_cast<double>(node.retry_count);
    drops[i] += static_cast<double>(node.drop_count);
    stored[i] += static_cast<double>(node.stored_events);
    energy[i] += node.energy_spent_j;
    tx_total += node.tx_count;
    rx_total += node.rx_count;
    retry_total += node.retry_count;
    drop_total += node.drop_count;
    loads[i] = node.stored_events;
  }

  snap.counters[prefix + ".net.messages"] += net.traffic().total;
  snap.counters[prefix + ".net.lost"] += net.traffic().lost;
  snap.counters[prefix + ".net.retries"] += retry_total;
  snap.counters[prefix + ".net.drops"] += drop_total;
  snap.gauges[prefix + ".net.energy_j"] += net.traffic().energy_j;
  snap.gauges[prefix + ".net.hop_energy_j"] +=
      hop_energy.cost_j(tx_total, rx_total);

  obs::publish_load_report(snap, prefix + ".storage", loads);
}

void publish_fault_stats(obs::Snapshot& snap, const std::string& prefix,
                         const storage::FaultStats& fs) {
  snap.counters[prefix + ".faults.failovers"] += fs.failovers;
  snap.counters[prefix + ".faults.events_lost"] += fs.events_lost;
  snap.counters[prefix + ".faults.events_restored"] += fs.events_restored;
  snap.counters[prefix + ".faults.retries"] += fs.retries;
  snap.counters[prefix + ".faults.failed_legs"] += fs.failed_legs;
}

void publish_scan_stats(obs::Snapshot& snap, const std::string& prefix,
                        const storage::column::ScanStats& stats) {
  snap.counters[prefix + ".store.scan.rows_scanned"] += stats.rows_scanned;
  snap.counters[prefix + ".store.scan.blocks_skipped"] += stats.blocks_skipped;
  snap.counters[prefix + ".store.scan.bytes_touched"] += stats.bytes_touched;
}

obs::Snapshot scrape_testbed(Testbed& tb) {
  obs::Snapshot snap = tb.metrics().scrape();
  for (const SystemKind kind : kAllSystemKinds) {
    if (!tb.deployed(kind)) continue;
    const std::string prefix = to_string(kind);
    const storage::DcsSystem& system = tb.deploy(kind);
    publish_network(snap, prefix, tb.network(kind));
    publish_fault_stats(snap, prefix, system.fault_stats());
    if (const auto* s = system.scan_stats())
      publish_scan_stats(snap, prefix, *s);
    if (const auto* trace = tb.trace(kind)) {
      snap.gauges[prefix + ".trace.recorded"] +=
          static_cast<double>(trace->recorded());
    }
  }
  return snap;
}

}  // namespace poolnet::benchsup
