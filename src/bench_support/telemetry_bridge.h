// Bridges the simulator's accounting structures into obs::Snapshot so
// every surface (CLI --metrics, bench JSON sections, CI artifacts) emits
// through the one telemetry API.
//
// Publication happens at SCRAPE time, single-threaded, after the
// deployment's work is done — the hot paths only bump plain uint64
// fields (per-node counters, registry shards); nothing here runs per
// message. Publish in deployment order for bit-stable float sums.
#pragma once

#include <string>

#include "bench_support/testbed.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "storage/dcs_system.h"

namespace poolnet::benchsup {

/// Publishes one network's accounting under `prefix`:
///  * counters  <prefix>.net.messages / .lost / .retries / .drops
///  * gauges    <prefix>.net.energy_j (radio model) and
///              <prefix>.net.hop_energy_j (per-hop ε_tx/ε_rx model)
///  * series    <prefix>.node.tx/rx/retries/drops/stored/energy_j
///              (per-node lanes, index = NodeId)
///  * the storage hotspot report: <prefix>.storage.load.* gauges plus
///    the <prefix>.storage.occupancy histogram (from Node::stored_events)
void publish_network(obs::Snapshot& snap, const std::string& prefix,
                     const net::Network& net,
                     const obs::HopEnergyModel& hop_energy = {});

/// Publishes fault-tolerance counters as <prefix>.faults.failovers,
/// .events_lost, .events_restored, .retries, .failed_legs.
void publish_fault_stats(obs::Snapshot& snap, const std::string& prefix,
                         const storage::FaultStats& fs);

/// Publishes columnar scan-kernel counters (DESIGN.md §14) as
/// <prefix>.store.scan.rows_scanned, .blocks_skipped, .bytes_touched —
/// how much column data the zone-map kernels actually read vs pruned.
void publish_scan_stats(obs::Snapshot& snap, const std::string& prefix,
                        const storage::column::ScanStats& stats);

/// One-call scrape of a whole testbed: the registry (route caches plus
/// whatever callers registered) and, for every deployed kind, its
/// network, fault stats, scan stats and hop-trace depth gauge under
/// "<kind>.".
obs::Snapshot scrape_testbed(Testbed& tb);

}  // namespace poolnet::benchsup
