// The one canonical "replay oracle events into a system" loop.
//
// Testbed::deploy builds GHT and central after the testbed has already
// generated + inserted the workload, so they bootstrap by replaying the
// oracle's event log in insertion order. Keeping that loop in one place
// pins the contract: source-preserving inserts, oracle order — the order
// every serial-equivalence fingerprint depends on.
#pragma once

#include <cstddef>

#include "storage/brute_force_store.h"
#include "storage/dcs_system.h"

namespace poolnet::benchsup {

/// Replays every oracle event into `system` via
/// `system.insert(e.source, e)`, in oracle (= insertion) order.
/// Returns the number of events replayed.
std::size_t replay_oracle(const storage::BruteForceStore& oracle,
                          storage::DcsSystem& system);

}  // namespace poolnet::benchsup
