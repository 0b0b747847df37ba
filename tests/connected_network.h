// Random connected deployments for tests that wire a system by hand.
#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.h"
#include "net/deployment.h"
#include "net/network.h"

namespace poolnet {

/// `n` nodes uniform over the square that gives `avg_neighbors` at a 40 m
/// radio range, re-drawn from seed + attempt * stride until the unit-disk
/// graph is connected. The stride is part of each caller's draws.
inline std::unique_ptr<net::Network> connected_network(
    std::uint64_t seed, std::size_t n, std::uint64_t stride = 7919,
    double avg_neighbors = 20.0) {
  const double side = net::field_side_for_density(n, 40.0, avg_neighbors);
  const Rect field{0, 0, side, side};
  for (std::uint64_t attempt = 0;; ++attempt) {
    Rng rng(seed + attempt * stride);
    auto network = std::make_unique<net::Network>(
        net::deploy_uniform(n, field, rng), field, 40.0);
    if (network->is_connected()) return network;
  }
}

}  // namespace poolnet
