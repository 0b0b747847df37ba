// Message taxonomy and size model.
//
// The paper's evaluation metric is "number of messages" exchanged while
// processing a query: query forwarding plus reply retrieval. We tag each
// per-hop transmission with a kind so benches can report the breakdown,
// and attach a bit-size model so the energy numbers are meaningful.
#pragma once

#include <array>
#include <cstdint>

namespace poolnet::net {

enum class MessageKind : std::uint8_t {
  Insert = 0,   ///< event en route to its storage node
  Query = 1,    ///< query from sink toward splitter / zone
  SubQuery = 2, ///< split query between index nodes / zones
  Reply = 3,    ///< qualifying events returning to the sink
  Control = 4,  ///< beacons, DHT lookups, workload-sharing handoff
};

inline constexpr std::size_t kMessageKindCount = 5;

constexpr const char* to_string(MessageKind k) {
  switch (k) {
    case MessageKind::Insert: return "insert";
    case MessageKind::Query: return "query";
    case MessageKind::SubQuery: return "subquery";
    case MessageKind::Reply: return "reply";
    case MessageKind::Control: return "control";
  }
  return "?";
}

/// Payload size model, in bits. Defaults follow typical mote packets
/// (TinyOS-era 36-byte frames were common; we allow a bit more headroom).
struct MessageSizes {
  std::uint64_t header_bits = 64;          ///< per-message routing header
  std::uint64_t attr_bits = 32;            ///< per attribute value
  std::uint64_t query_bound_bits = 32;     ///< per range bound
  std::uint64_t control_bits = 128;        ///< control payload

  /// How many qualifying events one reply message can carry. 0 means
  /// unlimited — every answering node sends ONE reply regardless of how
  /// many events qualify, which is the counting convention that matches
  /// the paper's near-flat Pool curves (its metric counts message
  /// exchanges, not payload volume). Finite values model real mote frame
  /// limits; bench/paper_figures sweeps the knob (ablation_reply_packing).
  std::uint32_t events_per_message = 0;

  /// Reply messages needed for `events` qualifying events under the
  /// configured packing (0 replies for 0 events).
  constexpr std::uint64_t reply_batches(std::uint64_t events) const {
    if (events == 0) return 0;
    if (events_per_message == 0) return 1;
    return (events + events_per_message - 1) / events_per_message;
  }

  /// Events carried by one (average) reply batch for sizing purposes.
  constexpr std::uint32_t reply_payload(std::uint64_t events) const {
    if (events == 0) return 0;
    if (events_per_message == 0) return static_cast<std::uint32_t>(events);
    return events_per_message;
  }

  constexpr std::uint64_t event_bits(std::size_t dims) const {
    return header_bits + attr_bits * dims;
  }
  constexpr std::uint64_t query_bits(std::size_t dims) const {
    return header_bits + 2 * query_bound_bits * dims;
  }
  constexpr std::uint64_t reply_bits(std::size_t dims,
                                     std::uint32_t events) const {
    return header_bits + attr_bits * dims * events;
  }
  /// A partial aggregate (sum, min, max, count) — fixed size, the whole
  /// point of in-network aggregation.
  constexpr std::uint64_t aggregate_bits() const {
    return header_bits + 4 * attr_bits;
  }
};

/// Link-layer loss and retransmission model.
///
/// Each hop attempt fails independently with `loss_probability`; the
/// sender retransmits (ARQ) until the frame gets through, up to
/// `max_attempts` per hop, after which delivery is forced (persistent
/// ARQ with bounded accounting — routing algorithms stay lossless, the
/// LEDGER carries the cost of the unreliable channel). Every attempt is
/// a transmission: it counts as a message and burns transmit energy;
/// receive energy is charged once, for the successful frame.
struct LinkLossModel {
  double loss_probability = 0.0;  ///< 0 = ideal links (the paper's model)
  std::uint32_t max_attempts = 16;
};

/// Global per-kind tallies (per-hop transmissions).
struct TrafficTally {
  std::array<std::uint64_t, kMessageKindCount> by_kind{};
  std::uint64_t total = 0;
  /// Messages whose final hop was addressed to a dead node: the sender
  /// burned its full ARQ budget waiting for an ack that never came.
  std::uint64_t lost = 0;
  double energy_j = 0.0;

  std::uint64_t of(MessageKind k) const {
    return by_kind[static_cast<std::size_t>(k)];
  }

  void clear() {
    by_kind.fill(0);
    total = 0;
    lost = 0;
    energy_j = 0.0;
  }

  friend TrafficTally operator-(TrafficTally a, const TrafficTally& b) {
    for (std::size_t i = 0; i < kMessageKindCount; ++i)
      a.by_kind[i] -= b.by_kind[i];
    a.total -= b.total;
    a.lost -= b.lost;
    a.energy_j -= b.energy_j;
    return a;
  }
};

}  // namespace poolnet::net
