// Hop-level tracing: an optional sink the Network reports every per-hop
// transmission to.
//
// Tracing is OFF by default and costs exactly one predictable branch per
// hop when disabled (a null-pointer test in Network::transmit). When a
// sink is attached, each hop is recorded as a compact fixed-size
// HopRecord; the bundled RingTraceSink keeps the most recent `capacity`
// records in a preallocated ring so tracing never allocates on the hot
// path and long runs cannot exhaust memory.
//
// This header is intentionally free of net/ dependencies (node ids are
// raw integers, the kind is the MessageKind value) so the obs library
// stays at the bottom of the dependency stack.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace poolnet::obs {

/// One per-hop radio transmission.
struct HopRecord {
  std::uint64_t msg_id = 0;    ///< end-to-end message the hop belongs to
  std::uint64_t tick = 0;      ///< ledger clock (total transmissions so far)
  std::uint32_t src = 0;       ///< transmitting node
  std::uint32_t dst = 0;       ///< addressed neighbor
  std::uint32_t hop_index = 0; ///< position within the message's path
  std::uint8_t kind = 0;       ///< net::MessageKind value
  bool delivered = true;       ///< false: receiver dead, frame lost
};
// Widening hop_index to 32 bits (GPSR's hop budget passes 65,535 from
// about 4,080 nodes up) fits in the old padding: a record is still 32
// bytes, so a ring of N hops costs what it did.
static_assert(sizeof(HopRecord) == 32, "HopRecord must stay 32 bytes");

/// Receiver of hop records. Implementations must not throw.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_hop(const HopRecord& hop) = 0;
};

/// Fixed-capacity ring buffer of the most recent hops.
class RingTraceSink final : public TraceSink {
 public:
  explicit RingTraceSink(std::size_t capacity);

  void on_hop(const HopRecord& hop) override;

  /// Hops ever recorded (>= size(); the difference was overwritten).
  std::uint64_t recorded() const { return recorded_; }
  std::size_t size() const;
  std::size_t capacity() const { return ring_.size(); }

  /// Retained records, oldest first.
  std::vector<HopRecord> drain() const;

  /// CSV dump of drain(): msg_id,hop,kind,src,dst,tick,delivered.
  std::string to_csv() const;

  void clear();

 private:
  std::vector<HopRecord> ring_;
  std::uint64_t recorded_ = 0;
};

}  // namespace poolnet::obs
