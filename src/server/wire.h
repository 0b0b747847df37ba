// The poolnetd wire protocol: length-prefixed frames over a byte stream.
//
// Every frame is
//
//   u32  length   (little-endian; bytes after this field: 1 + payload)
//   u8   type     (FrameType)
//   ...  payload  (length - 1 bytes)
//
// Requests carry a client-chosen u64 request id at the start of their
// payload; every response echoes it, so a client may keep several
// requests in flight and demultiplex replies. Integers are little-endian,
// doubles are IEEE-754 bit patterns — encoding the same QueryReceipt
// always produces the same bytes, which is what lets bench/server_load
// compare server results against direct engine execution byte for byte
// (docs/wire_protocol.md is the normative description).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "storage/dcs_system.h"
#include "storage/event.h"

namespace poolnet::server {

enum class FrameType : std::uint8_t {
  Query = 1,             ///< request: u64 id + SELECT text
  Insert = 2,            ///< request: u64 id + INSERT text
  SubscribeMetrics = 3,  ///< request: u64 id (no further payload)
  Result = 4,            ///< response: u64 id + u8 kind + body
  Error = 5,             ///< response: u64 id + u16 code + message text
};

/// The `kind` byte of a Result frame — which request shape it answers.
enum class ResultKind : std::uint8_t {
  Query = 1,    ///< body: encoded event set (encode_events)
  Insert = 2,   ///< body: u32 node id the event was stored at
  Metrics = 3,  ///< body: registry snapshot as JSON text
};

enum class ErrorCode : std::uint16_t {
  ParseError = 1,      ///< statement text did not parse / validate
  TooManyInFlight = 2, ///< per-client admission limit hit
  ServerBusy = 3,      ///< global epoch backpressure limit hit
  ShuttingDown = 4,    ///< server is draining; no new work admitted
  BadFrame = 5,        ///< malformed frame (short payload, unknown type)
};

const char* to_string(ErrorCode code);

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::Error;
  std::vector<std::uint8_t> payload;
};

/// Frames larger than this are a protocol violation (the decoder reports
/// an error rather than buffering without bound).
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

// --- little-endian primitives --------------------------------------------

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v);
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v);
void put_f64(std::vector<std::uint8_t>& out, double v);
void put_text(std::vector<std::uint8_t>& out, const std::string& text);

/// Bounds-checked sequential reader over a payload. Failed reads set a
/// sticky error flag and return zero values, so callers can decode a
/// whole layout and check ok() once.
class PayloadReader {
 public:
  PayloadReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit PayloadReader(const std::vector<std::uint8_t>& payload)
      : PayloadReader(payload.data(), payload.size()) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return size_ - pos_; }

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  /// Every remaining byte as text.
  std::string rest_text();

 private:
  const std::uint8_t* take(std::size_t n);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- frame encoding -------------------------------------------------------

/// Appends one complete frame (length prefix + type + payload bytes).
void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  const std::vector<std::uint8_t>& payload);

/// Request frames. `statement` is query-language text (see
/// server::parse_select / parse_insert).
std::vector<std::uint8_t> encode_request(FrameType type,
                                         std::uint64_t request_id,
                                         const std::string& statement);

/// Response frames.
std::vector<std::uint8_t> encode_result(std::uint64_t request_id,
                                        ResultKind kind,
                                        const std::vector<std::uint8_t>& body);
/// The Result frame answering a query — exactly
/// encode_result(request_id, ResultKind::Query, encode_events(events)),
/// written into one presized buffer with no intermediate body.
std::vector<std::uint8_t> encode_query_result(
    std::uint64_t request_id, const std::vector<storage::Event>& events);
std::vector<std::uint8_t> encode_error(std::uint64_t request_id,
                                       ErrorCode code,
                                       const std::string& message);

/// The canonical byte encoding of a query answer: u32 count, then per
/// event u64 id, u32 source, u8 dims, dims x f64 values, f64 detected_at
/// — in receipt order, which the engine guarantees matches serial
/// execution. This is the unit of the bench's byte-identity check.
std::vector<std::uint8_t> encode_events(
    const std::vector<storage::Event>& events);

/// Inverse of encode_events. Returns false on malformed bytes.
bool decode_events(const std::vector<std::uint8_t>& body,
                   std::vector<storage::Event>* out);

// --- incremental decoding -------------------------------------------------

/// Feed raw stream bytes in, pop whole frames out. Tolerates arbitrary
/// fragmentation (a frame split across reads, several frames per read).
class FrameDecoder {
 public:
  /// Appends `n` bytes of stream data.
  void feed(const std::uint8_t* data, std::size_t n);

  /// Pops the next complete frame. Returns false when no full frame is
  /// buffered yet.
  bool next(Frame* out);

  /// Set when the stream violated the protocol (oversized or zero-length
  /// frame); the connection should be dropped.
  bool corrupt() const { return corrupt_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t consumed_ = 0;  ///< bytes of buf_ already handed out
  bool corrupt_ = false;
};

}  // namespace poolnet::server
